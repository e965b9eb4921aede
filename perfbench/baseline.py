"""Measure a commit's baseline with the benchmark as BENCHMARK.json defines it.

From the repository root::

    python3 -m perfbench.baseline --out perfbench/out/baseline.json

Runs every workload in BENCHMARK.json once per seed 1-10 with ``--trace 0``,
then once with ``--trace 1`` on seed 1, one process at a time.  For each end-to-end metric it records the values, their median and
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
quartile distance as a share of the median, next to the metric's bound.
The rate and median trial time from each run's record are summarised too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from perfbench.run import ROOT, environment

# Record-line metrics summarised next to the gated ones.
RECORDED = ("trials_per_s", "trial_ms_p50")
SEEDS = range(1, 11)


def _run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns its result and its record."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(record)["record"]


def summarise(values: list[float], bound: float | None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc: dict = {
        "env": environment(SEEDS[0]),
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            runs.append(_run(spec, name, seed, 0))
            print(name, seed, json.dumps(runs[-1][0]["metrics"]), flush=True)
        entry = {
            m["name"]: summarise([r["metrics"][m["name"]]["value"] for r, _ in runs], m["bound"])
            for m in spec["end_to_end"]
        }
        for key in RECORDED:
            entry[key] = summarise([rec[key] for _, rec in runs], None)
        entry["tail_percentile"] = runs[0][1]["tail"]["percentile"]
        entry["tail_beyond_min"] = min(rec["tail"]["beyond"] for _, rec in runs)
        entry["attempted"] = sum(r["attempted"] for r, _ in runs)
        entry["failed"] = sum(r["failed"] for r, _ in runs)
        traced, _ = _run(spec, name, SEEDS[0], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["workloads"][name] = entry
        for key in [m["name"] for m in spec["end_to_end"]] + list(RECORDED):
            s = entry[key]
            print(f"{name} {key}: median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" (bound {s['bound']})", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
