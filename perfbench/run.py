"""Run one benchmark workload and print its metrics as JSON.

From the repository root::

    python3 -m perfbench.run --workload threshold --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics.  One trial at a time runs in
a closed loop, with no threads, for ``--seconds``.  Set-up time is the median
wall time of fresh processes that import distcode, draw the codes and make
the inputs.  ``--trace 1`` runs a fixed list of trials, set by the seed and
``--seconds``, each untraced and then traced, and reports the per-layer
metrics; a fixed list makes every count repeat exactly for a given seed.

Every trial's output is checked.  The last line of standard output is the
result object; the line before it is the full record (environment, rate,
median, tail percentile and its sample count, fail ratio, failures).  The
record is also written under ``perfbench/out/``, with the spans of a traced
run.  The exit status is nonzero when any trial fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9


def use_checkout_source() -> None:
    """Import distcode from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import distcode

    if not Path(distcode.__file__).resolve().is_relative_to(src):
        raise ImportError(f"distcode comes from {distcode.__file__}, not {src}")


def tail_percentile(samples, pct: float):
    """Nearest-rank ``pct`` percentile of ``samples``.

    Returns ``(value, beyond)``, where ``beyond`` counts the samples above
    the rank.  Each workload fixes ``pct``, so every run and every commit is
    judged at the same percentile; ``beyond`` is recorded so a run too short
    for its percentile shows in the record.
    """
    xs = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def run_trials(wl, state, seconds: float, count: int, tracer=None, first: int = 0):
    """Closed loop: run trials ``first, first+1, ...`` until ``count`` have run
    and ``seconds`` passed.

    Returns the trial durations and ``(index, reason)`` per failed trial.
    Only the trial itself is timed; its check runs after, outside any span.
    """
    times: list[float] = []
    failures: list[tuple[int, str]] = []
    stop = time.perf_counter() + seconds
    i = first
    while i < first + count or time.perf_counter() < stop:
        if tracer is not None:
            tracer.trial_id = i
        err = None
        t0 = time.perf_counter()
        try:
            out = wl.trial(state, i)
        except Exception:  # a trial that raises is a failed trial
            err = traceback.format_exc(limit=-3)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.trial_id = -1
        if err is None:
            err = wl.check(state, i, out)
        if err is not None:
            failures.append((i, err))
        i += 1
    return times, failures


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports, draws codes and makes inputs."""
    cmd = [sys.executable, "-m", "perfbench.run", "--setup-only", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr.decode()}")
    return elapsed


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "commit": _git_commit(),
    }


def measure(wl, seed: int, seconds: float):
    """End-to-end run.  Returns (metrics, record fields, trials, failures).

    Rates and percentiles are over the trials' own durations; set-up
    processes and output checks are not part of any trial.

    The set-up processes are spread over the run, one before each of
    SETUP_REPEATS equal slices of trials, so their median samples the whole
    run rather than one moment of a machine whose speed drifts.
    """
    state = wl.setup(seed)
    run_trials(wl, state, 0, 1)  # warm-up; let lazy set-up finish untimed
    times: list[float] = []
    failures: list[tuple[int, str]] = []
    setup_runs = []
    start = time.perf_counter()
    for k in range(1, SETUP_REPEATS + 1):
        setup_runs.append(setup_seconds(wl.name, seed))
        left = start + k * seconds / SETUP_REPEATS - time.perf_counter()
        t, f = run_trials(wl, state, left, 1, first=len(times))
        times += t
        failures += f
    setup_s = statistics.median(setup_runs)
    tail, beyond = tail_percentile(times, wl.tail_pct)
    metrics = {
        "trial_ms_tail": (tail * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Recorded but not gated: on a machine whose speed drifts by up to 1.6x
    # over tens of seconds, the rate and the median spread up to 0.2 across
    # ten runs, while the tail (the slow phase) stays near 0.1.
    extra = {
        "trials_per_s": len(times) / sum(times),
        "trial_ms_p50": statistics.median(times) * 1000,
        "trial_fail_ratio": len(failures) / len(times),
        "tail": {"percentile": wl.tail_pct, "samples": len(times), "beyond": beyond},
        "setup_runs_s": setup_runs,
        "trial_s": times,
    }
    return metrics, extra, len(times), failures


def traced(wl, seed: int, seconds: float):
    """Per-layer run over a fixed trial list.  Same return shape as measure.

    Set-up runs traced.  Each trial then runs twice, untraced and traced,
    so the overhead ratio compares the two at the same moment of the run.
    """
    from perfbench.tracing import Tracer, layer_metrics

    count = max(1, round(seconds * wl.trace_rate / wl.cycle)) * wl.cycle
    tracer = Tracer()
    with tracer:
        state = wl.setup(seed)
    run_trials(wl, state, 0, 1)  # warm-up
    plain: list[float] = []
    times: list[float] = []
    failures: list[tuple[int, str]] = []
    for i in range(count):
        t, f = run_trials(wl, state, 0, 1, first=i)
        plain += t
        failures += f
        with tracer:
            t, f = run_trials(wl, state, 0, 1, tracer, first=i)
        times += t
        failures += f
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.npz")
    metrics, absent = layer_metrics(tracer, sum(plain) / sum(times))
    extra = {
        "trial_fail_ratio": len(failures) / (2 * count),
        "trace_trials": count,
        "spans": len(tracer.name),
        "absent": absent,
        "hook_errors": tracer.hook_errors,
    }
    return metrics, extra, 2 * count, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        use_checkout_source()
    except ImportError as exc:
        print(f"perfbench: cannot import distcode from this checkout: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_only:
        wl.setup(args.seed)
        return 0

    env = environment(args.seed)
    run = traced if args.trace else measure
    metrics, extra, attempted, failures = run(wl, args.seed, args.seconds)
    for i, reason in failures[:5]:
        print(f"perfbench: trial {i} failed: {reason}", file=sys.stderr)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        **extra,
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "trial_s"}}))
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
