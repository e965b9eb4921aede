"""Tests of the benchmark's own logic: tail rule, span arithmetic, tracer
robustness, the correctness gates and a tiny run of every workload."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import run, tracing

run.use_checkout_source()

import distcode  # noqa: E402
from distcode import codes, decoding, field  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_tail_percentile_is_the_fixed_nearest_rank():
    xs = list(range(1, 101))
    assert run.tail_percentile(xs, 90.0) == (90, 10)
    assert run.tail_percentile(reversed(xs), 75.0) == (75, 25)
    # A long run is judged at the same percentile as a short one.
    assert run.tail_percentile(range(10_000), 75.0) == (7499, 2500)


def test_tail_percentile_keeps_its_step_when_few_lie_beyond():
    # Fewer than ten beyond: the percentile stays, the count shows it.
    assert run.tail_percentile(range(39), 75.0) == (29, 9)
    assert run.tail_percentile([3.0, 1.0, 2.0], 99.0) == (3.0, 0)
    assert run.tail_percentile([5.0], 50.0) == (5.0, 0)


def test_self_times_on_nested_toy_trace():
    # a [0,10] holds b [1,4] and c [5,7]; c holds d [5.5,6].
    start = np.array([0.0, 1.0, 5.0, 5.5])
    end = np.array([10.0, 4.0, 7.0, 6.0])
    parent = np.array([-1, 0, 0, 2])
    assert tracing.self_times(start, end, parent).tolist() == [5.0, 3.0, 1.5, 0.5]
    name = np.array([0, 1, 2, 1])
    assert tracing.has_ancestor(parent, name, 2).tolist() == [False, False, False, True]
    assert tracing.has_ancestor(parent, name, 0).tolist() == [False, True, True, True]


def _small_code():
    return codes.draw_mds(field.field_new(distcode.DEFAULT_PRIME), "random", 5, 3, seed=7)


def test_tracer_wraps_caller_namespaces_and_restores_them():
    original = decoding.batch_feasible
    gm = _small_code()
    with tracing.Tracer() as tracer:
        assert decoding.batch_feasible is not original
        assert codes.is_mds(gm)
        parts = list(decoding.enumerate_partitions((0, 1, 2), 2))
    assert decoding.batch_feasible is original
    assert len(parts) == 4
    names = [tracer.names[i] for i in tracer.name]
    assert names[:2] == ["codes.is_mds", "field.all_square_submatrices_nonsingular"]
    assert tracer.parent[1] == 0
    # One span per generator resume: four items and the final stop.
    assert names.count("decoding.enumerate_partitions") == 5
    metrics, absent = tracing.layer_metrics(tracer, 1.0)
    assert absent == []
    assert metrics["field.all_square_submatrices_nonsingular.calls"] == (1, "count")
    assert metrics["decoding.decode.calls"] == (0, "count")


def test_renamed_function_is_absent_not_a_crash(monkeypatch):
    monkeypatch.delattr(field, "batch_feasible")
    with tracing.Tracer() as tracer:
        pass
    metrics, absent = tracing.layer_metrics(tracer, 1.0)
    assert "field.batch_feasible.calls" in absent
    assert "field.batch_feasible.systems" not in metrics
    assert metrics["field.solve.calls"] == (0, "count")


def test_failing_hook_drops_only_its_counters(monkeypatch):
    def broken(counts, args, kwargs, result, exc):
        raise KeyError("aug")

    keys = tracing.HOOKS["field.batch_feasible"][1]
    monkeypatch.setitem(tracing.HOOKS, "field.batch_feasible", (broken, keys))
    aug = np.zeros((2, 3, 3), dtype=np.int64)
    with tracing.Tracer() as tracer:
        decoding.batch_feasible(aug, 7, 2)
    metrics, absent = tracing.layer_metrics(tracer, 1.0)
    assert "field.batch_feasible" in tracer.hook_errors
    assert set(absent) == {
        "field.batch_feasible.systems",
        "field.batch_feasible.systems_per_s",
        "field.batch_feasible.bytes_computed",
    }
    assert metrics["field.batch_feasible.calls"] == (1, "count")


def test_threshold_gate_rejects_a_wrong_estimate():
    wl = WORKLOADS["threshold"]
    state = wl.setup(3)
    inp = state[1][1]
    estimates = [None] * 4
    for k, message in inp.honest.items():
        estimates[k] = message
    good = SimpleNamespace(estimates=tuple(estimates), ambiguous_coordinates=frozenset())
    assert wl.check(state, 1, good) is None
    k = min(inp.honest)
    estimates[k] = (estimates[k] + 1) % distcode.DEFAULT_PRIME
    bad = SimpleNamespace(estimates=tuple(estimates), ambiguous_coordinates=frozenset())
    assert "wrongly" in wl.check(state, 1, bad)


def test_gates_reject_a_non_mds_code_drawn_in_setup():
    # Nodes 0 and 1 share a row, so every 4-subset holding both is singular.
    rows = [[1, a, a * a, a**3] for a in (1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)]
    bad_gm = SimpleNamespace(
        matrix=SimpleNamespace(to_rows=lambda: rows),
        N=12, K=4, ctx=SimpleNamespace(p=distcode.DEFAULT_PRIME), kind="random",
    )
    wl = WORKLOADS["threshold"]
    cfg, inputs, cache = wl.setup(3)
    inputs[1] = dataclasses.replace(inputs[1], gm=bad_gm)
    assert wl.check((cfg, inputs, cache), 1, None) == "non-MDS random code"
    wl = WORKLOADS["converse"]
    cfg, t, cells, cache = wl.setup(3)
    cells[0] = (cells[0][0], bad_gm)
    assert wl.check((cfg, t, cells, cache), 0, []) == "non-MDS random code"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_passes_gate_and_reports_every_layer(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    wl = WORKLOADS[name]
    metrics, extra, attempted, failures = run.traced(wl, seed=5, seconds=0)
    assert failures == []
    assert attempted == 2 * wl.cycle
    assert extra["absent"] == [] and extra["hook_errors"] == {}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"]
        if unit == "count":
            assert type(value) is int
    assert (tmp_path / f"spans-{name}-seed5.npz").exists()


def test_cli_prints_result_last_for_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.run", "--workload", "construct", "--seed", "2",
         "--seconds", "0.5", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_fails_without_the_program_source(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.run", "--workload", "construct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
