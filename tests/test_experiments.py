import csv
import dataclasses
import json

import pytest

from distcode import (
    CellResult,
    DecodeResult,
    ExperimentSpec,
    IoFailure,
    default_spec,
    derive_seed,
    emit_results,
    run_achievability,
    run_converse,
    run_experiments,
)
from distcode import experiments
from distcode.errors import BadParameter, BudgetExceeded, ModulusTooSmall
from distcode.experiments import CSV_COLUMNS

SMALL_SPEC = ExperimentSpec(cells=((9, 3, 1, 2),), trials=6, seed=3)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_sensitive_to_every_part(self):
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(1, "b")


class TestSpec:
    def test_default_spec_grid(self):
        spec = default_spec()
        assert ((7, 3, 1, 2)) in spec.cells
        assert ((10, 4, 2, 2)) in spec.cells

    def test_ts_default_by_suite(self):
        spec = SMALL_SPEC
        assert spec.ts_for((9, 3, 1, 2), "achievability") == (5,)
        assert spec.ts_for((9, 3, 1, 2), "converse") == (4,)

    def test_ts_relative_and_absolute(self):
        rel = ExperimentSpec(cells=((9, 3, 1, 2),), t_mode="relative", t_values=(0, -1))
        assert rel.ts_for((9, 3, 1, 2), "achievability") == (5, 4)
        ab = ExperimentSpec(cells=((9, 3, 1, 2),), t_mode="absolute", t_values=(6,))
        assert ab.ts_for((9, 3, 1, 2), "converse") == (6,)

    def test_json_roundtrip(self):
        spec = default_spec(trials=5, seed=9)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_from_json_names_each_unknown_key(self):
        # A misspelled key would otherwise run with its default (100 trials).
        doc = {"cells": [[7, 3, 1, 2]], "trails": 3, "sed": 1}
        with pytest.raises(BadParameter, match="unknown spec keys: 'sed', 'trails'$"):
            ExperimentSpec.from_json(doc)

    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"t_mode": "absolute", "t_values": (5.0,)}, "t_values"),
            ({"t_mode": "absolute", "t_values": (True,)}, "t_values"),
            ({"timing": "no"}, "timing"),  # a truthy string would turn timing on
            ({"seed": 1.5}, "seed"),
            ({"cells": ((9.0, 3, 1, 2),)}, "cells"),
            ({"kinds": "random"}, "kinds"),  # a string would split into letters
        ],
    )
    def test_constructor_refuses_what_a_spec_file_refuses(self, changes, named):
        with pytest.raises(BadParameter, match=named):
            ExperimentSpec(**{"cells": ((9, 3, 1, 2),), **changes})

    def test_lists_are_stored_as_tuples(self):
        spec = ExperimentSpec(cells=[[9, 3, 1, 2]], kinds=["random"], t_values=[0])
        assert spec == ExperimentSpec(cells=((9, 3, 1, 2),), kinds=("random",), t_values=(0,))

    def test_prime_below_the_field_floor_rejected(self):
        with pytest.raises(ModulusTooSmall):
            ExperimentSpec(cells=((9, 3, 1, 2),), prime=101)

    def test_invalid_cell_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cells=((3, 3, 3, 2),))

    @pytest.mark.parametrize("cell", [(5, 3, 1), (9, 3, 1, 2, 1), 5, "9312"])
    def test_cell_not_four_integers_rejected(self, cell):
        with pytest.raises(BadParameter, match="four integers"):
            ExperimentSpec(cells=(cell,))

    @pytest.mark.parametrize(
        "field, value",
        [("budget", 0), ("budget", -5), ("budget", 2.5), ("trials", 2.5), ("workers", True)],
    )
    def test_count_not_a_positive_integer_rejected(self, field, value):
        with pytest.raises(BadParameter, match=field):
            ExperimentSpec(cells=((9, 3, 1, 2),), **{field: value})

    @pytest.mark.parametrize(
        "t_mode, t_values, suite, bad",
        [
            ("absolute", (99,), "both", 99),
            ("absolute", (0,), "achievability", 0),
            ("absolute", (7, 8), "converse", 8),
            ("relative", (-10,), "both", -5),  # t* = 5 on (7,3,1,2)
            ("relative", (3,), "achievability", 8),
        ],
    )
    def test_t_outside_one_to_n_rejected(self, t_mode, t_values, suite, bad):
        # Rejected when the spec is built, before random.sample or decode sees
        # it, and before a converse cell could observe fewer than t encoders.
        with pytest.raises(BadParameter, match=rf"\(7, 3, 1, 2\).* t={bad} "):
            ExperimentSpec(cells=((7, 3, 1, 2),), t_mode=t_mode, t_values=t_values, suite=suite)

    def test_t_from_one_to_n_accepted(self):
        spec = ExperimentSpec(cells=((7, 3, 1, 2),), t_mode="absolute", t_values=(1, 7))
        assert spec.ts_for((7, 3, 1, 2), "converse") == (1, 7)
        with pytest.raises(BadParameter, match="t=8"):
            dataclasses.replace(spec, t_values=(8,))


class TestRuns:
    def test_achievability_all_correct_at_threshold(self):
        results = run_achievability(SMALL_SPEC)
        assert len(results) == 1
        r = results[0]
        assert r.t == 5
        assert r.honest_correct == r.trials == 6
        assert r.ambiguous == r.undetermined == r.failures == 0

    def test_achievability_far_below_threshold_is_undetermined(self):
        # Two encoders of a K=3 code pin no honest message: the fast decodes
        # leave them missing, and the two strict ones (every tenth trial)
        # flag them ambiguous.
        spec = ExperimentSpec(cells=((9, 3, 1, 2),), kinds=("random",), t_mode="absolute",
                              t_values=(2,), trials=20, suite="achievability")
        r = run_experiments(spec)[0]
        assert (r.honest_correct, r.ambiguous, r.undetermined, r.failures) == (0, 2, 18, 0)

    def test_converse_all_ambiguous_below_threshold(self):
        results = run_converse(SMALL_SPEC)
        r = results[0]
        assert r.t == 4
        assert r.ambiguous == r.trials == 6

    def test_converse_v1_classic_undersampling(self):
        # v=1 removes equivocation; K-1 coded symbols still cannot pin K
        # messages, so every attack yields ambiguity.
        spec = ExperimentSpec(cells=((6, 3, 1, 1),), trials=5, seed=2)
        r = run_converse(spec)[0]
        assert r.t == 2
        assert r.ambiguous == r.trials == 5

    def test_converse_at_threshold_not_ambiguous(self):
        spec = ExperimentSpec(
            cells=((9, 3, 1, 2),), trials=4, seed=1, t_mode="relative", t_values=(0,)
        )
        r = run_converse(spec)[0]
        assert r.ambiguous == 0
        assert r.honest_correct == 4  # the attack is harmless with t* encoders

    def test_converse_counts_a_wrong_estimate_as_a_failure(self, monkeypatch):
        # A wrong, unflagged honest estimate is a failure in both suites,
        # even when another honest estimate is missing.
        attacks = []
        real_attack = experiments.converse_attack

        def recording_attack(*args, **kwargs):
            attacks.append(real_attack(*args, **kwargs))
            return attacks[-1]

        def wrong_decode(gm, *args, **kwargs):
            setup = attacks[-1].setup1
            estimates = [(r[0] + 1) % gm.ctx.p for r in setup.rows]
            estimates[setup.honest_sources[0]] = None
            return DecodeResult(tuple(estimates), 1)

        monkeypatch.setattr(experiments, "converse_attack", recording_attack)
        monkeypatch.setattr(experiments, "decode", wrong_decode)
        r = run_converse(SMALL_SPEC)[0]
        assert r.failures == r.trials == 6

    @pytest.mark.parametrize(
        "run, bucket", [(run_achievability, "honest_correct"), (run_converse, "ambiguous")]
    )
    def test_budget_exceeded_mid_cell_fails_the_remaining_trials(self, monkeypatch, run, bucket):
        # The third decode is refused: trials 2-5 are failures, and no
        # decode runs after the refusal.
        calls = []
        real_decode = experiments.decode

        def refusing_decode(*args, **kwargs):
            calls.append(kwargs["mode"])
            if len(calls) == 3:
                raise BudgetExceeded("refused")
            return real_decode(*args, **kwargs)

        monkeypatch.setattr(experiments, "decode", refusing_decode)
        r = run(SMALL_SPEC)[0]
        assert len(calls) == 3
        assert getattr(r, bucket) == 2 and r.failures == 4
        assert r.honest_correct + r.ambiguous + r.undetermined + r.failures == r.trials

    def test_converse_counts_a_raising_attack_as_one_failure(self, monkeypatch):
        calls = []
        real_attack = experiments.converse_attack

        def raising_attack(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise BadParameter("no attack")
            return real_attack(*args, **kwargs)

        monkeypatch.setattr(experiments, "converse_attack", raising_attack)
        r = run_converse(SMALL_SPEC)[0]
        assert len(calls) == 6
        assert (r.failures, r.ambiguous) == (1, 5)

    def test_converse_counts_a_rejected_attack_as_one_failure(self, monkeypatch):
        verdicts = iter([True, True, False, True, True, True])
        real_verify = experiments.verify_attack
        monkeypatch.setattr(
            experiments, "verify_attack", lambda gm, atk: real_verify(gm, atk) and next(verdicts)
        )
        r = run_converse(SMALL_SPEC)[0]
        assert next(verdicts, "done") == "done"  # every trial was verified
        assert (r.failures, r.ambiguous) == (1, 5)

    def test_bucket_identity(self):
        for r in run_experiments(SMALL_SPEC):
            assert r.honest_correct + r.ambiguous + r.undetermined + r.failures == r.trials

    def test_parallel_workers_match_sequential(self):
        spec = ExperimentSpec(
            cells=((9, 3, 1, 2), (7, 3, 1, 2)), trials=3, seed=5, suite="both"
        )
        seq = [r.to_row() for r in run_experiments(spec)]
        par = [r.to_row() for r in run_experiments(dataclasses.replace(spec, workers=2))]
        assert seq == par

    @pytest.mark.parametrize("cpus, pools", [(64, [2, 2]), (1, []), (None, [])])
    def test_pool_is_bounded_by_tasks_and_cpus(self, cpus, pools, monkeypatch):
        # A fork-started pool forks max_workers children at the first submit,
        # so --workers 5000 must not reach it.  The recorder starts no process.
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        spec = ExperimentSpec(
            cells=((9, 3, 1, 2), (7, 3, 1, 2)), trials=2, seed=5, suite="both"
        )
        seq = [r.to_row() for r in run_experiments(spec)]
        wide = dataclasses.replace(spec, workers=5000)
        assert [r.to_row() for r in run_experiments(wide)] == seq
        assert sizes == pools  # each suite has two tasks


class TestEmit:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], "csv", path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_single_cell_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_results([CellResult(9, 3, 1, 2, "random", 5, 10, honest_correct=10)], "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "9,3,1,2,random,5,10,10,0,0,0,0"

    def test_json_roundtrip_identical_records(self, tmp_path):
        results = run_experiments(SMALL_SPEC)
        path = tmp_path / "r.json"
        emit_results(results, "json", path, meta={"master_seed": 3})
        doc = json.loads(path.read_text())
        assert doc["results"] == [r.to_row() for r in results]
        assert doc["meta"]["master_seed"] == 3

    def test_csv_roundtrip(self, tmp_path):
        results = run_experiments(SMALL_SPEC)
        path = tmp_path / "r.csv"
        emit_results(results, "csv", path)
        with open(path, encoding="utf-8", newline="") as fh:
            back = list(csv.DictReader(fh))
        assert back == [{c: str(x) for c, x in r.to_row().items()} for r in results]

    def test_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            emit_results([], "csv", tmp_path / "missing_dir" / "x.csv")


class TestDeterminism:
    def test_same_seed_byte_identical_csv(self, tmp_path):
        spec = ExperimentSpec(cells=((9, 3, 1, 2), (4, 3, 1, 2)), trials=3, seed=7)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_experiments(spec), "csv", a)
        emit_results(run_experiments(spec), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_nothing_at_threshold(self):
        # Outcome counts are stable across seeds when t >= t*.
        for seed in (1, 2):
            spec = ExperimentSpec(cells=((9, 3, 1, 2),), trials=3, seed=seed)
            assert run_achievability(spec)[0].honest_correct == 3
