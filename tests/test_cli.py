import argparse
import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcode import (
    DistcodeError,
    GeneratorMatrix,
    SourceBehavior,
    SystemConfig,
    Transcript,
    behavior_random_adversarial,
    encode_transcript,
)
from distcode import cli, codes
from distcode.cli import _read_json, build_parser, main
from distcode.experiments import ExperimentSpec

P = 2**31 - 1


def run_cli(*argv):
    return main(list(argv))


class TestGenCode:
    def test_writes_valid_code(self, tmp_path):
        out = tmp_path / "code.json"
        assert run_cli("gen-code", "--kind", "random", "--n", "6", "--k", "3",
                       "--seed", "1", "--out", str(out)) == 0
        gm = GeneratorMatrix.from_json(json.loads(out.read_text()))
        assert gm.N == 6 and gm.K == 3 and gm.kind == "random"

    def test_reed_solomon_with_points(self, tmp_path):
        out = tmp_path / "rs.json"
        assert run_cli("gen-code", "--kind", "reed_solomon", "--n", "3", "--k", "2",
                       "--points", "1,2,3", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["rows"] == [[1, 1], [1, 2], [1, 3]]

    def test_bad_dimensions_exit_code(self, tmp_path, capsys):
        rc = run_cli("gen-code", "--kind", "random", "--n", "2", "--k", "3",
                     "--out", str(tmp_path / "x.json"))
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestAttackAndDecode:
    @pytest.fixture()
    def code_path(self, tmp_path):
        out = tmp_path / "code.json"
        run_cli("gen-code", "--kind", "random", "--n", "9", "--k", "3",
                "--seed", "2", "--out", str(out))
        return out

    def test_attack_roundtrip(self, tmp_path, code_path):
        out = tmp_path / "attack.json"
        assert run_cli("attack", "--code", str(code_path), "--beta", "1", "--v", "2",
                       "--seed", "4", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"T", "setup1", "setup2", "delta", "w"}
        assert len(doc["T"]) == 4

    def test_attack_that_fails_verification_exits_1(self, tmp_path, code_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "verify_attack", lambda gm, attack: False)
        out = tmp_path / "attack.json"
        assert run_cli("attack", "--code", str(code_path), "--beta", "1", "--v", "2",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == "attack failed verification\n"
        assert not out.exists()

    def test_decode_finds_honest_messages(self, tmp_path, code_path):
        gm = GeneratorMatrix.from_json(json.loads(code_path.read_text()))
        cfg = SystemConfig(N=9, K=3, beta=1, v=2, p=P)
        behavior = behavior_random_adversarial(cfg, [10, 20, 30], (0,), seed=5)
        tr = encode_transcript(gm, behavior, (0, 1, 2, 3, 4))
        tr_path = tmp_path / "tr.json"
        tr_path.write_text(json.dumps(tr.to_json()))
        out = tmp_path / "dec.json"
        assert run_cli("decode", "--code", str(code_path), "--transcript", str(tr_path),
                       "--beta", "1", "--v", "2", "--mode", "strict",
                       "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["estimates"][1] == 20 and doc["estimates"][2] == 30
        assert doc["feasible_count"] >= 1
        assert doc["guaranteed"] is True  # t = t* = 5

    def test_decode_attack_transcript_reports_ambiguity(self, tmp_path, code_path):
        atk_path = tmp_path / "attack.json"
        run_cli("attack", "--code", str(code_path), "--beta", "1", "--v", "2",
                "--seed", "6", "--out", str(atk_path))
        atk = json.loads(atk_path.read_text())
        gm = GeneratorMatrix.from_json(json.loads(code_path.read_text()))
        cfg = SystemConfig(N=9, K=3, beta=1, v=2, p=P)
        from distcode import SourceBehavior

        setup1 = SourceBehavior.from_json(cfg, atk["setup1"])
        tr = encode_transcript(gm, setup1, tuple(atk["T"]))
        tr_path = tmp_path / "tr.json"
        tr_path.write_text(json.dumps(tr.to_json()))
        out = tmp_path / "dec.json"
        run_cli("decode", "--code", str(code_path), "--transcript", str(tr_path),
                "--beta", "1", "--v", "2", "--mode", "strict", "--out", str(out))
        doc = json.loads(out.read_text())
        assert "ambiguity" in doc
        assert doc["guaranteed"] is False  # the attack observes t* - 1 encoders


class TestBadInput:
    @pytest.mark.parametrize(
        "case",
        [
            "beta_not_below_k",
            "v_zero",
            "transcript_without_values",
            "malformed_json",
            "missing_file",
            "points_not_integers",
            "sweep_trials_zero",
            "sweep_workers_zero",
            "sweep_budget_negative",
            "decode_budget_zero",
            "spec_cell_of_three",
            "value_a_string",
            "value_null",
            "value_a_list",
            "value_a_float",
            "code_entry_a_float",
            "spec_trials_a_float",
            "spec_cell_entry_a_float",
            "spec_kind_unknown",
            "spec_kinds_a_string",
            "spec_timing_a_string",
            "transcript_empty",
            "prime_a_pseudoprime",
            "spec_cells_empty",
            "spec_kinds_empty",
            "spec_t_values_empty",
            "spec_t_absolute_above_n",
            "spec_t_relative_below_one",
            "spec_t_absolute_zero",
            "spec_a_list",
            "code_a_string",
            "code_p_a_float",
            "transcript_null",
            "gen_code_n70_k35",
            "gen_code_n40_k20",
            "points_too_few",
            "points_for_random",
            "spec_key_misspelled",
            "spec_t_value_a_float",
            "spec_t_value_a_bool",
            "spec_seed_a_float",
            "transcript_key_unknown",
            "code_key_unknown",
            "code_without_kind",
            "spec_without_cells",
            "gen_code_never_mds",
            "out_in_missing_directory",
        ],
    )
    def test_one_error_line_and_exit_code_1(self, tmp_path, capsys, monkeypatch, case):
        specs = {
            "spec_trials_a_float": {"cells": [[9, 3, 1, 2]], "trials": 2.7},
            "spec_cell_entry_a_float": {"cells": [[9.5, 3, 1, 2]], "trials": 2},
            "spec_kind_unknown": {"cells": [[9, 3, 1, 2]], "trials": 1, "kinds": ["bogus"]},
            "spec_kinds_a_string": {"cells": [[9, 3, 1, 2]], "trials": 1, "kinds": "random"},
            "spec_timing_a_string": {"cells": [[9, 3, 1, 2]], "trials": 1, "timing": "no"},
            "spec_cells_empty": {"cells": [], "trials": 1},
            "spec_kinds_empty": {"cells": [[9, 3, 1, 2]], "trials": 1, "kinds": []},
            "spec_t_values_empty": {"cells": [[9, 3, 1, 2]], "trials": 1,
                                    "t_mode": "relative", "t_values": []},
            # Each t lies outside [1, N]: no trial can observe that many encoders.
            "spec_t_absolute_above_n": {"cells": [[7, 3, 1, 2]], "trials": 1,
                                        "t_mode": "absolute", "t_values": [99]},
            "spec_t_relative_below_one": {"cells": [[7, 3, 1, 2]], "trials": 1,
                                          "t_mode": "relative", "t_values": [-10]},
            "spec_t_absolute_zero": {"cells": [[7, 3, 1, 2]], "trials": 1,
                                     "t_mode": "absolute", "t_values": [0]},
            "spec_a_list": [1],
            "spec_cell_of_three": {"cells": [[5, 3, 1]], "trials": 1},
            "spec_key_misspelled": {"cells": [[7, 3, 1, 2]], "trails": 3},
            "spec_t_value_a_float": {"cells": [[9, 3, 1, 2]], "trials": 1,
                                     "t_mode": "absolute", "t_values": [5.0]},
            "spec_t_value_a_bool": {"cells": [[9, 3, 1, 2]], "trials": 1,
                                    "t_mode": "absolute", "t_values": [True]},
            "spec_seed_a_float": {"cells": [[9, 3, 1, 2]], "trials": 1, "seed": 1.5},
            "spec_without_cells": {"trials": 1},
        }
        if case in specs:
            (tmp_path / "spec.json").write_text(json.dumps(specs[case]))
            argv = ["sweep", "--spec", str(tmp_path / "spec.json"),
                    "--out", str(tmp_path / "r.csv")]
        else:
            argv = {
                # Too large for the exhaustive MDS check's index tables.
                "gen_code_n70_k35": ["gen-code", "--kind", "random", "--n", "70",
                                     "--k", "35", "--seed", "1"],
                "gen_code_n40_k20": ["gen-code", "--kind", "random", "--n", "40",
                                     "--k", "20", "--seed", "1"],
                "gen_code_never_mds": ["-q", "gen-code", "--kind", "random", "--n", "3",
                                       "--k", "2"],
                "out_in_missing_directory": ["gen-code", "--kind", "random", "--n", "3",
                                             "--k", "2", "--out",
                                             str(tmp_path / "missing" / "code.json")],
                "points_not_integers": ["gen-code", "--kind", "reed_solomon", "--n", "3",
                                        "--k", "2", "--points", "a,b"],
                "points_too_few": ["gen-code", "--kind", "reed_solomon", "--n", "5",
                                   "--k", "2", "--points", "1,2,3"],
                "points_for_random": ["gen-code", "--kind", "random", "--n", "3",
                                      "--k", "2", "--points", "1,2,3"],
                # 798330580441 * 399165290221, a strong pseudoprime to bases 2..37
                "prime_a_pseudoprime": ["gen-code", "--kind", "random", "--n", "3",
                                        "--k", "2", "--prime", "318665857834031151167461"],
                "sweep_trials_zero": ["sweep", "--trials", "0",
                                      "--out", str(tmp_path / "r.csv")],
                "sweep_workers_zero": ["sweep", "--workers", "0",
                                       "--out", str(tmp_path / "r.csv")],
                "sweep_budget_negative": ["sweep", "--budget", "-5", "--trials", "1",
                                          "--out", str(tmp_path / "r.csv")],
            }.get(case) or self._decode_argv(tmp_path, case)
        if case == "decode_budget_zero":
            argv += ["--budget", "0"]
        if case == "gen_code_never_mds":
            monkeypatch.setattr(codes, "is_mds", lambda gm: False)
        capsys.readouterr()
        rc = run_cli(*argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        named = {"sweep_budget_negative": "budget", "decode_budget_zero": "budget",
                 "spec_cell_of_three": "four integers",
                 "gen_code_n70_k35": "N=70, K=35", "gen_code_n40_k20": "N=40, K=20",
                 "points_too_few": "5 in all, got 3", "points_for_random": "reed_solomon",
                 "spec_key_misspelled": "'trails'", "spec_t_value_a_float": "t_values",
                 "spec_t_value_a_bool": "t_values", "spec_seed_a_float": "seed",
                 "transcript_key_unknown": "unknown transcript keys: 'node_sets'",
                 "code_key_unknown": "unknown code keys: 'kidn'",
                 "transcript_without_values": "missing transcript keys: 'values'",
                 "code_without_kind": "missing code keys: 'kind'",
                 "spec_without_cells": "missing spec keys: 'cells'",
                 "gen_code_never_mds": "no MDS random code with N=3, K=2, p=",
                 "out_in_missing_directory": "cannot write"}
        assert named.get(case, "") in err
        assert not (tmp_path / "r.csv").exists()

    @staticmethod
    def _decode_argv(tmp_path, case):
        code_path = tmp_path / "code.json"
        run_cli("gen-code", "--kind", "random", "--n", "9", "--k", "3",
                "--seed", "2", "--out", str(code_path))
        gm = GeneratorMatrix.from_json(json.loads(code_path.read_text()))
        cfg = SystemConfig(N=9, K=3, beta=1, v=2, p=P)
        behavior = behavior_random_adversarial(cfg, [10, 20, 30], (0,), seed=5)
        doc = encode_transcript(gm, behavior, (0, 1, 2, 3, 4)).to_json()
        beta, v = {"beta_not_below_k": ("5", "2"), "v_zero": ("1", "0")}.get(case, ("1", "2"))
        if case == "transcript_without_values":
            del doc["values"]
        if case == "transcript_empty":
            doc = {"node_set": [], "values": []}
        bad = {"value_a_string": "a", "value_null": None, "value_a_list": [1], "value_a_float": 1.5}
        if case in bad:
            doc["values"][0] = bad[case]
        if case == "transcript_null":
            doc = None
        if case == "transcript_key_unknown":
            doc["node_sets"] = doc["node_set"]
        code = json.loads(code_path.read_text())
        if case == "code_entry_a_float":
            code["rows"][0][0] = 1.5
        if case == "code_p_a_float":
            code["p"] = P + 0.5  # truncates to P, so only a type check rejects it
        if case == "code_a_string":
            code = "code"
        if case == "code_key_unknown":
            code["kidn"] = "systematic"
        if case == "code_without_kind":
            del code["kind"]
        code_path.write_text(json.dumps(code))
        if case in ("code_key_unknown", "code_without_kind"):
            return ["attack", "--code", str(code_path), "--beta", beta, "--v", v]
        tr_path = tmp_path / "tr.json"
        if case == "malformed_json":
            tr_path.write_text('{"node_set": [0, 1,')
        elif case != "missing_file":
            tr_path.write_text(json.dumps(doc))
        return ["decode", "--code", str(code_path), "--transcript", str(tr_path),
                "--beta", beta, "--v", v]


# Arbitrary JSON documents; object keys are often ones the loaders read, so
# documents get past the first lookup.
_KEYS = ("p", "N", "K", "kind", "rows", "rs_points", "node_set", "values", "adversary_set",
         "cells", "kinds", "t_mode", "t_values", "trials", "seed", "prime", "suite", "timing")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=30,
)
_LOADERS = {
    "code": GeneratorMatrix.from_json,
    "transcript": Transcript.from_json,
    "spec": ExperimentSpec.from_json,
    "behavior": functools.partial(SourceBehavior.from_json, SystemConfig(4, 2, 1, 2, p=P)),
}


@settings(max_examples=300, deadline=None)
@given(doc=_JSON, loader=st.sampled_from(sorted(_LOADERS)))
def test_loaders_raise_only_distcode_errors(doc, loader):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        try:
            _read_json(path, _LOADERS[loader])
        except DistcodeError:
            pass


def _options():
    """Each subcommand of the real parser with its ``--`` options as
    ``(flag, takes_value, choices, required)``."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [
            (a.option_strings[0], a.nargs != 0, a.choices, a.required)
            for a in p._actions
            if a.option_strings and a.option_strings[0].startswith("--")
            and a.option_strings[0] != "--help"
        ]
        for name, p in sub.choices.items()
    }


_OPTIONS = _options()
# (good, bad) values per option; paths are placeholders filled in from the
# test's directory.  Values stay small so every run is quick: sweeps read a
# one-cell spec and never start more than one worker.
_NUMBERS = (["1", "2", "3"], ["-1", "0", "9", "", "x", "1.5"])
_FILES = ["code", "transcript", "spec", "bad", "missing"]
_VALUES = {
    **{
        f"--{name}": (
            [f"{{d}}/{name}.json"],
            [f"{{d}}/{other}.json" for other in _FILES if other != name] + ["{d}"],
        )
        for name in ("code", "transcript", "spec")
    },
    "--out": (["-", "{d}/out.json"], ["{d}/missing/out.json", "{d}"]),
    "--prime": (["65537", "2147483647"], ["4", "2", "-1", "x"]),
    "--points": (["1,2,3"], ["1,1,1", "a,b", ""]),
    "--workers": (["1"], ["-1", "0", "x"]),
}


@st.composite
def _argvs(draw):
    """An argv of one real subcommand: each option present or not, with a
    good value three times in four and a bad one otherwise."""
    argv = ["-q"] if draw(st.booleans()) else []
    name = draw(st.sampled_from(sorted(_OPTIONS)))
    argv.append(name)
    # A sweep always reads a spec file and writes into the test's directory,
    # never the default grid or the working directory.
    pinned = ("--spec", "--out") if name == "sweep" else ()
    for flag, takes_value, choices, required in _OPTIONS[name]:
        if flag not in pinned and draw(st.integers(0, 19 if required else 1)) == 0:
            continue
        argv.append(flag)
        if takes_value:
            good, bad = (list(choices), ["bogus"]) if choices else _VALUES.get(flag, _NUMBERS)
            pool = bad if draw(st.integers(0, 3)) == 0 else good
            argv.append(draw(st.sampled_from([v for v in pool if v != "-" or not pinned])))
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra"])))
    return argv


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    run_cli("gen-code", "--kind", "random", "--n", "6", "--k", "3", "--seed", "1",
            "--out", str(d / "code.json"))
    gm = GeneratorMatrix.from_json(json.loads((d / "code.json").read_text()))
    behavior = behavior_random_adversarial(SystemConfig(6, 3, 1, 2, p=P), [1, 2, 3], (0,), 4)
    tr = encode_transcript(gm, behavior, (0, 1, 2, 3, 4))
    (d / "transcript.json").write_text(json.dumps(tr.to_json()))
    (d / "spec.json").write_text(json.dumps({"cells": [[5, 2, 1, 2]], "trials": 1}))
    (d / "bad.json").write_text('{"p": [')
    return str(d)


@settings(max_examples=80, deadline=None)
@given(argv=_argvs())
def test_cli_argv_fuzz_exits_cleanly(argv_dir, argv):
    # main returns 0 or 1; argparse rejects bad usage with exit status 2.
    argv = [a.format(d=argv_dir) for a in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
    else:
        assert rc in (0, 1), argv


class TestSweep:
    def test_sweep_with_spec_file(self, tmp_path):
        spec = {
            "cells": [[9, 3, 1, 2]],
            "kinds": ["random"],
            "trials": 3,
            "seed": 1,
            "suite": "both",
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "results.csv"
        assert run_cli("sweep", "--spec", str(spec_path), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + achievability + converse
        assert lines[0].startswith("N,K,beta,v,kind,t,")

    def test_sweep_default_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = {"cells": [[9, 3, 1, 2], [4, 3, 1, 2]], "trials": 2, "seed": 0}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        run_cli("sweep", "--spec", str(spec_path), "--out", str(a))
        run_cli("sweep", "--spec", str(spec_path), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_json_format(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"cells": [[9, 3, 1, 2]], "trials": 2, "seed": 0}))
        out = tmp_path / "results.json"
        assert run_cli("sweep", "--spec", str(spec_path), "--format", "json",
                       "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["prime"] == P
        assert len(doc["results"]) == 2

    def test_sweep_options_override_the_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"cells": [[9, 3, 1, 2]], "trials": 2, "seed": 0}))
        out = tmp_path / "results.json"
        assert run_cli("sweep", "--spec", str(spec_path), "--format", "json",
                       "--seed", "7", "--prime", "65537", "--trials", "1",
                       "--suite", "converse", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["master_seed"] == 7
        assert doc["meta"]["prime"] == 65537
        assert doc["meta"]["trials"] == 1
        assert doc["meta"]["suite"] == "converse"
        assert [r["trials"] for r in doc["results"]] == [1]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "distcode.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gen-code" in proc.stdout and "sweep" in proc.stdout


def test_python_dash_m_distcode_runs():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "distcode", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "gen-code" in proc.stdout and "sweep" in proc.stdout
