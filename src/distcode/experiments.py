"""Experiment sweeps: empirical verification of the recovery threshold.

``run_achievability`` throws random equivocating adversaries at a code and
checks that decoding from t encoders recovers every honest message;
``run_converse`` constructs the worst-case two-setup attack and checks that
strict decoding one encoder short of the threshold is provably ambiguous.
Both run one loop per (cell, kind, t): it draws the cell's code once, then
takes each trial's behavior, encoders and decode mode from the suite's
input function, encodes, decodes and buckets the result.

Determinism: the master seed is stretched with a counter-hashing scheme
(sha256 over ':'-joined labels, first 8 bytes big-endian), so identical
specs produce byte-identical result files.  Wall-clock timing is therefore
opt-in; with ``timing`` off the wall_ms column is reported as 0.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

from .codes import KINDS, _json_keys, draw_mds, threshold
from .decoding import DEFAULT_BUDGET, decode, verify_against_truth
from .errors import BadParameter, BudgetExceeded, DistcodeError, IoFailure
from .attacks import converse_attack, verify_attack
from .field import DEFAULT_PRIME, _as_ints, _is_integer, field_new
from .system import SystemConfig, behavior_random_adversarial, encode_transcript

SEED_PROTOCOL = "sha256(':'.join(parts)) first 8 bytes, big-endian"


def derive_seed(*parts) -> int:
    """Stretch a master seed into independent per-task seeds."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep description: grid cells, code kinds (from ``codes.KINDS``),
    evaluation sizes, trials.

    ``t_mode`` is ``"default"`` (achievability at t*, converse at t*-1),
    ``"relative"`` (offsets added to t*), or ``"absolute"``.

    ``workers`` caps the worker processes of each suite, which runs at most
    ``min(workers, its task count, os.cpu_count())`` of them, and none if
    that is 1.  Rows are per task and in grid order either way.

    The constructor checks every field, so a spec built in code refuses
    what a spec file refuses; ``cells``, ``kinds`` and ``t_values`` may be
    lists and are stored as tuples.
    """

    cells: tuple[tuple[int, int, int, int], ...]  # (N, K, beta, v)
    kinds: tuple[str, ...] = ("random",)
    t_mode: str = "default"
    t_values: tuple[int, ...] = ()
    trials: int = 100
    seed: int = 0
    prime: int = DEFAULT_PRIME
    budget: int = DEFAULT_BUDGET
    suite: str = "both"
    timing: bool = False
    workers: int = 1

    def __post_init__(self):
        for name in ("cells", "kinds", "t_values"):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)):  # a string would split into letters
                raise BadParameter(f"{name} must be a list, got {value!r}")
        for cell in self.cells:
            if not isinstance(cell, (tuple, list)) or len(cell) != 4:
                raise BadParameter(f"a cell is four integers (N, K, beta, v), got {cell!r}")
        object.__setattr__(self, "cells", tuple(_as_ints(c, "cells") for c in self.cells))
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "t_values", _as_ints(self.t_values, "t_values"))
        if self.t_mode not in ("default", "relative", "absolute"):
            raise BadParameter(f"unknown t_mode {self.t_mode!r}")
        if self.suite not in ("achievability", "converse", "both"):
            raise BadParameter(f"unknown suite {self.suite!r}")
        for name in ("trials", "workers", "budget"):
            if not _is_integer(getattr(self, name)) or getattr(self, name) < 1:
                raise BadParameter(f"{name} must be a positive integer")
        if not _is_integer(self.seed):
            raise BadParameter(f"seed must be an integer, got {self.seed!r}")
        if type(self.timing) is not bool:  # "no" would turn timing on
            raise BadParameter(f"timing must be true or false, got {self.timing!r}")
        if not self.cells or not self.kinds:
            raise BadParameter("a spec needs at least one cell and one kind")
        if self.t_mode != "default" and not self.t_values:
            raise BadParameter(f"t_mode {self.t_mode!r} needs at least one t_value")
        for kind in self.kinds:
            if kind not in KINDS:
                raise BadParameter(f"unknown code kind {kind!r}")
        field_new(self.prime)
        for cell in self.cells:
            SystemConfig(*cell, p=self.prime)  # validates the grid cell
            for suite in self.suites:
                for t in self.ts_for(cell, suite):
                    if not 1 <= t <= cell[0]:
                        raise BadParameter(
                            f"cell {cell}: {suite} t={t} is outside [1, N={cell[0]}]"
                        )

    @property
    def suites(self) -> tuple[str, ...]:
        return ("achievability", "converse") if self.suite == "both" else (self.suite,)

    def ts_for(self, cell, suite: str) -> tuple[int, ...]:
        N, K, beta, v = cell
        t_star = threshold(N, K, beta, v)
        if self.t_mode == "absolute":
            return self.t_values
        if self.t_mode == "relative":
            return tuple(t_star + d for d in self.t_values)
        return (t_star,) if suite == "achievability" else (t_star - 1,)

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["cells"] = [list(c) for c in self.cells]
        doc["kinds"] = list(self.kinds)
        doc["t_values"] = list(self.t_values)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentSpec":
        _json_keys(doc, [f.name for f in fields(cls)], "spec", ("cells",))
        return cls(**doc)


def default_spec(trials: int = 8, seed: int = 0) -> ExperimentSpec:
    """Desk-scale default grid; every cell keeps N two above the threshold."""
    cells = []
    for K, beta, v in ((3, 1, 2), (4, 1, 2), (3, 1, 3), (4, 2, 2)):
        t_star = K + 2 * beta * (v - 1)
        cells.append((t_star + 2, K, beta, v))
    return ExperimentSpec(cells=tuple(cells), trials=trials, seed=seed)


@dataclass
class CellResult:
    """Aggregated outcomes for one (cell, kind, t) combination.  The field
    order is the column order of the result files.

    Every trial lands in exactly one bucket, so honest_correct + ambiguous +
    undetermined + failures == trials.  Both suites bucket a decoded trial
    the same way (``_classify``): a wrong honest estimate is a failure.
    """

    N: int
    K: int
    beta: int
    v: int
    kind: str
    t: int
    trials: int
    honest_correct: int = 0
    ambiguous: int = 0
    undetermined: int = 0
    failures: int = 0
    wall_ms: int = 0

    def to_row(self) -> dict:
        return asdict(self)


CSV_COLUMNS = tuple(f.name for f in fields(CellResult))


def _random_trial(cfg, gm, cell_seed, trial, t):
    """A random equivocating adversary seen by t random encoders; every
    tenth trial decodes in strict mode."""
    rng = random.Random(derive_seed(cell_seed, "trial", trial))
    adversaries = tuple(sorted(rng.sample(range(cfg.K), cfg.beta)))
    honest = [rng.randrange(cfg.p) for _ in range(cfg.K)]
    behavior = behavior_random_adversarial(cfg, honest, adversaries, rng.randrange(1 << 63))
    nodes = tuple(sorted(rng.sample(range(cfg.N), t)))
    return behavior, nodes, "strict" if trial % 10 == 0 else "fast"


def _attack_trial(cfg, gm, cell_seed, trial, t):
    """The converse attack's first setup, seen by the attacked encoders and
    then the others in order, cut to t, and decoded in strict mode.  None
    if the attack cannot be built or fails its check."""
    try:
        attack = converse_attack(gm, cfg, seed=derive_seed(cell_seed, "atk", trial))
        if not verify_attack(gm, attack):
            return None
    except DistcodeError:
        return None
    others = tuple(n for n in range(cfg.N) if n not in attack.node_set)
    return attack.setup1, (attack.node_set + others)[:t], "strict"


# Per suite: the label of its cell seeds and the input of each trial.
_SUITES = {"achievability": ("ach", _random_trial), "converse": ("con", _attack_trial)}


def _run_cell(task) -> CellResult:
    """Draw the cell's code once, then encode, decode and bucket each
    trial's input.  A trial without input is a failure; a decode over the
    budget makes it and every later trial a failure."""
    suite, spec, (N, K, beta, v), kind, t = task
    start = time.perf_counter()
    label, trial_input = _SUITES[suite]
    cfg = SystemConfig(N, K, beta, v, p=spec.prime)
    cell_seed = derive_seed(spec.seed, label, N, K, beta, v, kind, t)
    gm = draw_mds(field_new(spec.prime), kind, N, K, seed=cell_seed)
    res = CellResult(N, K, beta, v, kind, t, spec.trials)
    for trial in range(spec.trials):
        drawn = trial_input(cfg, gm, cell_seed, trial, t)
        if drawn is None:
            res.failures += 1
            continue
        behavior, nodes, mode = drawn
        transcript = encode_transcript(gm, behavior, nodes)
        try:
            out = decode(gm, nodes, transcript, cfg, mode=mode, budget=spec.budget)
        except BudgetExceeded:
            res.failures += spec.trials - trial
            break
        _classify(res, out, behavior)
    if spec.timing:
        res.wall_ms = int((time.perf_counter() - start) * 1000)
    return res


def _classify(res: CellResult, out, behavior) -> None:
    """Count one decoded trial in its bucket: ambiguous if strict decoding
    found an honest coordinate ambiguous, else a failure if an honest
    estimate is wrong, undetermined if one is missing, else honest_correct.
    Fast results carry no ambiguous coordinates."""
    statuses = {s for _, s in verify_against_truth(out, behavior).statuses}
    if not out.ambiguous_coordinates.isdisjoint(behavior.honest_sources):
        res.ambiguous += 1
    elif "wrong" in statuses:
        res.failures += 1
    elif "missing" in statuses:
        res.undetermined += 1
    else:
        res.honest_correct += 1


def _run_suite(spec: ExperimentSpec, suite: str) -> list[CellResult]:
    tasks = [(suite, spec, cell, kind, t) for cell in spec.cells for kind in spec.kinds
             for t in spec.ts_for(cell, suite)]
    # A fork-started pool forks all of its workers at the first submit.
    workers = min(spec.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, tasks))  # grid order preserved
    return [_run_cell(t) for t in tasks]


def run_achievability(spec: ExperimentSpec) -> list[CellResult]:
    """Random-adversary trials at each achievability t."""
    return _run_suite(spec, "achievability")


def run_converse(spec: ExperimentSpec) -> list[CellResult]:
    """Constructed attacks plus strict decoding at each converse t."""
    return _run_suite(spec, "converse")


def run_experiments(spec: ExperimentSpec) -> list[CellResult]:
    """Every suite the spec names, achievability first."""
    return [r for suite in spec.suites for r in _run_suite(spec, suite)]


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


def emit_results(results, fmt: str, path, meta: dict | None = None) -> None:
    """Write results as CSV (header plus one row per cell, grid order) or
    JSON (``{"meta": ..., "results": [...]}``).  Output bytes depend only on
    the results and meta passed in.

    Raises:
        IoFailure: the file could not be written.
    """
    if fmt not in ("csv", "json"):
        raise BadParameter(f"unknown format {fmt!r}")
    try:
        if fmt == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
                writer.writeheader()
                writer.writerows(r.to_row() for r in results)
        else:
            doc = {"meta": meta or {}, "results": [r.to_row() for r in results]}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write results to {path}: {exc}") from exc
