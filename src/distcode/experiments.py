"""Experiment sweeps: empirical verification of the recovery threshold.

``run_achievability`` throws random equivocating adversaries at a code and
checks that decoding from t encoders recovers every honest message;
``run_converse`` constructs the worst-case two-setup attack and checks that
strict decoding one encoder short of the threshold is provably ambiguous.

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

from .codes import KINDS, _json_ints, draw_mds, threshold
from .decoding import DEFAULT_BUDGET, decode, verify_against_truth
from .errors import BadParameter, BudgetExceeded, DistcodeError, IoFailure
from .attacks import converse_attack, verify_attack
from .field import DEFAULT_PRIME, _is_integer, field_new
from .system import SystemConfig, behavior_random_adversarial, encode_transcript

CSV_COLUMNS = (
    "N",
    "K",
    "beta",
    "v",
    "kind",
    "t",
    "trials",
    "honest_correct",
    "ambiguous",
    "undetermined",
    "failures",
    "wall_ms",
)

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
        if self.t_mode not in ("default", "relative", "absolute"):
            raise BadParameter(f"unknown t_mode {self.t_mode!r}")
        if self.suite not in ("achievability", "converse", "both"):
            raise BadParameter(f"unknown suite {self.suite!r}")
        for name in ("trials", "workers", "budget"):
            if not _is_integer(getattr(self, name)) or getattr(self, name) < 1:
                raise BadParameter(f"{name} must be a positive integer")
        if not self.cells or not self.kinds:
            raise BadParameter("a spec needs at least one cell and one kind")
        if self.t_mode != "default" and not self.t_values:
            raise BadParameter(f"t_mode {self.t_mode!r} needs at least one t_value")
        for kind in self.kinds:
            if kind not in KINDS:
                raise BadParameter(f"unknown code kind {kind!r}")
        suites = ("achievability", "converse") if self.suite == "both" else (self.suite,)
        for cell in self.cells:
            if not isinstance(cell, (tuple, list)) or len(cell) != 4:
                raise BadParameter(f"a cell is four integers (N, K, beta, v), got {cell!r}")
            SystemConfig(*cell, p=self.prime)  # validates the grid cell
            for suite in suites:
                for t in self.ts_for(cell, suite):
                    if not 1 <= t <= cell[0]:
                        raise BadParameter(
                            f"cell {tuple(cell)}: {suite} t={t} is outside [1, N={cell[0]}]"
                        )

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
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:  # a misspelled key would otherwise run with its default
            raise BadParameter(f"unknown spec keys: {', '.join(map(repr, unknown))}")

        def one_int(key, default):
            return _json_ints([doc.get(key, default)], key)[0]

        kinds = doc.get("kinds", ["random"])
        if not isinstance(kinds, list):  # a bare string would split into letters
            raise BadParameter(f"kinds must be a list of code kinds, got {kinds!r}")
        timing = doc.get("timing", False)
        if type(timing) is not bool:
            raise BadParameter(f"timing must be true or false, got {timing!r}")
        return cls(
            cells=tuple(_json_ints(c, "cells") for c in doc["cells"]),
            kinds=tuple(kinds),
            t_mode=doc.get("t_mode", "default"),
            t_values=_json_ints(doc.get("t_values", []), "t_values"),
            trials=one_int("trials", 100),
            seed=one_int("seed", 0),
            prime=one_int("prime", DEFAULT_PRIME),
            budget=one_int("budget", DEFAULT_BUDGET),
            suite=doc.get("suite", "both"),
            timing=timing,
            workers=one_int("workers", 1),
        )


def default_spec(trials: int = 8, seed: int = 0) -> ExperimentSpec:
    """Desk-scale default grid; every cell keeps N two above the threshold."""
    cells = []
    for K, beta, v in ((3, 1, 2), (4, 1, 2), (3, 1, 3), (4, 2, 2)):
        t_star = K + 2 * beta * (v - 1)
        cells.append((t_star + 2, K, beta, v))
    return ExperimentSpec(cells=tuple(cells), trials=trials, seed=seed)


@dataclass
class CellResult:
    """Aggregated outcomes for one (cell, kind, t) combination.

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
        return {c: getattr(self, c) for c in CSV_COLUMNS}


def _cell_tasks(spec: ExperimentSpec, suite: str):
    for cell in spec.cells:
        for kind in spec.kinds:
            for t in spec.ts_for(cell, suite):
                yield (suite, spec, cell, kind, t)


def _run_cell(task) -> CellResult:
    suite, spec, cell, kind, t = task
    runner = _achievability_cell if suite == "achievability" else _converse_cell
    start = time.perf_counter()
    result = runner(spec, cell, kind, t)
    if spec.timing:
        result.wall_ms = int((time.perf_counter() - start) * 1000)
    return result


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


def _achievability_cell(spec, cell, kind, t) -> CellResult:
    N, K, beta, v = cell
    cfg = SystemConfig(N, K, beta, v, p=spec.prime)
    ctx = field_new(spec.prime)
    cell_seed = derive_seed(spec.seed, "ach", N, K, beta, v, kind, t)
    gm = draw_mds(ctx, kind, N, K, seed=cell_seed)
    res = CellResult(N, K, beta, v, kind, t, spec.trials)
    for trial in range(spec.trials):
        rng = random.Random(derive_seed(cell_seed, "trial", trial))
        adversaries = tuple(sorted(rng.sample(range(K), beta)))
        honest = [rng.randrange(spec.prime) for _ in range(K)]
        behavior = behavior_random_adversarial(
            cfg, honest, adversaries, seed=rng.randrange(1 << 63)
        )
        nodes = tuple(sorted(rng.sample(range(N), t)))
        transcript = encode_transcript(gm, behavior, nodes)
        mode = "strict" if trial % 10 == 0 else "fast"
        try:
            out = decode(gm, nodes, transcript, cfg, mode=mode, budget=spec.budget)
        except BudgetExceeded:
            res.failures += spec.trials - trial
            break
        _classify(res, out, behavior)
    return res


def _converse_cell(spec, cell, kind, t) -> CellResult:
    N, K, beta, v = cell
    cfg = SystemConfig(N, K, beta, v, p=spec.prime)
    ctx = field_new(spec.prime)
    cell_seed = derive_seed(spec.seed, "con", N, K, beta, v, kind, t)
    gm = draw_mds(ctx, kind, N, K, seed=cell_seed)
    res = CellResult(N, K, beta, v, kind, t, spec.trials)
    for trial in range(spec.trials):
        try:
            attack = converse_attack(gm, cfg, seed=derive_seed(cell_seed, "atk", trial))
            if not verify_attack(gm, attack):
                res.failures += 1
                continue
        except DistcodeError:
            res.failures += 1
            continue
        base = attack.node_set
        if t <= len(base):
            nodes = base[:t]
        else:
            extra = [n for n in range(N) if n not in base][: t - len(base)]
            nodes = base + tuple(extra)
        transcript = encode_transcript(gm, attack.setup1, nodes)
        try:
            out = decode(gm, nodes, transcript, cfg, mode="strict", budget=spec.budget)
        except BudgetExceeded:
            res.failures += spec.trials - trial
            break
        _classify(res, out, attack.setup1)
    return res


def _run_suite(spec: ExperimentSpec, suite: str) -> list[CellResult]:
    tasks = list(_cell_tasks(spec, suite))
    # A fork-started pool forks all of its workers at the first submit.
    workers = min(spec.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, tasks))  # grid order preserved
    return [_run_cell(t) for t in tasks]


def run_achievability(spec: ExperimentSpec) -> list[CellResult]:
    """Random-adversary trials; see the module docstring for classification."""
    return _run_suite(spec, "achievability")


def run_converse(spec: ExperimentSpec) -> list[CellResult]:
    """Constructed attacks plus strict decoding at the evaluation size."""
    return _run_suite(spec, "converse")


def run_experiments(spec: ExperimentSpec) -> list[CellResult]:
    results: list[CellResult] = []
    if spec.suite in ("achievability", "both"):
        results.extend(run_achievability(spec))
    if spec.suite in ("converse", "both"):
        results.extend(run_converse(spec))
    return results


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
                for r in results:
                    writer.writerow(r.to_row())
        else:
            doc = {"meta": meta or {}, "results": [r.to_row() for r in results]}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write results to {path}: {exc}") from exc
