"""Span tracing of distcode's layers, applied from outside the package.

``Tracer`` replaces each public function of the layer modules with a wrapper,
in every ``distcode`` namespace that binds it.  Callers look names up in their
own module globals (``distcode.decoding.batch_feasible``,
``distcode.attacks.rank``), so each binding is patched, and the originals are
restored on exit.  Every call records a span: name, start, end, parent span
and trial id.  A generator gets one span per resume, so only the consumption
of its items is timed, not its creation.  Spans stay in flat arrays in memory
and are written out once, when the run ends.

A function that a later change renames or inlines is simply not wrapped; the
metrics that need it are reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "distcode"
LAYERS = ("field", "codes", "system", "decoding", "attacks")
GENERATORS = ("codes.gen_random_linear", "codes.gen_systematic", "codes.gen_reed_solomon")


def _batch_feasible_hook(counts, args, kwargs, result, exc):
    aug = args[0] if args else kwargs["aug"]
    nvars = args[2] if len(args) > 2 else kwargs["nvars"]
    counts["field.batch_feasible.systems"] += int(aug.shape[0])
    # A model, not a measurement: one pass over the stack per eliminated column.
    counts["field.batch_feasible.bytes_computed"] += int(aug.nbytes) * int(nvars)


def _decode_hook(counts, args, kwargs, result, exc):
    if exc is None:
        counts["decoding.scenarios"] += int(result.scenarios_examined)
        counts["decoding.feasible"] += int(result.feasible_count)


def _attack_hook(counts, args, kwargs, result, exc):
    counts["attacks.failed"] += exc is not None or result is False


# Exact counters read from a call's arguments or result: span name ->
# (hook, the counters it adds to).  A hook that raises (say, after a signature
# change) drops its counters, so their metrics are reported as absent.
HOOKS = {
    "field.batch_feasible": (
        _batch_feasible_hook,
        ("field.batch_feasible.systems", "field.batch_feasible.bytes_computed"),
    ),
    "decoding.decode": (_decode_hook, ("decoding.scenarios", "decoding.feasible")),
    "attacks.converse_attack": (_attack_hook, ("attacks.failed",)),
    "attacks.verify_attack": (_attack_hook, ("attacks.failed",)),
}


class Tracer:
    """Records spans of calls into distcode's layers while installed.

    Use as a context manager, entered as often as needed; spans and counts
    accumulate.  ``trial_id`` is stamped on every span opened while it is
    set; ``-1`` marks set-up work.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.trial = array("q")
        self.outer = array("b")  # 1 when no enclosing open span has the same name
        self.counts: dict[str, int] = {}
        self.hook_errors: dict[str, str] = {}
        self.trial_id = -1
        self._ids: dict[str, int] = {}
        self._open: list[int] = []  # open spans per name id
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self.trial_id)
        self.outer.append(self._open[nid] == 0)
        self.end.append(math.nan)
        self._open[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self.name[idx]] -= 1

    def _hook(self, span: str, args, kwargs, result, exc) -> None:
        hook, keys = HOOKS[span]
        try:
            hook(self.counts, args, kwargs, result, exc)
        except Exception as err:  # a changed signature must not stop the run
            self.hook_errors.setdefault(span, f"{type(err).__name__}: {err}")
            for key in keys:
                self.counts.pop(key, None)

    def _wrap(self, fn, span: str):
        nid = self.name_id(span)
        hooked = span in HOOKS
        if hooked and span not in self.hook_errors:
            for key in HOOKS[span][1]:
                self.counts.setdefault(key, 0)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = self.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx)
                if hooked:
                    self._hook(span, args, kwargs, None, exc)
                raise
            self.close(idx)
            if hooked:
                self._hook(span, args, kwargs, result, None)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{obj.__name__}"))
        for key, mod in list(sys.modules.items()):
            if key != PACKAGE and not key.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "trial": np.array(self.trial, dtype=np.int64),
            "outer": np.array(self.outer, dtype=bool),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest properly (one thread), so children never overlap and their
    summed durations are the part of the parent's interval they cover.
    """
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def has_ancestor(parent, name, target: int) -> np.ndarray:
    """For each span, whether an enclosing span has name id ``target``."""
    found = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        found[live] |= name[anc[live]] == target
        anc[live] = parent[anc[live]]
        live = anc >= 0
    return found


def layer_metrics(tracer: Tracer, overhead_ratio: float):
    """Per-layer metrics from a finished trace.

    Returns ``(metrics, absent)``.  ``metrics`` maps a metric name to
    ``(value, unit)``; counts are exact integers.  ``absent`` lists the
    metrics whose function was not found or whose counter hook failed.
    A layer that was wrapped but never called reads 0.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    size = len(tracer.names)
    calls = np.bincount(a["name"], minlength=size)
    busy = np.bincount(a["name"], weights=np.where(a["outer"], dur, 0.0), minlength=size)
    own = np.bincount(
        a["name"], weights=self_times(a["start"], a["end"], a["parent"]), minlength=size
    )
    ids = tracer._ids
    c = tracer.counts

    def n_calls(span):
        return int(calls[ids[span]])

    def busy_s(span):
        return float(busy[ids[span]])

    def self_s(span):
        return float(own[ids[span]])

    def under(span, ancestor):
        mask = a["name"] == ids[span]
        return int((mask & has_ancestor(a["parent"], a["name"], ids[ancestor])).sum())

    def ratio(num, den):
        return num / den if den else 0.0

    fb, dm, dd, ca = "field.batch_feasible", "codes.draw_mds", "decoding.decode", "attacks.converse_attack"
    table = [
        (f"{fb}.calls", "count", lambda: n_calls(fb)),
        (f"{fb}.systems", "count", lambda: c[f"{fb}.systems"]),
        (f"{fb}.busy_s", "s", lambda: busy_s(fb)),
        (f"{fb}.systems_per_s", "1/s", lambda: ratio(c[f"{fb}.systems"], busy_s(fb))),
        (f"{fb}.bytes_computed", "bytes", lambda: c[f"{fb}.bytes_computed"]),
    ]
    for span in ("field.solve", "field.rank", "field.all_square_submatrices_nonsingular"):
        table.append((f"{span}.calls", "count", lambda s=span: n_calls(s)))
        table.append((f"{span}.busy_s", "s", lambda s=span: busy_s(s)))
    table += [
        (f"{dm}.calls", "count", lambda: n_calls(dm)),
        (f"{dm}.busy_s", "s", lambda: busy_s(dm)),
        (f"{dm}.draws", "count", lambda: sum(under(g, dm) for g in GENERATORS)),
    ]
    for span in ("codes.is_mds", "system.encode_transcript", "system.behavior_random_adversarial"):
        table.append((f"{span}.busy_s", "s", lambda s=span: busy_s(s)))
    table += [
        (f"{dd}.calls", "count", lambda: n_calls(dd)),
        (f"{dd}.busy_s", "s", lambda: busy_s(dd)),
        (f"{dd}.self_s", "s", lambda: self_s(dd)),
        (
            "decoding.enumerate_partitions.busy_s",
            "s",
            lambda: busy_s("decoding.enumerate_partitions"),
        ),
        ("decoding.scenarios", "count", lambda: c["decoding.scenarios"]),
        ("decoding.feasible", "count", lambda: c["decoding.feasible"]),
        (
            "decoding.feasible_ratio",
            "ratio",
            lambda: ratio(c["decoding.feasible"], c["decoding.scenarios"]),
        ),
        ("decoding.resolves", "count", lambda: under("field.solve", dd)),
        (f"{ca}.calls", "count", lambda: n_calls(ca)),
        (f"{ca}.busy_s", "s", lambda: busy_s(ca)),
        (f"{ca}.self_s", "s", lambda: self_s(ca)),
        ("attacks.verify_attack.busy_s", "s", lambda: busy_s("attacks.verify_attack")),
        ("attacks.failed", "count", lambda: c["attacks.failed"]),
    ]

    metrics: dict[str, tuple[float | int, str]] = {}
    absent: list[str] = []
    for metric, unit, value in table:
        try:
            metrics[metric] = (value(), unit)
        except KeyError:  # a span name or counter that this trace lacks
            absent.append(metric)
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics, absent
