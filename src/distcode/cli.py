"""Command-line driver.

Subcommands:
  gen-code  build a generator matrix and write it as JSON
  attack    construct a two-setup attack against a stored code
  decode    run the feasibility decoder on a stored transcript
  sweep     run an experiment sweep and emit CSV/JSON results

Bad input (an unreadable or malformed file, invalid parameters) exits with
status 1 and one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

from . import experiments
from .attacks import converse_attack, verify_attack
from .codes import KINDS, GeneratorMatrix, draw_mds
from .decoding import DEFAULT_BUDGET, decode
from .errors import BadParameter, DistcodeError, IoFailure
from .field import DEFAULT_PRIME, field_new
from .system import SystemConfig, Transcript


def _read_json(path: str, parse):
    """Apply ``parse`` to the JSON object at ``path``.  A file that cannot be
    read or parsed, or whose document is not an object, raises
    :class:`IoFailure` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise IoFailure(f"cannot read {path}: expected a JSON object, got "
                            f"{type(doc).__name__}")
        return parse(doc)
    except (OSError, ValueError) as exc:
        raise IoFailure(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def _write_json(doc, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out is None or out == "-":
        print(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {out}: {exc}") from exc


def _cmd_gen_code(args) -> int:
    ctx = field_new(args.prime)
    points = None
    if args.points:
        try:
            points = [int(x) for x in args.points.split(",")]
        except ValueError:
            raise BadParameter(
                f"--points must be comma-separated integers, got {args.points!r}"
            ) from None
    gm = draw_mds(ctx, args.kind, args.n, args.k, seed=args.seed, points=points)
    _write_json(gm.to_json(), args.out)
    return 0


def _cmd_attack(args) -> int:
    gm = _read_json(args.code, GeneratorMatrix.from_json)
    cfg = SystemConfig(gm.N, gm.K, args.beta, args.v, p=gm.ctx.p)
    attack = converse_attack(gm, cfg, seed=args.seed)
    if not verify_attack(gm, attack):
        print("attack failed verification", file=sys.stderr)
        return 1
    _write_json(attack.to_json(), args.out)
    return 0


def _cmd_decode(args) -> int:
    gm = _read_json(args.code, GeneratorMatrix.from_json)
    cfg = SystemConfig(gm.N, gm.K, args.beta, args.v, p=gm.ctx.p)
    transcript = _read_json(args.transcript, Transcript.from_json)
    result = decode(
        gm, transcript.node_set, transcript, cfg, mode=args.mode, budget=args.budget
    )
    _write_json(result.to_json(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.spec:
        spec = _read_json(args.spec, experiments.ExperimentSpec.from_json)
    else:
        spec = experiments.default_spec()
    overrides = {
        key: getattr(args, key)
        for key in ("seed", "prime", "budget", "trials", "suite", "workers")
        if getattr(args, key) is not None
    }
    if args.timing:
        overrides["timing"] = True
    spec = replace(spec, **overrides)
    results = experiments.run_experiments(spec)
    meta = {
        "master_seed": spec.seed,
        "prime": spec.prime,
        "suite": spec.suite,
        "trials": spec.trials,
        "seed_protocol": experiments.SEED_PROTOCOL,
    }
    experiments.emit_results(results, args.format, args.out, meta=meta)
    print(f"wrote {len(results)} result rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distcode",
        description="Distributed-encoding laboratory over GF(p): codes, "
        "feasibility decoding, worst-case equivocation attacks.",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress warnings")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-code", help="generate a code and store it as JSON")
    g.add_argument("--kind", choices=KINDS, required=True)
    g.add_argument("--n", type=int, required=True, help="number of encoding nodes")
    g.add_argument("--k", type=int, required=True, help="number of source nodes")
    g.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--points", help="comma-separated evaluation points (reed_solomon)")
    g.add_argument("--out", help="output path (default: stdout)")
    g.set_defaults(func=_cmd_gen_code)

    a = sub.add_parser("attack", help="construct a two-setup attack on a stored code")
    a.add_argument("--code", required=True, help="generator matrix JSON")
    a.add_argument("--beta", type=int, required=True)
    a.add_argument("--v", type=int, required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", help="output path (default: stdout)")
    a.set_defaults(func=_cmd_attack)

    d = sub.add_parser("decode", help="run the feasibility decoder on a transcript")
    d.add_argument("--code", required=True, help="generator matrix JSON")
    d.add_argument("--transcript", required=True, help="transcript JSON")
    d.add_argument("--beta", type=int, required=True)
    d.add_argument("--v", type=int, required=True)
    d.add_argument("--mode", choices=("fast", "strict"), default="fast")
    d.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    d.add_argument("--out", help="output path (default: stdout)")
    d.set_defaults(func=_cmd_decode)

    s = sub.add_parser("sweep", help="run an experiment sweep")
    s.add_argument("--spec", help="sweep spec JSON (default: built-in desk-scale grid)")
    s.add_argument("--suite", choices=("achievability", "converse", "both"))
    s.add_argument("--out", default="results.csv")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--seed", type=int)
    s.add_argument("--prime", type=int)
    s.add_argument("--budget", type=int)
    s.add_argument("--trials", type=int)
    s.add_argument("--workers", type=int)
    s.add_argument("--timing", action="store_true", help="record wall-clock times")
    s.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.ERROR if args.quiet else logging.WARNING)
    try:
        return args.func(args)
    except DistcodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
