"""The (N, K, beta, v) distributed encoding system model.

K source nodes each send one symbol to every one of N encoding nodes.  An
honest source sends the same symbol everywhere; an adversarial source may
send up to v distinct values, choosing freely which encoder sees which.
Encoder n stores the linear combination of what it received, row n of the
generator matrix providing the coefficients.

:class:`SourceBehavior` records the full K x N grid of sent symbols together
with the adversary set, so it doubles as ground truth for verification.  The
decoder never reads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .codes import GeneratorMatrix, _json_ints, _json_keys, threshold
from .errors import (
    BadDimensions,
    BadParameter,
    NodeOutOfRange,
    NonPrimeModulus,
    TooManyAdversaries,
)
from .field import DEFAULT_PRIME, _as_ints, _is_integer, is_prime


@dataclass(frozen=True)
class SystemConfig:
    """Model parameters.  ``h`` is the honest-node count, ``t_star`` the
    recovery threshold min(N, K + 2*beta*(v-1))."""

    N: int
    K: int
    beta: int
    v: int
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        for name in ("N", "K", "beta", "v"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise BadDimensions(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.beta < self.K <= self.N:
            raise BadDimensions(
                f"need 1 <= beta < K <= N, got beta={self.beta}, K={self.K}, N={self.N}"
            )
        if self.v < 1:
            raise BadDimensions(f"need v >= 1, got v={self.v}")
        if not is_prime(self.p):
            raise NonPrimeModulus(f"p={self.p} is not prime")

    @property
    def h(self) -> int:
        return self.K - self.beta

    @property
    def t_star(self) -> int:
        return threshold(self.N, self.K, self.beta, self.v)


@dataclass(frozen=True)
class SourceBehavior:
    """What every source sent to every encoder.

    ``rows[k][n]`` is the symbol source k sent to encoder n.  Rows of sources
    outside ``adversary_set`` must be constant; adversarial rows may carry at
    most ``cfg.v`` distinct values.
    """

    cfg: SystemConfig
    rows: tuple[tuple[int, ...], ...]
    adversary_set: frozenset[int]

    def __post_init__(self):
        adversaries = _as_ints(self.adversary_set, "adversary_set")
        object.__setattr__(self, "adversary_set", frozenset(adversaries))
        rows = (_as_ints(r, "source rows") for r in self.rows)
        object.__setattr__(self, "rows", tuple(tuple(x % self.cfg.p for x in r) for r in rows))
        cfg = self.cfg
        if len(self.adversary_set) > cfg.beta:
            raise TooManyAdversaries(
                f"{len(self.adversary_set)} adversaries exceed beta={cfg.beta}"
            )
        if any(not 0 <= k < cfg.K for k in self.adversary_set):
            raise BadParameter("adversary indices must lie in [0, K)")
        if len(self.rows) != cfg.K:
            raise BadDimensions(f"need {cfg.K} source rows, got {len(self.rows)}")
        for k, row in enumerate(self.rows):
            if len(row) != cfg.N:
                raise BadDimensions(f"source {k} row has length {len(row)}, need {cfg.N}")
            distinct = len(set(row))
            if k in self.adversary_set:
                if distinct > cfg.v:
                    raise BadParameter(
                        f"adversarial source {k} uses {distinct} values, cap is {cfg.v}"
                    )
            elif distinct != 1:
                raise BadParameter(f"honest source {k} must send one constant value")

    @property
    def honest_sources(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.cfg.K) if k not in self.adversary_set)

    def honest_message(self, k: int) -> int:
        if k in self.adversary_set:
            raise BadParameter(f"source {k} is adversarial")
        return self.rows[k][0]

    def to_json(self) -> dict:
        return {
            "adversary_set": sorted(self.adversary_set),
            "rows": [list(r) for r in self.rows],
        }

    @classmethod
    def from_json(cls, cfg: SystemConfig, doc: dict) -> "SourceBehavior":
        _json_keys(doc, ("adversary_set", "rows"), "behavior", ("adversary_set", "rows"))
        return cls(
            cfg,
            tuple(_json_ints(r, "rows") for r in doc["rows"]),
            frozenset(_json_ints(doc["adversary_set"], "adversary_set")),
        )


@dataclass(frozen=True)
class Transcript:
    """Coded symbols observed on an ordered encoder subset."""

    node_set: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        _as_ints(self.node_set, "node_set")
        _as_ints(self.values, "values")
        if len(self.node_set) != len(self.values):
            raise BadDimensions("one value per node required")
        if len(set(self.node_set)) != len(self.node_set):
            raise BadParameter("node indices must be distinct")

    def to_json(self) -> dict:
        return {"node_set": list(self.node_set), "values": list(self.values)}

    @classmethod
    def from_json(cls, doc: dict) -> "Transcript":
        _json_keys(doc, ("node_set", "values"), "transcript", ("node_set", "values"))
        return cls(
            _json_ints(doc["node_set"], "node_set"), _json_ints(doc["values"], "values")
        )


def behavior_honest(cfg: SystemConfig, messages) -> SourceBehavior:
    """All sources honest: source k sends ``messages[k]`` everywhere."""
    if len(messages) != cfg.K:
        raise BadDimensions(f"need {cfg.K} messages, got {len(messages)}")
    rows = tuple((m,) * cfg.N for m in messages)
    return SourceBehavior(cfg, rows, frozenset())


def behavior_random_adversarial(
    cfg: SystemConfig, honest_messages, adversary_set, seed: int
) -> SourceBehavior:
    """Random baseline adversary.

    Each adversarial source draws v candidate values uniformly (collisions
    allowed, so it may effectively use fewer) and assigns a uniformly random
    candidate to every encoder slot.  Honest rows are constant.  Deterministic
    given ``seed``.
    """
    adversary_set = frozenset(adversary_set)
    if len(adversary_set) > cfg.beta:
        raise TooManyAdversaries(
            f"{len(adversary_set)} adversaries exceed beta={cfg.beta}"
        )
    if len(honest_messages) != cfg.K:
        raise BadDimensions(f"need {cfg.K} messages, got {len(honest_messages)}")
    rng = random.Random(seed)
    rows = []
    for k in range(cfg.K):
        if k in adversary_set:
            values = [rng.randrange(cfg.p) for _ in range(cfg.v)]
            rows.append(tuple(values[rng.randrange(cfg.v)] for _ in range(cfg.N)))
        else:
            rows.append((honest_messages[k],) * cfg.N)
    return SourceBehavior(cfg, tuple(rows), adversary_set)


def encode_transcript(gm: GeneratorMatrix, behavior: SourceBehavior, nodes) -> Transcript:
    """Encode: value at node n is sum_k G[n,k] * rows[k][n] over GF(p).

    Raises:
        BadParameter: a node index is not an integer.
        NodeOutOfRange: a node index is repeated or outside [0, N).
    """
    nodes = _as_ints(nodes, "nodes")
    if len(set(nodes)) != len(nodes) or any(not 0 <= n < gm.N for n in nodes):
        raise NodeOutOfRange(f"bad node subset {nodes} for N={gm.N}")
    if gm.N != behavior.cfg.N or gm.K != behavior.cfg.K or gm.ctx.p != behavior.cfg.p:
        raise BadDimensions("generator and behavior disagree on system shape")
    p, cols = gm.ctx.p, list(nodes)
    sent = np.array(behavior.rows, dtype=gm.ctx.dtype)[:, cols]
    values = (gm.matrix._a[cols].T * sent % p).sum(axis=0) % p
    return Transcript(nodes, tuple(values.tolist()))
