"""distcode: a desk-scale laboratory for distributed encoding over GF(p).

K isolated sources each send one field symbol to N encoding nodes; up to
beta sources may equivocate with at most v distinct values each.  The
package provides exact prime-field linear algebra, three generator families,
an exhaustive feasibility decoder, a constructive worst-case attack, and
reproducible experiment sweeps that locate the recovery threshold
min(N, K + 2*beta*(v-1)) empirically.
"""

from .errors import (
    AttackConstructionFailed,
    BadDimensions,
    BadParameter,
    BudgetExceeded,
    DimensionMismatch,
    DistcodeError,
    DuplicatePoints,
    IoFailure,
    ModulusTooSmall,
    NodeOutOfRange,
    NonPrimeModulus,
    PreconditionViolated,
    SelectionImpossible,
    TooManyAdversaries,
    TranscriptMismatch,
)
from .field import (
    DEFAULT_PRIME,
    FieldContext,
    FieldMatrix,
    SolveOutcome,
    field_new,
    is_prime,
    rank,
    solve,
)
from .codes import (
    GeneratorMatrix,
    draw_mds,
    gen_random_linear,
    gen_reed_solomon,
    gen_systematic,
    is_mds,
    iter_converse_selections,
    threshold,
)
from .system import (
    SourceBehavior,
    SystemConfig,
    Transcript,
    behavior_honest,
    behavior_random_adversarial,
    encode_transcript,
)
from .decoding import (
    DEFAULT_BUDGET,
    DecodeResult,
    PresumedScenario,
    ScenarioSolution,
    TruthReport,
    decode,
    enumerate_partitions,
    verify_against_truth,
)
from .attacks import (
    AttackInstance,
    DifferenceBasis,
    converse_attack,
    diff_basis,
    partition_full_rank,
    verify_attack,
)
from .experiments import (
    CellResult,
    ExperimentSpec,
    default_spec,
    derive_seed,
    emit_results,
    run_achievability,
    run_converse,
    run_experiments,
)

__version__ = "0.1.0"
