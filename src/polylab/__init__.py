"""polylab: sparkling saddle connections, their invariants, and certified
Liouville-type constructions at arbitrary precision.

The library follows one pipeline: a perturbed power map generates a
sequence of connection parameters (connections), which in double-log
scale is an exponentially perturbed arithmetic progression
(progressions); pairs of such progressions carry the classifying
invariants of two-saddle families (heart); the genericity side is a
constructive nested-interval certificate (liouville).
"""

from .errors import (
    AmbiguityError,
    BracketError,
    DegenerateExponentError,
    DomainError,
    InsufficientDataError,
    InvalidInputError,
    ModelViolationError,
    PolylabError,
    PrecisionError,
    RangeError,
    ReconstructionError,
    SolverError,
    TieError,
)
from .numerics import (
    DoubleLogValue,
    LogValue,
    Precision,
    default_bits,
    neg_log_add,
)
from .monodromy import (
    PerturbedPowerFamily,
    PowerMap,
    apply_family_log,
    apply_log,
    closed_iterate,
    envelope_profile,
)
from .connections import (
    ConnectionProblem,
    ConnectionSequence,
    asymptotic_model,
    bracket_double_logs,
    generate_sequence,
    residual_analysis,
    solve_connection,
)
from .progressions import (
    ArithmeticProgression,
    InterleavingWord,
    PairInvariants,
    PerturbedProgression,
    SearchBounds,
    ShiftPair,
    WordReconstruction,
    equivalent_pairs,
    interleaving_word,
    irrationality_report,
    pair_invariants,
    reconstruct_invariants,
    relative_scale_from_progressions,
    words_equivalent_up_to_shift,
)
from .heart import (
    HeartFamily,
    InvariantReport,
    ObstructionReport,
    compare,
    connection_problems,
    engineer_base_mismatch,
    invariants,
    progression_model,
    re_mark,
)
from .liouville import (
    LiouvilleSpec,
    VerifyReport,
    Witness,
    construct_A,
    estimate_requirements,
    q_window,
    required_bits,
    verify,
)

__version__ = "0.1.0"
