"""lllcolor: constructive Lovasz Local Lemma toolkit.

Exact rational certification of asymmetric local-lemma conditions, a
deterministic seeded Moser-Tardos resampler, a prefix-stable streaming
2-colorer for sparse constraint families, and diagonalization pipelines
that defeat enumerated candidate sets, with independent audits throughout.
"""

from .colorer import color_prefix, extend_coloring, phase_base
from .errors import (
    ConstructionFailureError,
    InvalidInputError,
    InvalidInstanceError,
    InvalidParameterError,
    LLLColorError,
    NonConvergenceError,
    ParseError,
    StreamIntegrityError,
    UnsatisfiableEventError,
    WrongStreamError,
)
from .hindman import (
    AdditionLike,
    StagedFamily,
    baseline_coloring,
    build_image_stream,
    build_translate_stream,
    builtin_addition_like,
    choose_M,
    gen_family,
    pigeonhole_check,
)
from .lll import (
    Assignment,
    ConditionRefusal,
    Event,
    LLLCertificate,
    VarSpec,
    check_condition,
    default_budget,
    dependency_neighbors,
    event_probability,
    fair_bit,
    solve_moser_tardos,
    verify_assignment,
)
from .streams import (
    Coloring,
    ConstraintStream,
    SparsityReport,
    gen_sets_stream,
    point_bound,
    validate_sparsity,
)
from .verify import (
    AuditReport,
    audit_solution,
    monte_carlo_homogeneity,
    sparsity_counts_csv,
)

__version__ = "0.1.0"
