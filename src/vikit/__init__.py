"""Variational-inequality solver toolkit: affine operators with certified
moduli, convex sets with exact projections, projection-type solvers, and a
brute-force grid oracle that cross-validates them."""

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    DivergenceError,
    ValidationError,
    VikitError,
)
from .geometry import (
    AffineSubspace,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Simplex,
    contains,
    project,
)
from .operators import (
    AffineOperator,
    OperatorModuli,
    VerificationReport,
    certify_moduli,
    check_expansive,
    check_ism,
    check_relaxed_cocoercive,
    evaluate,
    sample_pairs,
)
from .solvers import (
    AffineAverage,
    AnchorSchedule,
    ComparisonRecord,
    Identity,
    IterationConfig,
    IterationTrace,
    NonexpansiveMap,
    ProjectionOnto,
    compare_stopping,
    shortcut_distance_bound,
    solve_halpern,
    solve_projected_gradient,
)
from .verification import (
    BruteForceGrid,
    brute_force_vi,
    check_singleton_vi,
    lemma_cocoercive_expansive,
)

__version__ = "0.1.0"
