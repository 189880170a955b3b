"""Exact syzygy toolkit for lattice polytopes and toric embeddings."""

from .cohomology import (
    CohomologyProfile,
    WeightPlan,
    ample_power_profile,
    coh_dim_ample_power,
    coh_dim_product,
    is_regular_product,
    is_regular_single,
    predict_np_main,
    product_profile,
    single_plan,
)
from .criteria import (
    CriterionResult,
    cor1,
    cor_canonical_product,
    cor_hilbert,
    cor_polytope,
    cor_prodproj,
)
from .ehrhart import (
    EhrhartPolynomial,
    RootData,
    ehrhart_polynomial,
    integer_root_count,
    r_of_polytope,
    reciprocity_check,
)
from .errors import (
    ConsistencyError,
    DegenerateInput,
    DimensionMismatch,
    WindowExceeded,
)
from .koszul import (
    BettiTable,
    GradedSectionRing,
    NpVerdict,
    betti_table,
    build_ring,
    compose_is_zero,
    k_polynomial_checksum,
    koszul_betti,
    np_level,
)
from .lattice import (
    HalfSpace,
    LatticePolytope,
    contains,
    convex_hull_facets,
    dilate,
    interior_lattice_points,
    lattice_points,
    normalize_full_dim,
)
from .normality import NormalityReport, decompose, is_normal
from .ranks import RankPolicy

__version__ = "0.1.0"

# bump when any engine output could change; part of every cache key
ENGINE_VERSION = "1"
