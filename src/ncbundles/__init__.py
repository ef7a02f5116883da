"""Exact first-order deformation computations for rank-2 extension
bundles on the local threefolds W_k = Tot(O(-k) + O(k-2)) over P^1,
quantized by a degree-one star product.
"""

__version__ = "0.1.0"

from .bundles import (
    Matrix2,
    NormalizationResult,
    canonical_right_inverse,
    extension_basis,
    normalize_line_bundle,
    star_matrix_mul,
    transition_matrix,
)
from .claims import certify_generic_rank, stratify, verify_claims
from .engine import (
    GaugeWindows,
    MasterSystem,
    StalkReport,
    WindowInstabilityError,
    build_cancellation_system,
    compute_windows,
    is_extremal,
    obstruction_basis,
    stalk_dimension,
)
from .geometry import (
    GLOBAL,
    OBSTRUCTION,
    U_ONLY,
    V_ONLY,
    cech_split,
    classify,
    global_monomials,
    h1_obstruction_basis,
    to_U_chart,
    to_V_chart,
    v_exponent,
)
from .oracle import full_gauge_oracle, oracle_check
from .poisson import (
    Bivector,
    associator_defect,
    catalog,
    generator,
    is_extremal_literal,
    jacobi_defect,
    parse_sigma_spec,
)
from .ring import (
    FormalFunction,
    LaurentPoly,
    Monomial,
    ParamPoly,
    parse_poly,
)

__all__ = [
    "Bivector",
    "FormalFunction",
    "GLOBAL",
    "GaugeWindows",
    "LaurentPoly",
    "MasterSystem",
    "Matrix2",
    "Monomial",
    "OBSTRUCTION",
    "U_ONLY",
    "V_ONLY",
    "NormalizationResult",
    "ParamPoly",
    "StalkReport",
    "WindowInstabilityError",
    "associator_defect",
    "build_cancellation_system",
    "canonical_right_inverse",
    "catalog",
    "cech_split",
    "certify_generic_rank",
    "classify",
    "compute_windows",
    "extension_basis",
    "full_gauge_oracle",
    "generator",
    "global_monomials",
    "h1_obstruction_basis",
    "is_extremal",
    "is_extremal_literal",
    "jacobi_defect",
    "normalize_line_bundle",
    "obstruction_basis",
    "oracle_check",
    "parse_poly",
    "parse_sigma_spec",
    "stalk_dimension",
    "star_matrix_mul",
    "stratify",
    "to_U_chart",
    "to_V_chart",
    "transition_matrix",
    "v_exponent",
    "verify_claims",
]
