"""Numerical library for the elliptic/modular special-function layer behind
the critical points of the weight-2 Eisenstein series: q-series evaluation,
Gamma_0(2) reduction, pre-modular forms, argument-principle zero location
and degeneracy-curve tracing."""

from .domain import CharPair, LatticeCoord, PrecisionPolicy, TauPoint, DEFAULT
from .errors import (
    BoundaryZero,
    BranchJump,
    ConsistencyFailure,
    CountMismatch,
    Diverged,
    DomainEscape,
    E2CritError,
    ExcludedPoint,
    PhaseStepFailure,
    PoleAtLattice,
    ReductionStalled,
    RootBracketFailure,
    SkippedChar,
    TruncationFailure,
    Unclassified,
)
from .moebius import (
    DomainTag,
    MoebiusMap,
    apply,
    classify_domain,
    enumerate_gamma02,
    is_gamma02,
    reduce_to_F,
    reduce_to_F0,
    transform_char,
    transform_quasi,
)
from .qseries import (
    choose_truncation,
    eval_E2,
    eval_derivatives,
    eval_ek,
    eval_eta1,
    eval_eta2,
    eval_invariants,
    eval_weierstrass,
)
from .premodular import (
    CuspValue,
    TriangleTag,
    blowup_FCs,
    classify,
    cusp_value,
    eval_Zrs,
    eval_Zrs2,
    find_zero_in_F0,
    normalize_char,
)
from .zeros import (
    BranchState,
    Contour,
    count_zeros,
    count_zeros_info,
    eval_fC,
    eval_fC_prime,
    eval_phi,
    f0_contour,
    newton_refine,
    rect_contour,
    solve_tauC,
    sqrt_g2_over_12,
)
from .curves import (
    CriticalPoint,
    CurveSample,
    SymmetryReport,
    appendix_bstar,
    appendix_tau_s,
    branch_of,
    critical_points_E2,
    detect_phi_sign,
    hessian_detG2,
    special_b0,
    special_tau_half,
    special_tau_minus,
    theta_pair,
    trace_curve,
    verify_symmetries,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the series-kernel implementation (e2crit._kernels_py)."""
    return "python"
