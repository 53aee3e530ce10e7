"""Tracing of the three degeneracy curves (images of tau(C) for C < 0,
0 < C < 1, C > 1), their special points on the line Re tau = 1/2, the
G2-Hessian determinant at the trivial critical points, and the enumeration
of all critical points of E2 across Gamma_0(2) tiles."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import DEFAULT, PrecisionPolicy, TauPoint, as_tau
from .errors import ConsistencyFailure, ExcludedPoint, RootBracketFailure
from .moebius import MoebiusMap, enumerate_gamma02, reduce_to_F0
from .premodular import find_zero_in_F0
from .qseries import PI, _basic, eval_derivatives
from .zeros import (
    BranchState,
    _continue_to,
    _fc_parts,
    eval_fC,
    eval_phi,
    solve_tauC,
    sqrt_g2_over_12,
)

RHO = complex(0.5, math.sqrt(3) / 2)
SQRT3_2 = math.sqrt(3) / 2

_BRANCH_RANGE = {
    "minus": (-math.inf, 0.0),
    "zero": (0.0, 1.0),
    "plus": (1.0, math.inf),
}


def branch_of(C: float) -> str:
    """Curve branch carrying tau(C)."""
    if C < 0:
        return "minus"
    if 0 < C < 1:
        return "zero"
    if C > 1:
        return "plus"
    raise ValueError(f"C = {C} is outside the curve parameter set")


@dataclass(frozen=True)
class CurveSample:
    """One continuation point (C, tau(C)) with its branch and |f_C| residual."""

    C: float
    tau: TauPoint
    branch: str
    residual: float


@dataclass(frozen=True)
class CriticalPoint:
    """Critical point of E2 in the tile gamma(F0), with its raw |E2'| residual
    and that residual divided by |c tau(-d/c) + d|^4."""

    gamma: MoebiusMap
    tau_star: TauPoint
    residual: float
    scaled_residual: float


def _line_values(b: float, pp: PrecisionPolicy) -> tuple[float, float, float]:
    """(eta1, g2, g3) on Re tau = 1/2, where all three are real."""
    e1, g2v, g3v = _basic(complex(0.5, b), pp)
    return e1.real, g2v.real, g3v.real


def _bisect(fn, lo: float, hi: float, tol: float = 1e-13, what: str = "root"):
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise RootBracketFailure(f"{what}: no sign change on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def theta_pair(b: float, pp: PrecisionPolicy = DEFAULT) -> tuple[float, float]:
    """(theta, theta1) on the rhombus line: theta = b*eta1/(2 pi) and
    theta1 = eta1^2/(eta1^2 - g2/12), both real for b in [1/2, sqrt(3)/2]."""
    if not (0.499 <= b <= SQRT3_2 + 1e-9):
        raise ValueError(f"b = {b} outside [1/2, sqrt(3)/2]")
    e1, g2v, _ = _line_values(b, pp)
    return b * e1 / (2 * PI), e1 * e1 / (e1 * e1 - g2v / 12)


def special_tau_half(pp: PrecisionPolicy = DEFAULT) -> TauPoint:
    """Intersection tau(1/2) of the middle curve with Re tau = 1/2: the root
    of eta1 + sqrt(g2/12) - 2 pi/b on (sqrt(3)/2, 6/5)."""

    def fn(b):
        e1, g2v, _ = _line_values(b, pp)
        return e1 + math.sqrt(max(g2v, 0.0) / 12) - 2 * PI / b

    b_hat = _bisect(fn, SQRT3_2 + 1e-9, 1.2, tol=1e-13, what="tau(1/2)")
    return TauPoint(0.5, b_hat)


def special_tau_minus_C(pp: PrecisionPolicy = DEFAULT) -> tuple[TauPoint, float]:
    """Intersection tau_- of the outer curves with Re tau = 1/2, the root of
    theta - theta1 on (1/2, sqrt(3)/2), and the C < 0 with tau(C) = tau_-,
    cross-checked against f_C."""

    def fn(b):
        th, th1 = theta_pair(b, pp)
        return th - th1

    b1 = _bisect(fn, 0.5 + 1e-9, SQRT3_2 - 1e-9, tol=1e-13, what="tau_-")
    tau_m = complex(0.5, b1)
    e1, g2v, _ = _line_values(b1, pp)
    disc = e1 * e1 - g2v / 12
    c_minus = 0.5 - 2 * PI * math.sqrt(-g2v / 12) / disc
    if abs(eval_fC(c_minus, tau_m, pp)) > 1e-8:
        raise ConsistencyFailure(f"tau_- fails the f_C residual check at C = {c_minus}")
    return TauPoint(0.5, b1), c_minus


def special_tau_minus(pp: PrecisionPolicy = DEFAULT) -> TauPoint:
    """Intersection tau_- of the outer curves with Re tau = 1/2."""
    return special_tau_minus_C(pp)[0]


def special_b0(pp: PrecisionPolicy = DEFAULT) -> float:
    """Height of the unique critical point of eta1 on Re tau = 1/2, computed
    two ways: 1/(4 Im tau(1/2)) and directly as the root of
    eta1^2 - g2/12 on (5/24, 1/(2 sqrt 3))."""
    via_half = 1.0 / (4.0 * special_tau_half(pp).im)

    def fn(b):
        e1, g2v, _ = _line_values(b, pp)
        return e1 * e1 - g2v / 12

    direct = _bisect(fn, 5 / 24 + 1e-9, 1 / (2 * math.sqrt(3)) - 1e-9, tol=1e-13, what="b0")
    if abs(direct - via_half) > 1e-10:
        raise ConsistencyFailure(f"b0 routes disagree: {direct} vs {via_half}")
    return direct


def detect_phi_sign(tau, pp: PrecisionPolicy = DEFAULT) -> int:
    """Which of Im phi_+ / Im phi_- vanishes at a curve point (+1 or -1).

    The curves each carry a single phi branch, but which one is not fixed a
    priori; this empirical test locks it at the seed point of a trace.
    """
    t = as_tau(tau)
    vals = {}
    for sign in (1, -1):
        vals[sign] = abs(eval_phi(BranchState(sign=sign), t, pp).imag)
    best = min(vals, key=vals.get)
    if vals[best] > 1e-6 * (1 + abs(t)):
        raise ConsistencyFailure(f"neither phi branch vanishes at {t}")
    return best


def trace_curve(branch: str, c_lo: float, c_hi: float, steps: int,
                pp: PrecisionPolicy = DEFAULT) -> list[CurveSample]:
    """Sample tau(C) on an arctan-uniform grid of `steps` points in
    [c_lo, c_hi] by continuation, ascending in C.

    The first sample is a cold solve.  Each next one is continued from the
    last by _continue_to, in a single step when the samples lie closer than
    one continuation step (there is no minimum count), with every accepted
    root inside F0.  The tangent predictor takes the Jacobian evaluated with
    the first sample's residual, then the one of Newton's last iterate.
    """
    if branch not in _BRANCH_RANGE:
        raise ValueError(f"unknown branch {branch!r}")
    lo, hi = _BRANCH_RANGE[branch]
    if not (lo < c_lo < c_hi < hi):
        raise ValueError(f"[{c_lo}, {c_hi}] is not inside the {branch} branch interval")
    for endpoint in (c_lo, c_hi):
        if min(abs(endpoint), abs(endpoint - 1)) < 1e-4:
            raise ValueError(f"C = {endpoint} closer than 1e-4 to a forbidden endpoint")
        if abs(endpoint) > 1e4:
            raise ValueError(f"|C| = {abs(endpoint)} beyond the traced range 1e4")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    a0, a1 = math.atan(c_lo), math.atan(c_hi)
    grid = [math.tan(a0 + (a1 - a0) * i / (steps - 1)) for i in range(steps)]
    grid[0], grid[-1] = c_lo, c_hi

    t = solve_tauC(grid[0], pp).z
    f, fp, fC_d = _fc_parts(grid[0], t, pp)
    samples = [CurveSample(grid[0], TauPoint.from_complex(t), branch, abs(f))]
    root = (t, fp, fC_d)
    for C_prev, C in zip(grid, grid[1:]):
        root = _continue_to(C_prev, root, C, pp)
        t = root[0]
        samples.append(CurveSample(C, TauPoint.from_complex(t), branch,
                                   abs(eval_fC(C, t, pp))))
    _check_no_self_intersection(samples)
    return samples


def _check_no_self_intersection(samples: list[CurveSample]) -> None:
    """Distinct parameter values may not map to the same tau: non-adjacent
    samples closer than 1e-6 in tau indicate a self-intersection."""
    for i in range(len(samples)):
        for j in range(i + 2, len(samples)):
            d = abs(samples[i].tau.z - samples[j].tau.z)
            if d < 1e-6:
                raise ConsistencyFailure(
                    f"samples at C = {samples[i].C} and C = {samples[j].C} "
                    f"coincide within {d:.2e}")


def hessian_detG2(sign, tau, pp: PrecisionPolicy = DEFAULT,
                  branch: BranchState | None = None) -> float:
    """Hessian determinant of the two-point Green function at the trivial
    critical pair indexed by sign ('plus'/'minus' or +-1):

        (3 |g2| / (4 pi^4 Im tau)) |eta1 + sign*sqrt(g2/12)|^2 Im phi_sign.

    Vanishes exactly on the degeneracy curves; excluded at tau = e^{i pi/3}
    where g2 = 0 and the two pairs coalesce."""
    sgn = {"plus": 1, "minus": -1, 1: 1, -1: -1}.get(sign)
    if sgn is None:
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    t = as_tau(tau)
    if abs(t - RHO) < 1e-8:
        raise ExcludedPoint("both trivial critical points degenerate at e^{i pi/3}")
    e1, g2v, _ = _basic(t, pp)
    if branch is None:
        branch = BranchState(sign=sgn, anchor=sqrt_g2_over_12(t, pp))
    else:
        branch.sign = sgn
    phi = eval_phi(branch, t, pp)
    w = branch.anchor
    return (3 * abs(g2v) / (4 * PI**4 * t.imag)) * abs(e1 + sgn * w) ** 2 * phi.imag


def critical_points_E2(max_c: int, pp: PrecisionPolicy = DEFAULT) -> list[CriticalPoint]:
    """Critical points of E2 in the tiles gamma(F0) of `enumerate_gamma02(max_c)`:
    the image of tau(-d/c) under gamma, validated by the E2' residual scaled
    by |c tau(-d/c) + d|^4 and by round-trip tile ownership.  The round trip
    also makes the points distinct, since the gammas are.  Sorted by -d/c,
    which lies in [-1/2, 1/2]; the points gamma T^m tau(-d/c - m) of the
    tiles whose d + m c leaves the window are not covered."""
    gammas = sorted(enumerate_gamma02(max_c), key=lambda g: -g.d / g.c)
    out: list[CriticalPoint] = []
    hint = None
    for gam in gammas:
        C = -gam.d / gam.c
        tau_c = solve_tauC(C, pp, hint=hint)
        hint = tau_c
        point = gam(tau_c.z)
        eta1_p = eval_derivatives(point, pp)[0]
        residual = abs(3 / PI**2 * eta1_p)
        # E2' at gamma(tau) carries the factor (c tau + d)^4 of its value at tau
        scaled = residual / abs(gam.mu(tau_c.z)) ** 4
        if scaled >= 1e-8:
            raise ConsistencyFailure(
                f"|E2'| / |c tau(C) + d|^4 = {scaled:.2e} at the critical point of tile {gam}")
        _, owner = reduce_to_F0(point)
        if owner != gam:
            raise ConsistencyFailure(f"tile round-trip failed: {owner} != {gam}")
        out.append(CriticalPoint(gam, TauPoint.from_complex(point), residual, scaled))
    return out


def appendix_tau_s(s: float, pp: PrecisionPolicy = DEFAULT,
                   t_top: float = 6.0, cusp_delta: float = 0.08) -> TauPoint:
    """Unique zero tau_s of Z2_{(2-s)/2, s} in F0 for s in (0, 1/2); it lies
    on the line Re tau = 1/2."""
    if not (0.0 < s < 0.5):
        raise ValueError(f"s must lie in (0, 1/2), got {s}")
    r = (2.0 - s) / 2.0
    root = find_zero_in_F0((r, s), pp, t_top=t_top, cusp_delta=cusp_delta)
    if abs(root.re - 0.5) > 1e-8:
        raise ConsistencyFailure(f"tau_s off the symmetry line: Re = {root.re}")
    return root


def appendix_bstar(pp: PrecisionPolicy = DEFAULT) -> float:
    """s -> 0 limit of Im tau_s, via Richardson extrapolation over
    s in {4e-3, 2e-3, 1e-3} (the error is quadratic in s, so one halving
    level eliminates it to O(s^4))."""
    b4 = appendix_tau_s(4e-3, pp).im
    b2 = appendix_tau_s(2e-3, pp).im
    b1 = appendix_tau_s(1e-3, pp).im
    r1 = (4 * b1 - b2) / 3
    r1_coarse = (4 * b2 - b4) / 3
    return (16 * r1 - r1_coarse) / 15


@dataclass(frozen=True)
class SymmetryReport:
    """Largest identity residuals over the checked sample pairs."""

    n_pairs: int
    max_reflection: float
    max_inversion: float


def verify_symmetries(samples: list[CurveSample], pp: PrecisionPolicy = DEFAULT) -> SymmetryReport:
    """Residuals of tau(1-C) = 1 - conj(tau(C)) and
    tau(1/(1-C)) = 1/(1 - tau(C)) over the given samples."""
    max_ref = 0.0
    max_inv = 0.0
    for sample in samples:
        C, t = sample.C, sample.tau.z
        expect_ref = 1 - t.conjugate()
        got_ref = solve_tauC(1 - C, pp, hint=expect_ref).z
        max_ref = max(max_ref, abs(got_ref - expect_ref))
        expect_inv = 1 / (1 - t)
        got_inv = solve_tauC(1 / (1 - C), pp, hint=expect_inv).z
        max_inv = max(max_inv, abs(got_inv - expect_inv))
    return SymmetryReport(len(samples), max_ref, max_inv)
