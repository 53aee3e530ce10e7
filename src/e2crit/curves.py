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
from .qseries import _HALF_I_PI, PI, _basic, _derivs, _eta1_g2
from .zeros import (
    _BRANCH_RANGE,
    BranchState,
    _branch_root,
    _newton,
    _phi,
    _solve,
    _sqrt_walk,
    branch_of,
    eval_fC,
    solve_tauC,
)

SQRT3_2 = math.sqrt(3) / 2
RHO = complex(0.5, SQRT3_2)


@dataclass(frozen=True)
class CurveSample:
    """One curve sample (C, tau(C)) with its branch and |f_C| residual."""

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


def _line_values(b: float, pp: PrecisionPolicy) -> tuple[float, float]:
    """(eta1, g2) on Re tau = 1/2, where both are real."""
    e1, g2v = _eta1_g2(complex(0.5, b), pp)
    return e1.real, g2v.real


def _bisect(fn, lo: float, hi: float, what: str = "root"):
    """The root of fn in [lo, hi], where fn changes sign, to float adjacency:
    of the two adjacent floats that bracket the sign change at the end, the
    one with the smaller |fn|.

    Each step is the Illinois form of regula falsi (the interpolation halves
    the value of an end kept twice in a row, so both ends close in), held
    at least one ulp inside the bracket.  Where the last two steps have not
    halved the bracket, the midpoint is taken instead.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise RootBracketFailure(f"{what}: no sign change on [{lo}, {hi}]")
    wlo, whi = flo, fhi          # the interpolation's end values
    moved = 0                    # -1 when lo moved last, 1 when hi did
    widths = (math.inf, math.inf)   # the bracket before the last two steps
    while math.nextafter(lo, hi) < hi:
        if hi - lo > 0.5 * widths[0]:
            x = 0.5 * (lo + hi)
        else:
            x = lo - wlo * (hi - lo) / (whi - wlo)
            x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        widths = (widths[1], hi - lo)
        fx = fn(x)
        if fx == 0.0:
            return x
        if (fx < 0) == (flo < 0):
            lo, flo, wlo = x, fx, fx
            if moved < 0:
                whi *= 0.5
            moved = -1
        else:
            hi, fhi, whi = x, fx, fx
            if moved > 0:
                wlo *= 0.5
            moved = 1
    return lo if abs(flo) <= abs(fhi) else hi


def theta_pair(b: float, pp: PrecisionPolicy = DEFAULT) -> tuple[float, float]:
    """(theta, theta1) on the rhombus line: theta = b*eta1/(2 pi) and
    theta1 = eta1^2/(eta1^2 - g2/12), both real for b in [1/2, sqrt(3)/2]."""
    if not (0.499 <= b <= SQRT3_2 + 1e-9):
        raise ValueError(f"b = {b} outside [1/2, sqrt(3)/2]")
    e1, g2v = _line_values(b, pp)
    return b * e1 / (2 * PI), e1 * e1 / (e1 * e1 - g2v / 12)


def special_tau_half(pp: PrecisionPolicy = DEFAULT) -> TauPoint:
    """Intersection tau(1/2) of the middle curve with Re tau = 1/2: the root
    of eta1 + sqrt(g2/12) - 2 pi/b on (sqrt(3)/2, 6/5)."""

    def fn(b):
        e1, g2v = _line_values(b, pp)
        return e1 + math.sqrt(max(g2v, 0.0) / 12) - 2 * PI / b

    b_hat = _bisect(fn, SQRT3_2 + 1e-9, 1.2, what="tau(1/2)")
    return TauPoint(0.5, b_hat)


def special_tau_minus_C(pp: PrecisionPolicy = DEFAULT) -> tuple[TauPoint, float]:
    """Intersection tau_- of the outer curves with Re tau = 1/2, the root of
    theta - theta1 on (1/2, sqrt(3)/2), and the C < 0 with tau(C) = tau_-,
    cross-checked against f_C."""

    def fn(b):
        th, th1 = theta_pair(b, pp)
        return th - th1

    b1 = _bisect(fn, 0.5 + 1e-9, SQRT3_2 - 1e-9, what="tau_-")
    tau_m = complex(0.5, b1)
    e1, g2v = _line_values(b1, pp)
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
        e1, g2v = _line_values(b, pp)
        return e1 * e1 - g2v / 12

    direct = _bisect(fn, 5 / 24 + 1e-9, 1 / (2 * math.sqrt(3)) - 1e-9, what="b0")
    if abs(direct - via_half) > 1e-10:
        raise ConsistencyFailure(f"b0 routes disagree: {direct} vs {via_half}")
    return direct


def detect_phi_sign(tau, pp: PrecisionPolicy = DEFAULT) -> int:
    """Which of Im phi_+ / Im phi_- vanishes at the curve point tau (+1 or
    -1), with sqrt(g2/12) as sqrt_g2_over_12 walks it down the vertical
    line through tau; ConsistencyFailure where neither does.

    It picks the vanishing branch at this one point, and the answer is not
    constant along a curve.  On 41-sample traces over C in [-1e3, -1e-3],
    [1.001, 1e3] and [1e-3, 0.999] it is -1 at 35 samples and +1 at 6 on
    each outer curve, switching where the curve crosses Re tau = 1/2 below
    e^{i pi/3}: there g2 is real and negative, and the walks on either side
    of its zero end on opposite roots.  It is +1 at all 41 on the zero
    curve.  A caller that follows a curve locks the sign at one point and
    carries the root by continuity from there (BranchState), as criterion 9
    does.
    """
    t = as_tau(tau)
    # one square-root walk serves both branches, and its last step reads eta1
    w, e1, _ = _sqrt_walk(t, pp)
    vals = {sign: abs(_phi(t, e1, w, sign).imag) for sign in (1, -1)}
    best = min(vals, key=vals.get)
    if vals[best] > 1e-6 * (1 + abs(t)):
        raise ConsistencyFailure(f"neither phi branch vanishes at {t}")
    return best


def trace_curve(branch: str, c_lo: float, c_hi: float, steps: int,
                pp: PrecisionPolicy = DEFAULT) -> list[CurveSample]:
    """Sample tau(C) on an arctan-uniform grid of `steps` points in
    [c_lo, c_hi], ascending in C.

    Each sample is a cold solve: its tau is solve_tauC's at its C, bit for
    bit, and its residual the |f_C| that solve_tauC's residual test reads,
    so a sample costs no series evaluation beyond the solve.  The paper's
    theorem makes the zero in F0 unique, so the samples stay on the branch
    without continuation from one to the next; every one lies inside F0.
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
    samples = []
    for C in grid:
        t, f = _solve(C, pp)
        samples.append(CurveSample(C, TauPoint.from_complex(t), branch, abs(f)))
    _check_no_self_intersection(samples)
    return samples


def _check_no_self_intersection(samples: list[CurveSample]) -> None:
    """Distinct parameter values may not map to the same tau: non-adjacent
    samples closer than 1e-6 in tau indicate a self-intersection."""
    zs = [s.tau.z for s in samples]
    for i, zi in enumerate(zs):
        for j in range(i + 2, len(zs)):
            d = abs(zi - zs[j])
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
    if branch is None:
        branch = BranchState(sign=sgn)
    else:
        branch.sign = sgn
    # one (eta1, g2) evaluation serves eta1, the square root and phi
    e1, g2v, w = _branch_root(branch, t, pp)
    phi = _phi(t, e1, w, sgn)
    return (3 * abs(g2v) / (4 * PI**4 * t.imag)) * abs(e1 + sgn * w) ** 2 * phi.imag


def _eta1_prime_pair(t: complex, pp: PrecisionPolicy) -> tuple[complex, complex]:
    """(eta1', eta1'') at t from one (eta1, g2, g3) evaluation:
    eta1' = (i/(2 pi))(eta1^2 - g2/12) as _derivs forms it, and
    eta1'' = (i/(2 pi))(2 eta1 eta1' - g2'/12).  E2' = (3/pi^2) eta1'."""
    e1, g2v, g3v = _basic(t, pp)
    e1p, g2p, _ = _derivs(e1, g2v, g3v)
    return e1p, _HALF_I_PI * (2 * e1 * e1p - g2p / 12)


def critical_points_E2(max_c: int, pp: PrecisionPolicy = DEFAULT) -> list[CriticalPoint]:
    """Critical points of E2 in the tiles gamma(F0) of `enumerate_gamma02(max_c)`:
    the image of tau(-d/c) under gamma, validated by the E2' residual scaled
    by |c tau(-d/c) + d|^4 and by round-trip tile ownership.  The round trip
    also makes the points distinct, since the gammas are.  Sorted by -d/c,
    which lies in [-1/2, 1/2]; the points gamma T^m tau(-d/c - m) of the
    tiles whose d + m c leaves the window are not covered.

    Each tau(C) is solve_tauC's root, bit for bit (zeros._solve), so a point
    does not depend on the other tiles listed.  Newton on E2' itself, by the
    pair (eta1', eta1''), then places the point from gamma(tau(C)), stopped
    after a step below 1e-13 |tau|: at c <= 512 its first step is already
    below 4e-16 |tau|.  The raw |E2'| reads eta1' at that point, and the
    raw check |E2'| < 1e-8 at c <= 16 still sits at its rounding floor
    there (about 3e-8 at c = 16, from the pull-back's rounding at low
    Im tau)."""
    out: list[CriticalPoint] = []
    for gam in sorted(enumerate_gamma02(max_c), key=lambda g: -g.d / g.c):
        tau_c = _solve(-gam.d / gam.c, pp)[0]
        point = _newton(lambda t: _eta1_prime_pair(t, pp), gam(tau_c), 1e-13, 60)
        residual = abs(3 / PI**2 * _eta1_prime_pair(point, pp)[0])
        # E2' at gamma(tau) carries the factor (c tau + d)^4 of its value at tau
        scaled = residual / abs(gam.mu(tau_c)) ** 4
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
    tau(1/(1-C)) = 1/(1 - tau(C)) over the given samples, each side a cold
    solve.  Cold solves fold C onto C* >= 2 by these same maps, and the
    paired parameters fold onto the same C* up to the rounding of C, so
    the residuals measure the rounding of the maps back to C, not an
    independent check of the symmetries (tests/test_oracle.py holds one)."""
    max_ref = 0.0
    max_inv = 0.0
    for sample in samples:
        C, t = sample.C, sample.tau.z
        expect_ref = 1 - t.conjugate()
        got_ref = solve_tauC(1 - C, pp).z
        max_ref = max(max_ref, abs(got_ref - expect_ref))
        expect_inv = 1 / (1 - t)
        got_inv = solve_tauC(1 / (1 - C), pp).z
        max_inv = max(max_inv, abs(got_inv - expect_inv))
    return SymmetryReport(len(samples), max_ref, max_inv)
