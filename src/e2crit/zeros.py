"""Argument-principle zero counting, Newton refinement, the holomorphic
function f_C whose unique F0-zero parametrizes the degeneracy curves, and the
square-root branch machinery behind phi_+/phi_-."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .domain import DEFAULT, PrecisionPolicy, TauPoint, as_real, as_tau
from .errors import (
    BoundaryZero,
    BranchJump,
    CountMismatch,
    Diverged,
    DomainEscape,
    PhaseStepFailure,
)
from .moebius import DomainTag, classify_domain
from .qseries import _HALF_I_PI, _I_PI, PI, TWO_PI_I, _basic

ROOT_RESIDUAL = 1e-9
BOUNDARY_ZERO_TOL = 1e-9
MAX_CONTOUR_POINTS = 1 << 18


@dataclass(frozen=True)
class Contour:
    """Closed positively oriented polyline in the upper half-plane."""

    points: tuple
    max_step: float = PI / 2

    def __post_init__(self):
        if len(self.points) < 4 or self.points[0] != self.points[-1]:
            raise ValueError("contour must be a closed polyline")
        if any(p.imag <= 0 for p in self.points):
            raise ValueError("contour must stay in the upper half-plane")


def rect_contour(re0: float, re1: float, im0: float, im1: float, n: int = 24) -> Contour:
    """Counterclockwise rectangle boundary."""
    re0, re1 = as_real(re0, "re0"), as_real(re1, "re1")
    im0, im1 = as_real(im0, "im0"), as_real(im1, "im1")
    if not (re0 < re1 and 0 < im0 < im1):
        raise ValueError("degenerate rectangle")
    pts = []
    for i in range(n):
        pts.append(complex(re0 + (re1 - re0) * i / n, im0))
    for i in range(n):
        pts.append(complex(re1, im0 + (im1 - im0) * i / n))
    for i in range(n):
        pts.append(complex(re1 - (re1 - re0) * i / n, im1))
    for i in range(n):
        pts.append(complex(re0, im1 - (im1 - im0) * i / n))
    pts.append(pts[0])
    return Contour(tuple(pts))


def f0_contour(t_top: float = 6.0, cusp_delta: float = 0.08) -> Contour:
    """Boundary of F0 truncated at Im = t_top, with horocircle cuts of
    Euclidean diameter cusp_delta tangent at the cusps 0 and 1.

    The base polyline has 82 points (83 with the closing one): 16 log-spaced
    on each vertical edge, 5 on each horocircle, 32 on the arc and 8 on the
    top.  For the Z2 characteristics and f_C parameters the tests sample,
    no base segment turns by more than pi/3 (0.68 and 0.65 at most for the
    Z2 and f_C counts of the verification suites), inside the pi/2
    acceptance step; the walk bisects wherever that step or the derivative
    gate requires."""
    t_top, cusp_delta = as_real(t_top, "t_top"), as_real(cusp_delta, "cusp_delta")
    if t_top < 3 or not (0 < cusp_delta <= 0.25):
        raise ValueError("t_top >= 3 and cusp_delta in (0, 0.25] required")
    d = cusp_delta
    pts = []
    # left edge down, log-spaced
    n_edge, n_horo, n_arc, n_top = 16, 5, 32, 8
    for i in range(n_edge):
        pts.append(complex(0.0, t_top * (d / t_top) ** (i / n_edge)))
    # horocircle at 0 (center i d/2), from i*d to the big-arc intersection
    p0 = complex(d * d, d) / (1 + d * d)
    c0 = complex(0.0, d / 2)
    th0 = PI / 2
    th1 = cmath.phase(p0 - c0)
    for i in range(n_horo):
        pts.append(c0 + (d / 2) * cmath.exp(1j * (th0 + (th1 - th0) * i / n_horo)))
    # main arc |tau - 1/2| = 1/2 between the horocircle intersections
    p1 = complex(1.0, d) / (1 + d * d)
    a0 = cmath.phase(p0 - 0.5)
    a1 = cmath.phase(p1 - 0.5)
    for i in range(n_arc):
        pts.append(0.5 + 0.5 * cmath.exp(1j * (a0 + (a1 - a0) * i / n_arc)))
    # horocircle at 1, up to 1 + i*d
    c2 = complex(1.0, d / 2)
    t0 = cmath.phase(p1 - c2)
    for i in range(n_horo):
        pts.append(c2 + (d / 2) * cmath.exp(1j * (t0 + (PI / 2 - t0) * i / n_horo)))
    # right edge up, top edge right to left
    for i in range(n_edge):
        pts.append(complex(1.0, d * (t_top / d) ** (i / n_edge)))
    for i in range(n_top):
        pts.append(complex(1.0 - i / n_top, t_top))
    pts.append(pts[0])
    return Contour(tuple(pts))


def _winding(f, contour: Contour, min_abs: float, max_points: int):
    """(winding number, points evaluated, sum of the enclosed zeros).

    f(p) returns the value of f, or the pair (f(p), f'(p)); a pair at the
    first contour point switches on the derivative gate of count_zeros_info
    for the whole walk.  The walk accumulates dlog = log(f(p1)/f(p0)) over
    each accepted segment; dlog.imag is the phase step, so the count is the
    winding number of the sampled polyline.  Each segment also adds
    (p0 + p1) dlog to a moment, and moment / (4 pi i) is the midpoint rule
    for the contour integral of tau f'(tau)/f(tau) over 2 pi i: the sum of
    the zeros inside, counted with multiplicity, less that of the poles
    (L. M. Delves and J. N. Lyness, Math. Comp. 21, 1967).  For one simple
    zero it is that zero, to about the square of the sample spacing, so it
    seeds Newton at no extra evaluation.  With pairs each segment also adds
    the Hermite end correction (p1 - p0)^2/6 (f'/f(p1) - f'/f(p0)), which
    lowers that error to the fourth power of the spacing, again at no extra
    evaluation.
    """
    def node(p, out):
        v, d = out if gated else (out, 0.0)
        if abs(v) < min_abs:
            raise BoundaryZero(f"|f| = {abs(v):.2e} < {min_abs:.0e} at contour point {p}")
        g = d / v
        return p, v, g, abs(g)

    pts = contour.points
    first = f(pts[0])
    gated = type(first) is tuple
    nodes = [node(pts[0], first)] + [node(p, f(p)) for p in pts[1:]]
    used = len(pts)
    budget = max_points - used
    max_step = contour.max_step
    total = 0.0
    moment = 0j
    for i in range(len(nodes) - 1):
        stack = [(nodes[i], nodes[i + 1])]
        while stack:
            a, b = stack.pop()
            p0, v0, g0, r0 = a
            p1, v1, g1, r1 = b
            dlog = cmath.log(v1 / v0)
            dphi = dlog.imag
            h = p1 - p0
            if abs(dphi) < max_step and (not gated or abs(h) * max(r0, r1) < 1.0):
                total += dphi
                moment += (p0 + p1) * dlog + h * h * (g1 - g0) / 6
                continue
            if budget <= 0:
                raise PhaseStepFailure("adaptive subdivision budget exhausted")
            if abs(h) < 1e-14:
                raise PhaseStepFailure(f"phase step {dphi:.3f} irreducible near {p0}")
            mid = 0.5 * (p0 + p1)
            m = node(mid, f(mid))
            used += 1
            budget -= 1
            stack.append((m, b))
            stack.append((a, m))
    n = total / (2 * PI)
    if abs(n - round(n)) > 1e-3:
        raise PhaseStepFailure(f"winding number {n} not close to an integer")
    return int(round(n)), used, moment / (4j * PI)


def count_zeros_info(f, contour: Contour, min_abs: float = BOUNDARY_ZERO_TOL,
                     max_points: int = MAX_CONTOUR_POINTS) -> tuple[int, int]:
    """(winding number of f along the contour, points evaluated).

    Adaptive phase accumulation: a segment is bisected until the phase step
    between its endpoints is below contour.max_step, and the result is the
    winding number of the sampled polyline.  f(p) may return the value of f
    or the pair (f(p), f'(p)), f' the tau-derivative.  With pairs a segment
    of length h is accepted only if, in addition, h |f'(p)| < |f(p)| holds
    at both ends (the derivative gate of Ying and Katz, Numer. Math. 53,
    1988): near a simple zero at distance d from p, |f/f'| is about d, so a
    zero near the contour forces the sampling down to its distance and is
    counted.  An opaque callable keeps the phase rule alone, which equals
    the number of zeros inside only if f turns by less than that step
    between neighbouring samples; nothing checks this, so a zero closer to
    the contour than the sample spacing can go unseen.  f_C with
    C = -0.347830332744998 over the rectangle (-0.2226198, 0.7623387,
    0.0667083, 1.1358003) counts 5 with pairs at rect_contour's default 24
    points per side, and 4 without them unless 48 or more are used.
    """
    return _winding(f, contour, min_abs, max_points)[:2]


def count_zeros(f, contour: Contour, min_abs: float = BOUNDARY_ZERO_TOL,
                max_points: int = MAX_CONTOUR_POINTS) -> int:
    """Winding number of f along the contour (number of interior zeros);
    f as for count_zeros_info."""
    return count_zeros_info(f, contour, min_abs, max_points)[0]


def newton_refine(f, tau0, tol: float, itmax: int = 50) -> TauPoint:
    """Refine a root of a holomorphic function from a seed inside its basin.

    f(t) returns the pair (value, tau-derivative) at t, so each iteration
    costs one evaluation.  tol is relative to the root's size: the
    iteration stops once a Newton step v/f' is shorter than
    tol * max(1, |t|), and returns the iterate that step reaches.  Unlike a
    bound on |f|, the step measures the distance to the root whatever the
    scale of f', so a root is accepted at the same place however small or
    large f' is near it.
    """
    t = as_tau(tau0)
    best_t, best_v = t, math.inf
    for _ in range(itmax):
        v, fp = f(t)
        if abs(v) < best_v:
            best_t, best_v = t, abs(v)
        if fp == 0:
            raise Diverged(f"vanishing derivative at {t}")
        step = v / fp
        t = t - step
        if t.imag <= 0:
            raise Diverged(f"iterate left the upper half-plane near {best_t}")
        if abs(step) < tol * max(1.0, abs(t)):
            return TauPoint.from_complex(t)
    raise Diverged(f"no convergence after {itmax} iterations, best |f| = {best_v:.2e}")


# ---------------------------------------------------------------------------
# f_C and the phi branches

def _fc_parts(C: float, tau: complex, pp: PrecisionPolicy):
    """f_C, df_C/dtau and df_C/dC sharing one series evaluation; eta1' and
    g2' in the operations of _derivs, which also forms the unread g3'."""
    e1, g2v, g3v = _basic(tau, pp)
    e2v = tau * e1 - TWO_PI_I
    lin = C * e1 - e2v
    d = C - tau
    d2 = d * d
    f = 12 * lin * lin - g2v * d2
    e1p = _HALF_I_PI * (e1 * e1 - g2v / 12)
    g2p = _I_PI * (2 * e1 * g2v - 3 * g3v)
    e2p = e1 + tau * e1p
    df_dtau = 24 * lin * (C * e1p - e2p) - g2p * d2 + 2 * g2v * d
    df_dC = 24 * lin * e1 - 2 * g2v * d
    return f, df_dtau, df_dC


def eval_fC(C: float, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """f_C(tau) = 12 (C eta1 - eta2)^2 - g2 (C - tau)^2, in the operations
    of _fc_parts without its derivatives."""
    C, t = as_real(C, "C"), as_tau(tau)
    e1, g2v, _ = _basic(t, pp)
    lin = C * e1 - (t * e1 - TWO_PI_I)
    d = C - t
    return 12 * lin * lin - g2v * (d * d)


def eval_fC_prime(C: float, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Analytic tau-derivative of f_C."""
    return _fc_parts(as_real(C, "C"), as_tau(tau), pp)[1]


def _fc_value(C: float, t: complex, pp: PrecisionPolicy) -> tuple[complex, float]:
    """(f_C(t), fc_scale(C, t)) from one series evaluation, f_C in the
    operations of eval_fC (which keeps its own copy: it is the integrand of
    every f_C contour count, where the scale would be wasted)."""
    e1, g2v, _ = _basic(t, pp)
    lin = C * e1 - (t * e1 - TWO_PI_I)
    d = C - t
    return 12 * lin * lin - g2v * (d * d), 1.0 + abs(g2v) * abs(d) ** 2


def fc_scale(C: float, tau: complex, pp: PrecisionPolicy = DEFAULT) -> float:
    """Natural magnitude of f_C at tau, used to scale residual tolerances."""
    return _fc_value(C, tau, pp)[1]


@dataclass
class BranchState:
    """Continuity tracker for sqrt(g2/12): sign picks phi_+ or phi_-, anchor
    holds the last accepted square root along the current path."""

    sign: int = 1
    anchor: complex | None = None


def sqrt_g2_over_12(tau, pp: PrecisionPolicy = DEFAULT, anchor: complex | None = None) -> complex:
    """Branch-tracked sqrt(g2(tau)/12).

    With an anchor, the root closer to it is chosen.  Without one, the value
    is continued down a vertical path from high Im where the branch is fixed
    by sqrt(g2/12) = pi^2/3 + O(q).
    """
    t = as_tau(tau)
    if anchor is not None:
        _, g2v, _ = _basic(t, pp)
        w = cmath.sqrt(g2v / 12)
        if abs(w - anchor) > abs(w + anchor):
            w = -w
        # neither root continues the anchor: the path step was too large
        if abs(w - anchor) > 0.8 * (abs(w) + abs(anchor)) + 1e-12:
            raise BranchJump(f"sqrt(g2/12) jumped from {anchor} to {w} at {t}")
        return w
    b_top = max(6.0, t.imag + 1.0)
    _, g2v, _ = _basic(complex(t.real, b_top), pp)
    w = cmath.sqrt(g2v / 12)
    if w.real < 0:
        w = -w
    b = b_top
    while b > t.imag:
        b = max(t.imag, b - max(0.04, 0.25 * (b - t.imag)))
        _, g2v, _ = _basic(complex(t.real, b), pp)
        wn = cmath.sqrt(g2v / 12)
        if abs(wn - w) > abs(wn + w):
            wn = -wn
        w = wn
    return w


def eval_phi(branch: BranchState, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """phi_{+-}(tau) = tau - 2 pi i / (eta1 +- sqrt(g2/12)) on the branch's
    continuous square-root selection; updates branch.anchor."""
    t = as_tau(tau)
    e1, _, _ = _basic(t, pp)
    w = sqrt_g2_over_12(t, pp, branch.anchor)
    branch.anchor = w
    denom = e1 + branch.sign * w
    if abs(denom) < 1e-13 * (1 + abs(e1)):
        raise ZeroDivisionError(f"eta1 {'+' if branch.sign > 0 else '-'} sqrt(g2/12) vanishes at {t}")
    return t - TWO_PI_I / denom


# ---------------------------------------------------------------------------
# the unique zero tau(C)

def _newton_fc(C: float, t: complex, pp: PrecisionPolicy, itmax: int = 60):
    """Newton on f_C from t: (root, df_C/dtau, df_C/dC), or None on failure.

    The derivatives are those of the last iterate, whose Newton step was
    below 1e-13 |root|: the Jacobian at the root to that accuracy, ready for
    a continuation predictor without another series evaluation.
    """
    start = t
    for _ in range(itmax):
        f, fp, fC_d = _fc_parts(C, t, pp)
        if fp == 0:
            return None
        step = f / fp
        t = t - step
        if t.imag <= 1e-9 or abs(t - start) > 1.5:
            return None
        if abs(step) < 1e-13 * max(1.0, abs(t)):
            return t, fp, fC_d
    return None


def _asymptotic_seed(C: float) -> complex | None:
    """Seed from the large-|C| expansion of phi_-; None when |C| is too small
    for the expansion to pin the real part."""
    a = 0.25 if C > 0.5 else 0.75
    b = 1.0
    for _ in range(4):
        den = abs(math.sin(2 * PI * a))
        if den < 0.5 or abs(C - a) < 0.5:
            return None
        b = math.log(24 * PI * abs(C - a) / den) / (2 * PI)
        cosv = -(b + 7 / (4 * PI)) * 24 * PI * math.exp(-2 * PI * b)
        if abs(cosv) > 0.995:
            return None
        if C > 0.5:
            a = math.acos(cosv) / (2 * PI)
        else:
            a = 1.0 - math.acos(cosv) / (2 * PI)
    return complex(a, b)


@lru_cache(maxsize=8)
def _zero_branch_anchor(pp: PrecisionPolicy) -> tuple:
    """_newton_fc's root triple at C = 1/2, seeded from a coarse scan of
    Re = 1/2; a constant of the policy, so computed once for each."""
    best_b, best_v = None, math.inf
    b = 0.87
    while b <= 1.31:
        v = abs(_fc_parts(0.5, complex(0.5, b), pp)[0])
        if v < best_v:
            best_b, best_v = b, v
        b += 0.01
    root = _newton_fc(0.5, complex(0.5, best_b), pp)
    if root is None:
        raise Diverged("line-scan seed for C = 1/2 did not converge")
    return root


@lru_cache(maxsize=16)
def _outer_anchor(C: float, pp: PrecisionPolicy) -> tuple:
    """_newton_fc's root triple at the outer anchor C = -1 or C = 2, seeded
    from the asymptotic expansion; a constant of the policy, so computed
    once for each."""
    root = _newton_fc(C, _asymptotic_seed(C), pp)
    if root is None:
        raise Diverged(f"anchor solve failed for branch of C = {C}")
    return root


def _continue_to(C_from: float, root: tuple, C_to: float, pp: PrecisionPolicy) -> tuple:
    """Predictor-corrector continuation of root = (tau(C_from), df_C/dtau,
    df_C/dC), as _newton_fc returns it, to the same triple at C_to.

    The parameter grid is uniform in arctan C (keeps steps balanced as the
    root climbs like log |C|), with as many steps of at most 0.10 in
    arctan C as the interval needs and no minimum: one step between close
    parameters.  The tangent predictor uses the Jacobian of the last
    accepted root, from Newton's last iterate.  A step is halved on Newton
    failure, on a tau jump above 0.2, or when the root lands outside F0,
    where it would be another tile's zero.
    """
    a0, a1 = math.atan(C_from), math.atan(C_to)
    n = int(abs(a1 - a0) / 0.10) + 1
    grid = [math.tan(a0 + (a1 - a0) * i / n) for i in range(1, n + 1)]
    grid[-1] = C_to
    t, fp, fC_d = root
    C_prev = C_from
    pending = list(reversed(grid))
    depth = 0
    while pending:
        C_next = pending.pop()
        predictor = t - (fC_d / fp) * (C_next - C_prev) if fp != 0 else t
        if predictor.imag <= 0:
            predictor = t
        step = _newton_fc(C_next, predictor, pp)
        if (step is None or abs(step[0] - t) > 0.2
                or classify_domain(step[0]) is DomainTag.OUTSIDE):
            if depth > 60:
                raise Diverged(f"continuation stalled near C = {C_next}")
            pending.append(C_next)
            pending.append(0.5 * (C_prev + C_next))
            depth += 1
            continue
        (t, fp, fC_d), C_prev = step, C_next
    return t, fp, fC_d


def solve_tauC(C: float, pp: PrecisionPolicy = DEFAULT, hint=None, *,
               verify: bool = False, t_top: float = 6.0,
               cusp_delta: float = 0.08) -> TauPoint:
    """The unique zero tau(C) of f_C in the interior of F0, C real, not 0 or 1.

    Seeding: an explicit hint, else the large-|C| asymptotic inversion, else
    continuation in C from the branch's anchor (C = -1, 1/2 or 2, each
    solved once per policy).  With verify=True the result is certified by
    an argument-principle count over the truncated F0.
    """
    C = as_real(C, "C")
    if C in (0.0, 1.0):
        raise ValueError("f_C has no zero in F0 for C in {0, 1}")
    root = None
    if hint is not None:
        root = _newton_fc(C, as_tau(hint), pp)
    if root is None:
        seed = _asymptotic_seed(C) if (C <= -0.8 or C >= 1.8) else None
        if seed is not None:
            root = _newton_fc(C, seed, pp)
            if root is not None and classify_domain(root[0]) is DomainTag.OUTSIDE:
                root = None
    if root is None:
        if 0.0 < C < 1.0:
            anchor_C, anchor = 0.5, _zero_branch_anchor(pp)
        else:
            anchor_C = -1.0 if C < 0.0 else 2.0
            anchor = _outer_anchor(anchor_C, pp)
        root = anchor if C == anchor_C else _continue_to(anchor_C, anchor, C, pp)
    t = root[0]
    f, scale = _fc_value(C, t, pp)
    if not abs(f) <= max(ROOT_RESIDUAL, 1e-13 * scale):
        raise Diverged(f"residual {abs(f):.2e} too large at tau({C})")
    tag = classify_domain(t, tol=1e-9)
    if tag is not DomainTag.F0_INTERIOR:
        raise DomainEscape(f"tau({C}) = {t} is not interior to F0 ({tag.value})")
    if verify:
        n = count_zeros(lambda z: _fc_parts(C, z, pp)[:2], f0_contour(t_top, cusp_delta))
        if n != 1:
            raise CountMismatch(f"contour count {n} != 1 for f_{C}")
    return TauPoint.from_complex(t)
