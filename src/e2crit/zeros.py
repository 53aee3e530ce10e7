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
from .qseries import PI, TWO_PI_I, _basic

ROOT_RESIDUAL = 1e-9
BOUNDARY_ZERO_TOL = 1e-9
MAX_CONTOUR_POINTS = 1 << 18
FD_STEP = 1e-7


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
    Euclidean diameter cusp_delta tangent at the cusps 0 and 1."""
    if t_top < 3 or not (0 < cusp_delta <= 0.25):
        raise ValueError("t_top >= 3 and cusp_delta in (0, 0.25] required")
    d = cusp_delta
    pts = []
    # left edge down, log-spaced
    n_edge, n_horo, n_arc, n_top = 32, 10, 64, 16
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


def count_zeros_info(f, contour: Contour, min_abs: float = BOUNDARY_ZERO_TOL,
                     max_points: int = MAX_CONTOUR_POINTS) -> tuple[int, int]:
    """(winding number of f along the contour, points evaluated).

    Adaptive phase accumulation: segments are bisected until every phase
    step is below contour.max_step, which keeps the winding count exact.
    """
    def val(p):
        v = f(p)
        if abs(v) < min_abs:
            raise BoundaryZero(f"|f| = {abs(v):.2e} < {min_abs:.0e} at contour point {p}")
        return v

    pts = contour.points
    used = len(pts)
    budget = max_points - used
    vals = [val(p) for p in pts]
    total = 0.0
    for i in range(len(pts) - 1):
        stack = [(pts[i], vals[i], pts[i + 1], vals[i + 1])]
        while stack:
            p0, v0, p1, v1 = stack.pop()
            dphi = cmath.phase(v1 / v0)
            if abs(dphi) < contour.max_step:
                total += dphi
                continue
            if budget <= 0:
                raise PhaseStepFailure("adaptive subdivision budget exhausted")
            if abs(p1 - p0) < 1e-14:
                raise PhaseStepFailure(f"phase step {dphi:.3f} irreducible near {p0}")
            mid = 0.5 * (p0 + p1)
            vm = val(mid)
            used += 1
            budget -= 1
            stack.append((mid, vm, p1, v1))
            stack.append((p0, v0, mid, vm))
    n = total / (2 * PI)
    if abs(n - round(n)) > 1e-3:
        raise PhaseStepFailure(f"winding number {n} not close to an integer")
    return int(round(n)), used


def count_zeros(f, contour: Contour, min_abs: float = BOUNDARY_ZERO_TOL,
                max_points: int = MAX_CONTOUR_POINTS) -> int:
    """Winding number of f along the contour (number of interior zeros)."""
    return count_zeros_info(f, contour, min_abs, max_points)[0]


def newton_refine(f, f_prime, tau0, tol: float, itmax: int = 50) -> TauPoint:
    """Refine a root of a holomorphic f from a seed inside its basin.

    f_prime may be None, in which case a central finite difference with step
    1e-7 is used.
    """
    t = as_tau(tau0)
    if f_prime is None:
        f_prime = lambda z: (f(z + FD_STEP) - f(z - FD_STEP)) / (2 * FD_STEP)
    best_t, best_v = t, abs(f(t))
    for _ in range(itmax):
        v = f(t)
        if abs(v) < best_v:
            best_t, best_v = t, abs(v)
        if abs(v) < tol:
            return TauPoint.from_complex(t)
        fp = f_prime(t)
        if fp == 0:
            raise Diverged(f"vanishing derivative at {t}")
        step = v / fp
        t = t - step
        if t.imag <= 0:
            raise Diverged(f"iterate left the upper half-plane near {best_t}")
    if best_v < tol:
        return TauPoint.from_complex(best_t)
    raise Diverged(f"no convergence after {itmax} iterations, best |f| = {best_v:.2e}")


# ---------------------------------------------------------------------------
# f_C and the phi branches

def _fc_parts(C: float, tau: complex, pp: PrecisionPolicy):
    """f_C, df_C/dtau and df_C/dC sharing one series evaluation."""
    e1, g2v, g3v = _basic(tau, pp)
    e2v = tau * e1 - TWO_PI_I
    lin = C * e1 - e2v
    f = 12 * lin * lin - g2v * (C - tau) ** 2
    e1p = (0.5j / PI) * (e1 * e1 - g2v / 12)
    e2p = e1 + tau * e1p
    g2p = (1j / PI) * (2 * e1 * g2v - 3 * g3v)
    df_dtau = 24 * lin * (C * e1p - e2p) - g2p * (C - tau) ** 2 + 2 * g2v * (C - tau)
    df_dC = 24 * lin * e1 - 2 * g2v * (C - tau)
    return f, df_dtau, df_dC


def eval_fC(C: float, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """f_C(tau) = 12 (C eta1 - eta2)^2 - g2 (C - tau)^2."""
    return _fc_parts(as_real(C, "C"), as_tau(tau), pp)[0]


def eval_fC_prime(C: float, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Analytic tau-derivative of f_C."""
    return _fc_parts(as_real(C, "C"), as_tau(tau), pp)[1]


def fc_scale(C: float, tau: complex, pp: PrecisionPolicy = DEFAULT) -> float:
    """Natural magnitude of f_C at tau, used to scale residual tolerances."""
    _, g2v, _ = _basic(tau, pp)
    return 1.0 + abs(g2v) * abs(C - tau) ** 2


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
    """Newton on f_C from t; returns the iterate or None on failure."""
    start = t
    for _ in range(itmax):
        f, fp, _ = _fc_parts(C, t, pp)
        if fp == 0:
            return None
        step = f / fp
        t = t - step
        if t.imag <= 1e-9 or abs(t - start) > 1.5:
            return None
        if abs(step) < 1e-13 * max(1.0, abs(t)):
            return t
    return None


def _residual_ok(C: float, t: complex, pp: PrecisionPolicy) -> bool:
    res = abs(_fc_parts(C, t, pp)[0])
    return res <= max(ROOT_RESIDUAL, 1e-13 * fc_scale(C, t, pp))


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
def _zero_branch_anchor(pp: PrecisionPolicy) -> complex:
    """Root of f_{1/2} on Re = 1/2 from a coarse line scan plus Newton; a
    constant of the policy, so computed once for each."""
    best_b, best_v = None, math.inf
    b = 0.87
    while b <= 1.31:
        v = abs(_fc_parts(0.5, complex(0.5, b), pp)[0])
        if v < best_v:
            best_b, best_v = b, v
        b += 0.01
    t = _newton_fc(0.5, complex(0.5, best_b), pp)
    if t is None:
        raise Diverged("line-scan seed for C = 1/2 did not converge")
    return t


def _continue_to(C_from: float, t_from: complex, C_to: float, pp: PrecisionPolicy) -> complex:
    """Predictor-corrector continuation of the root from C_from to C_to.

    The parameter grid is uniform in arctan C (keeps steps balanced as the
    root climbs like log |C|); steps halve adaptively on Newton failure or
    on an overlarge tau jump.
    """
    a0, a1 = math.atan(C_from), math.atan(C_to)
    n = max(4, int(abs(a1 - a0) / 0.10) + 1)
    grid = [math.tan(a0 + (a1 - a0) * i / n) for i in range(1, n + 1)]
    grid[-1] = C_to
    t = t_from
    C_prev = C_from
    pending = list(reversed(grid))
    depth = 0
    while pending:
        C_next = pending.pop()
        f, fp, fC_d = _fc_parts(C_prev, t, pp)
        predictor = t - (fC_d / fp) * (C_next - C_prev) if fp != 0 else t
        if predictor.imag <= 0:
            predictor = t
        t_new = _newton_fc(C_next, predictor, pp)
        if t_new is None or abs(t_new - t) > 0.2:
            if depth > 60:
                raise Diverged(f"continuation stalled near C = {C_next}")
            pending.append(C_next)
            pending.append(0.5 * (C_prev + C_next))
            depth += 1
            continue
        t, C_prev = t_new, C_next
    return t


def solve_tauC(C: float, pp: PrecisionPolicy = DEFAULT, hint=None, *,
               verify: bool = False, t_top: float = 6.0,
               cusp_delta: float = 0.08) -> TauPoint:
    """The unique zero tau(C) of f_C in the interior of F0, C real, not 0 or 1.

    Seeding: an explicit hint, else the large-|C| asymptotic inversion, else
    continuation in C from a line-scan anchor.  With verify=True the result
    is certified by an argument-principle count over the truncated F0.
    """
    C = as_real(C, "C")
    if C in (0.0, 1.0):
        raise ValueError("f_C has no zero in F0 for C in {0, 1}")
    t = None
    if hint is not None:
        t = _newton_fc(C, as_tau(hint), pp)
    if t is None:
        seed = _asymptotic_seed(C) if (C <= -0.8 or C >= 1.8) else None
        if seed is not None:
            t = _newton_fc(C, seed, pp)
            if t is not None and classify_domain(t) is DomainTag.OUTSIDE:
                t = None
    if t is None:
        if 0.0 < C < 1.0:
            anchor_C, anchor_t = 0.5, _zero_branch_anchor(pp)
        elif C < 0.0:
            anchor_C = -1.0
            anchor_t = _newton_fc(-1.0, _asymptotic_seed(-1.0), pp)
        else:
            anchor_C = 2.0
            anchor_t = _newton_fc(2.0, _asymptotic_seed(2.0), pp)
        if anchor_t is None:
            raise Diverged(f"anchor solve failed for branch of C = {C}")
        t = anchor_t if C == anchor_C else _continue_to(anchor_C, anchor_t, C, pp)
    if not _residual_ok(C, t, pp):
        raise Diverged(f"residual {abs(eval_fC(C, t, pp)):.2e} too large at tau({C})")
    tag = classify_domain(t, tol=1e-9)
    if tag is not DomainTag.F0_INTERIOR:
        raise DomainEscape(f"tau({C}) = {t} is not interior to F0 ({tag.value})")
    if verify:
        n = count_zeros(lambda z: eval_fC(C, z, pp), f0_contour(t_top, cusp_delta))
        if n != 1:
            raise CountMismatch(f"contour count {n} != 1 for f_{C}")
    return TauPoint.from_complex(t)
