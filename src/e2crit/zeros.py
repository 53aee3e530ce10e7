"""Argument-principle zero counting, Newton refinement, the holomorphic
function f_C whose unique F0-zero parametrizes the degeneracy curves, and the
square-root branch machinery behind phi_+/phi_-."""

from __future__ import annotations

import cmath
import math
from cmath import phase
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .domain import DEFAULT, LatticePoint, PrecisionPolicy, TauPoint, as_real, as_tau
from .errors import (
    BoundaryZero,
    BranchJump,
    CountMismatch,
    Diverged,
    DomainEscape,
    PhaseStepFailure,
)
from .moebius import domain_tag, f0_margin
from .qseries import (_FOUR_PI_I, PI, TWO_PI_I, _basic, _derivs, _eta1_D_direct, _eta1_g2, _eta1_g2_tail,
                      lattice_point)

ROOT_RESIDUAL = 1e-9
BOUNDARY_ZERO_TOL = 1e-9
MAX_CONTOUR_POINTS = 1 << 18
# f0_contour keeps this many polylines, with their points' lattice data
F0_KEPT = 8
# a gated walk starts on every COARSE-th contour point (see _winding)
COARSE = 4
# a polyline of LatticePoints keeps at most this many of its gated walks'
# bisection midpoints, as LatticePoints (Contour._midpoints)
MIDPOINTS_KEPT = 512
# the truncated F0 of f0_contour and of the counts over it, by default
F0_TOP = 6.0
F0_CUSP_DELTA = 0.08
# Newton stops after a step below NEWTON_TOL times the root's size
NEWTON_TOL = 1e-13
# a root in F0 must lie this far inside it
F0_INTERIOR_TOL = 1e-9


@dataclass(frozen=True)
class Contour:
    """Closed positively oriented polyline in the upper half-plane."""

    points: tuple
    max_step: float = PI / 2

    def __post_init__(self):
        if not (0.0 < self.max_step < math.inf):
            raise ValueError(f"max_step must be a finite positive float, got {self.max_step!r}")
        if not all(map(cmath.isfinite, self.points)):
            raise ValueError("contour vertices must be finite")
        if len(self.points) < 4 or self.points[0] != self.points[-1]:
            raise ValueError("contour must be a closed polyline")
        if any(p.imag <= 0 for p in self.points):
            raise ValueError("contour must stay in the upper half-plane")

    @cached_property
    def _loose_chords(self) -> frozenset:
        """The chords (i, j), 2 <= j - i <= COARSE, that a gated count
        splits untried: some point pts[k], i < k < j, lies farther than
        h = |pts[j] - pts[i]| from one end.  Where none does, the region
        between the chord and the points it skips lies in the intersection
        of the two disks of radius h about the ends, which is convex, so
        the derivative gate on the chord keeps a simple zero out of it."""
        pts, last = self.points, len(self.points) - 1
        return frozenset((i, j) for i in range(last) for j in range(i + 2, min(i + COARSE, last) + 1)
                         if any(max(abs(pts[k] - pts[i]), abs(pts[k] - pts[j])) > abs(pts[j] - pts[i])
                                for k in range(i + 1, j)))

    @cached_property
    def _midpoints(self) -> dict | None:
        """The bisection midpoints of this polyline's gated walks as
        LatticePoints, keyed by value (_kept_midpoint), up to MIDPOINTS_KEPT
        of them; None unless every point is a LatticePoint (f0_contour's).
        A later walk that bisects at a kept midpoint reads its pull-backs
        and series there, the floats of the plain midpoint.

        Memory: a kept point takes about 0.6 kB when formed, 3.7 kB once
        every evaluator has read it at eps 1e-12, and about 1.8 kB more for
        each further eps; its Lambert weights, shared by every eps, reach
        at most qseries.MAX_TERMS terms (43 kB), near eps 1e-220.  A full
        table holds about 1.9 MB at eps 1e-12, and at most about 24 MB at
        one eps however small."""
        return {} if all(type(p) is LatticePoint for p in self.points) else None


def rect_contour(re0: float, re1: float, im0: float, im1: float, n: int = 24) -> Contour:
    """Counterclockwise rectangle boundary, n points per side."""
    re0, re1 = as_real(re0, "re0"), as_real(re1, "re1")
    im0, im1 = as_real(im0, "im0"), as_real(im1, "im1")
    if not (re0 < re1 and 0 < im0 < im1):
        raise ValueError("degenerate rectangle")
    if n < 1:
        raise ValueError(f"n must be a positive number of points per side, got {n}")
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


def f0_contour(t_top: float = F0_TOP, cusp_delta: float = F0_CUSP_DELTA) -> Contour:
    """Boundary of F0 truncated at Im = t_top, with horocircle cuts of
    Euclidean diameter cusp_delta tangent at the cusps 0 and 1.

    The last F0_KEPT polylines asked for are kept, least recently used
    dropped first.  Their points are LatticePoints (qseries.lattice_point):
    each one's pull-backs are formed once, and the series values there once
    per eps, on first use.  A kept polyline also keeps the midpoints its
    gated walks bisect at as LatticePoints (Contour._midpoints).

    The base polyline has 82 points (83 with the closing one): 16 log-spaced
    on each vertical edge, 5 on each horocircle, 32 on the arc and 8 on the
    top.  For the Z2 characteristics and f_C parameters the tests sample,
    no base segment turns by more than pi/3 (0.68 and 0.65 at most for the
    Z2 and f_C counts of the verification suites), inside the pi/2
    acceptance step; the walk bisects wherever that step or the derivative
    gate requires.  A plain walk evaluates every base point; a gated
    count starts on every COARSE-th (21 of the 82) and evaluates the others
    only where the chord skipping them is rejected."""
    return _f0_polyline(*_check_f0(t_top, cusp_delta))


def _check_f0(t_top: float, cusp_delta: float) -> tuple[float, float]:
    """(t_top, cusp_delta) as floats once they bound a truncated F0: finite,
    t_top >= 3 and cusp_delta in (0, 0.25]; ValueError otherwise."""
    t_top, cusp_delta = as_real(t_top, "t_top"), as_real(cusp_delta, "cusp_delta")
    if t_top < 3 or not (0 < cusp_delta <= 0.25):
        raise ValueError("t_top >= 3 and cusp_delta in (0, 0.25] required")
    return t_top, cusp_delta


@lru_cache(maxsize=F0_KEPT)
def _f0_polyline(t_top: float, cusp_delta: float) -> Contour:
    """f0_contour's polyline, built of LatticePoints."""
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
    pts = [lattice_point(p) for p in pts]
    pts.append(pts[0])
    return Contour(tuple(pts))


def _kept_midpoint(mids: dict, m: complex) -> complex:
    """The LatticePoint mids keeps for the midpoint m, formed on first use
    while mids holds fewer than MIDPOINTS_KEPT points; m itself past that,
    or where the kept point's real part is a zero of the other sign (equal
    as keys, not as bits).  Two threads may both form a point, of the same
    floats, and so pass the cap by one each."""
    p = mids.get(m)
    if p is None:
        if len(mids) >= MIDPOINTS_KEPT:
            return m
        p = mids[m] = lattice_point(m)
    elif not m.real and math.copysign(1.0, m.real) != math.copysign(1.0, p.real):
        return m
    return p


def _boundary_zero(p, v, min_abs: float) -> BoundaryZero:
    """The error for the value v at the contour point p, below min_abs."""
    return BoundaryZero(f"|f| = {abs(v):.2e} < {min_abs:.0e} at contour point {p}")


def _exhausted() -> PhaseStepFailure:
    """The error for one more evaluation once max_points are used."""
    return PhaseStepFailure("adaptive subdivision budget exhausted")


def _winding(f, contour: Contour, min_abs: float, max_points: int, zero_sum: bool = True):
    """(winding number, points evaluated, sum of the enclosed zeros or None).

    f(p) returns the value of f, or the pair (f(p), f'(p)); a pair at the
    first contour point switches on the derivative gate of count_zeros_info
    for the whole walk.  The walk adds up the phase step phase(f(p1)/f(p0))
    over each accepted segment, so the count is the winding number of the
    sampled polyline; a rejected segment is split depth first, its left
    half first.  The closing point, equal to the first, reuses its value
    but is still counted among the points evaluated.

    A plain walk calls f once per contour point, in order, and then once
    per bisection midpoint: it evaluates len(contour.points) plus the
    midpoints.  A gated walk without zero_sum goes coarse to fine.  It
    calls f, in order, at every COARSE-th contour point, or at closer ones
    on a polyline of fewer than 13 points so that three segments remain,
    and walks the chords between them.  A chord of length h is tried only
    if every contour point it skips lies within h of both its ends (it is
    not among Contour._loose_chords, formed once per contour), and then
    passes the same phase rule and gate as a polyline segment.  The region
    between the chord and the points it skips then lies within h of both
    ends, while the gate keeps a simple zero about h away from them, so a
    zero there forces the split.  A chord that fails is split at the
    middle point it skips, and f is called there then; only a rejected
    segment between neighbouring contour points, or inside one, is bisected
    at its midpoint.  No point is evaluated twice: the walk evaluates its
    starting points, the split points and the midpoints, the last as the
    LatticePoints a polyline of them keeps (Contour._midpoints).  A gated
    walk with zero_sum starts on every contour point instead, as the sum
    seeds Newton and a chord's share of the rule error grows with its
    length.

    A gated walk keeps one node (p, f, f'/f, |f'/f|) per point evaluated and
    tests a segment's derivative gate before it forms the phase step, which
    a segment the gate rejects does without; the loose chords are looked up
    only on a contour that has any (f0_contour's polylines have none, nor
    rect_contour's at 3 or more points per side).
    Past f itself a point then costs a few tuple and float operations:
    timed with f a table lookup, the walk's own work is about a sixth of a
    gated count of Z2_(1/6,1/6) over f0_contour() and about half of one of
    f_1/2, whose values at the polyline's points are a few multiplications
    from the data each point keeps (_fc_parts).

    Every evaluation past the contour's points, or a gated count's
    starting points, counts against max_points, and PhaseStepFailure is
    raised when one more is needed once that many are used.

    Only a walk over pairs with zero_sum forms the zero sum (find_zero_in_F0
    reads it; count_zeros_info does not ask for it); otherwise the third
    value is None.  Each accepted segment then adds (p0 + p1) dlog,
    dlog = log(f(p1)/f(p0)) (its imaginary part is the phase step), to a
    moment, and moment / (4 pi i) is the midpoint rule for the contour
    integral of tau f'(tau)/f(tau) over 2 pi i: the sum of the zeros
    inside, counted with multiplicity, less that of the poles (L. M. Delves
    and J. N. Lyness, Math. Comp. 21, 1967).  Each segment also adds the
    Hermite end correction (p1 - p0)^2/6 (f'/f(p1) - f'/f(p0)), which
    lowers the rule's error from the square of the sample spacing to its
    fourth power.  For one simple zero the sum is that zero, so it seeds
    Newton at no extra evaluation.
    """
    pts = contour.points
    max_step = contour.max_step
    used = len(pts)
    total = 0.0
    moment = None
    first = f(pts[0])
    if type(first) is not tuple:
        if abs(first) < min_abs:
            raise _boundary_zero(pts[0], first, min_abs)
        vals = [first]
        for p in pts[1:-1]:
            v = f(p)
            if abs(v) < min_abs:
                raise _boundary_zero(p, v, min_abs)
            vals.append(v)
        vals.append(vals[0])
        p0, v0 = pts[0], vals[0]
        for p1, v1 in zip(pts[1:], vals[1:]):
            dphi = phase(v1 / v0)
            if abs(dphi) < max_step:
                total += dphi
            else:
                # bisect; stack holds the right ends of the pending halves,
                # and the segment ends back at (p1, v1)
                stack = []
                while True:
                    if abs(dphi) < max_step:
                        total += dphi
                        if not stack:
                            break
                        p0, v0 = p1, v1
                        p1, v1 = stack.pop()
                    else:
                        stack.append((p1, v1))
                        if used >= max_points:
                            raise _exhausted()
                        used += 1
                        if abs(p1 - p0) < 1e-14:
                            raise PhaseStepFailure(f"phase step {dphi:.3f} irreducible near {p0}")
                        p1 = 0.5 * (p0 + p1)
                        v1 = f(p1)
                        if abs(v1) < min_abs:
                            raise _boundary_zero(p1, v1, min_abs)
                    dphi = phase(v1 / v0)
            p0, v0 = p1, v1
    else:
        # i and j index the segment's ends in pts; a geometric midpoint
        # carries its left end's index, so only a neighbouring pair is bisected
        last = len(pts) - 1
        coarse = range(0, last, 1 if zero_sum else min(COARSE, last // 3))
        loose = contour._loose_chords
        mids = contour._midpoints
        used = len(coarse) + 1
        nodes = []
        for k in coarse:
            p = pts[k]
            out = f(p) if nodes else first
            v = out[0]
            if abs(v) < min_abs:
                raise _boundary_zero(p, v, min_abs)
            g = out[1] / v
            nodes.append((p, v, g, abs(g)))
        nodes.append(nodes[0])
        if zero_sum:
            moment = 0j
        i, (p0, v0, g0, r0) = 0, nodes[0]
        for j, b in zip([*coarse[1:], last], nodes[1:]):
            p1, v1, g1, r1 = b
            stack = []
            while True:
                h = p1 - p0
                if abs(h) * max(r0, r1) < 1.0 and not (loose and (i, j) in loose):
                    if zero_sum:
                        dlog = cmath.log(v1 / v0)
                        dphi = dlog.imag
                    else:
                        dphi = phase(v1 / v0)
                    if abs(dphi) < max_step:
                        total += dphi
                        if zero_sum:
                            moment += (p0 + p1) * dlog + h * h * (g1 - g0) / 6
                        if not stack:
                            break
                        i, p0, v0, g0, r0 = j, p1, v1, g1, r1
                        j, b = stack.pop()
                        p1, v1, g1, r1 = b
                        continue
                stack.append((j, b))
                if used >= max_points:
                    raise _exhausted()
                used += 1
                if j - i >= 2:
                    j = (i + j) // 2
                    p1 = pts[j]
                else:
                    if abs(h) < 1e-14:
                        dphi = cmath.log(v1 / v0).imag if zero_sum else phase(v1 / v0)
                        raise PhaseStepFailure(f"phase step {dphi:.3f} irreducible near {p0}")
                    j, p1 = i, 0.5 * (p0 + p1)
                    if mids is not None:
                        p1 = _kept_midpoint(mids, p1)
                out = f(p1)
                v1 = out[0]
                if abs(v1) < min_abs:
                    raise _boundary_zero(p1, v1, min_abs)
                g1 = out[1] / v1
                r1 = abs(g1)
                b = p1, v1, g1, r1
            i, p0, v0, g0, r0 = j, p1, v1, g1, r1
    n = total / (2 * PI)
    if abs(n - round(n)) > 1e-3:
        raise PhaseStepFailure(f"winding number {n} not close to an integer")
    return int(round(n)), used, None if moment is None else moment / _FOUR_PI_I


def count_zeros_info(f, contour: Contour, min_abs: float = BOUNDARY_ZERO_TOL,
                     max_points: int = MAX_CONTOUR_POINTS) -> tuple[int, int]:
    """(winding number of f along the contour, points evaluated).

    The points evaluated are the bisection midpoints and, without pairs,
    every contour point, the closing one included though its value is the
    first one's.  With pairs the walk starts on every COARSE-th contour
    point and evaluates the others only where a chord skipping them is
    rejected (see _winding): 59 points for Z2_(1/6,1/6) and 61 for f_1/2
    over f0_contour(), where the plain walk takes 83.  With pairs over an
    f0_contour polyline, each bisection midpoint is the LatticePoint the
    polyline keeps (Contour._midpoints), so a later count reuses its data.

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

    The walk forms no zero sum, with pairs or without: it sums phase steps
    alone (find_zero_in_F0 is the walk that forms one, see _winding).

    A value below min_abs raises BoundaryZero; min_abs must be a finite
    positive float, else ValueError is raised before f is called.
    """
    if not (min_abs > 0.0 and math.isfinite(min_abs)):
        raise ValueError(f"min_abs must be a finite positive float, got {min_abs!r}")
    return _winding(f, contour, min_abs, max_points, zero_sum=False)[:2]


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
    return TauPoint.from_complex(_newton(f, as_tau(tau0), tol, itmax))


def _newton(f, t: complex, tol: float, itmax: int) -> complex:
    """newton_refine's root as a complex, from the complex seed t."""
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
            return t
    raise Diverged(f"no convergence after {itmax} iterations, best |f| = {best_v:.2e}")


# ---------------------------------------------------------------------------
# f_C and the phi branches

def _fc_data(tau: complex, pp: PrecisionPolicy):
    """f_C's point data at tau, (eta1, g2, eta2, eta1', g2', eta2'), from
    one (eta1, g2, g3) evaluation, eta1' and g2' by _derivs."""
    e1, g2v, g3v = _basic(tau, pp)
    e1p, g2p, _ = _derivs(e1, g2v, g3v)
    return e1, g2v, tau * e1 - TWO_PI_I, e1p, g2p, e1 + tau * e1p


def _fc_parts(C: float, tau: complex, pp: PrecisionPolicy):
    """(f_C, df_C/dtau) from f_C's point data at tau (_fc_data), which a
    LatticePoint forms once per eps and keeps (_Pulled.kept)."""
    if type(tau) is LatticePoint:
        data = tau.low.kept(_fc_data, pp, tau, pp)
    else:
        data = _fc_data(tau, pp)
    e1, g2v, e2v, e1p, g2p, e2p = data
    lin = C * e1 - e2v
    d = C - tau
    d2 = d * d
    f = 12 * lin * lin - g2v * d2
    return f, 24 * lin * (C * e1p - e2p) - g2p * d2 + 2 * g2v * d


def eval_fC(C: float, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """f_C(tau) = 12 (C eta1 - eta2)^2 - g2 (C - tau)^2, in the operations
    of _fc_parts without its derivatives."""
    C, t = as_real(C, "C"), as_tau(tau)
    e1, g2v = _eta1_g2(t, pp)
    lin = C * e1 - (t * e1 - TWO_PI_I)
    d = C - t
    return 12 * lin * lin - g2v * (d * d)


def eval_fC_prime(C: float, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Analytic tau-derivative of f_C."""
    return _fc_parts(as_real(C, "C"), as_tau(tau), pp)[1]


def _fc_value(C: float, t: complex, pp: PrecisionPolicy) -> tuple[complex, float]:
    """(f_C(t), 1 + |g2| |C - t|^2) from one series evaluation, f_C in the
    operations of eval_fC (which keeps its own copy: it is the integrand of
    every f_C contour count, where the scale would be wasted).  The scale
    is inf where it is past the float range."""
    e1, g2v = _eta1_g2(t, pp)
    lin = C * e1 - (t * e1 - TWO_PI_I)
    d = C - t
    try:
        scale = 1.0 + abs(g2v) * abs(d) ** 2
    except OverflowError:
        scale = math.inf
    return 12 * lin * lin - g2v * (d * d), scale


def _scale_overflow(C: float, t: complex) -> Diverged:
    """The error for an fc_scale past the float range at t."""
    return Diverged(f"fc_scale = 1 + |g2| |C - tau|^2 is past the float range at C = {C}, tau = {t}, "
                    f"|C - tau| = {abs(C - t):.3e}")


def fc_scale(C: float, tau: complex, pp: PrecisionPolicy = DEFAULT) -> float:
    """Natural magnitude of f_C at tau, used to scale residual tolerances;
    Diverged where it is past the float range."""
    scale = _fc_value(C, tau, pp)[1]
    if scale == math.inf:
        raise _scale_overflow(C, tau)
    return scale


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
    return _branch_root(BranchState(anchor=anchor), as_tau(tau), pp)[2]


def _sqrt_walk(t: complex, pp: PrecisionPolicy) -> tuple[complex, complex, complex]:
    """(sqrt(g2(t)/12) continued down the vertical path of sqrt_g2_over_12,
    eta1(t), g2(t)): the walk's last step reads (eta1, g2) at t itself."""
    b_top = max(6.0, t.imag + 1.0)
    g2v = _eta1_g2(complex(t.real, b_top), pp)[1]
    w = cmath.sqrt(g2v / 12)
    if w.real < 0:
        w = -w
    b = b_top
    while b > t.imag:
        b = max(t.imag, b - max(0.04, 0.25 * (b - t.imag)))
        e1, g2v = _eta1_g2(complex(t.real, b), pp)
        wn = cmath.sqrt(g2v / 12)
        if abs(wn - w) > abs(wn + w):
            wn = -wn
        w = wn
    return w, e1, g2v


def _root_near(g2v: complex, anchor: complex, t: complex) -> complex:
    """The square root of g2v/12, g2v = g2(t), nearer to anchor; BranchJump
    where neither root continues it."""
    w = cmath.sqrt(g2v / 12)
    if abs(w - anchor) > abs(w + anchor):
        w = -w
    # neither root continues the anchor: the path step was too large
    if abs(w - anchor) > 0.8 * (abs(w) + abs(anchor)) + 1e-12:
        raise BranchJump(f"sqrt(g2/12) jumped from {anchor} to {w} at {t}")
    return w


def _phi(t: complex, e1: complex, w: complex, sign: int) -> complex:
    """phi_sign(t) from e1 = eta1(t) and w = sqrt(g2(t)/12)."""
    denom = e1 + sign * w
    if abs(denom) < 1e-13 * (1 + abs(e1)):
        raise ZeroDivisionError(f"eta1 {'+' if sign > 0 else '-'} sqrt(g2/12) vanishes at {t}")
    return t - TWO_PI_I / denom


def _branch_root(branch: BranchState, t: complex, pp: PrecisionPolicy):
    """(eta1, g2, w) at t, w = sqrt(g2/12) on the branch's continuous
    selection, from one (eta1, g2) series evaluation at t: the walk's last
    step without an anchor, else the one the anchored root reads.  Updates
    branch.anchor."""
    if branch.anchor is None:
        w, e1, g2v = _sqrt_walk(t, pp)
    else:
        e1, g2v = _eta1_g2(t, pp)
        w = _root_near(g2v, branch.anchor, t)
    branch.anchor = w
    return e1, g2v, w


def eval_phi(branch: BranchState, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """phi_{+-}(tau) = tau - 2 pi i / (eta1 +- sqrt(g2/12)) on the branch's
    continuous square-root selection; updates branch.anchor."""
    t = as_tau(tau)
    e1, _, w = _branch_root(branch, t, pp)
    return _phi(t, e1, w, branch.sign)


# ---------------------------------------------------------------------------
# the unique zero tau(C)

def _asymptotic_seed(C: float) -> complex:
    """Seed for tau(C), C >= 2, from the large-C expansion of phi_-.  Its
    log is taken of each factor apart, so no C up to the largest float
    overflows it."""
    a = 0.25
    for _ in range(4):
        b = (math.log(24 * PI / math.sin(2 * PI * a)) + math.log(C - a)) / (2 * PI)
        cosv = -(b + 7 / (4 * PI)) * 24 * PI * math.exp(-2 * PI * b)
        a = math.acos(cosv) / (2 * PI)
    return complex(a, b)


# the interval of C on each curve branch
_BRANCH_RANGE = {"minus": (-math.inf, 0.0), "zero": (0.0, 1.0), "plus": (1.0, math.inf)}


def branch_of(C: float) -> str:
    """Curve branch carrying tau(C); ValueError for C = 0, 1, +-inf or NaN."""
    for branch, (lo, hi) in _BRANCH_RANGE.items():
        if lo < C < hi:
            return branch
    raise ValueError(f"C = {C} is outside the curve parameter set")


# the table of tau(C) on C in [2, _TABLE_TOP]: on each interval C - 1 in
# [2^(e-1), 2^e], e = 1.._TABLE_E, the Chebyshev interpolant at
# _TABLE_POINTS first-kind points
_TABLE_POINTS, _TABLE_E = 16, 5
_TABLE_TOP = 1.0 + 2.0**_TABLE_E
_FOUR_PI2 = 4 * PI**2


def _g_parts(C: float, t: complex, pp: PrecisionPolicy) -> tuple[complex, complex]:
    """(g, dg/dtau) at t for C >= 2, from one series evaluation at t itself.

    g = f_C / (12 d) = d D + 4 pi i eta1 - 4 pi^2 / d, with d = C - tau and
    D = eta1^2 - g2/12 summed as its own series (_eta1_D_direct), and
    dg/dtau = d D' - 3 D - 4 pi^2 / d^2, as eta1' = (i / (2 pi)) D.  Each
    term keeps its relative digits, so g's rounding stays on the scale of
    its terms, where f_C = 12 lin^2 - g2 d^2 forms D by cancellation and
    loses about |C| eps.  tau(C) lies above Im 0.78 for C >= 2, so no
    pull-back is needed.
    """
    e1, D, Dp = _eta1_D_direct(cmath.exp(TWO_PI_I * t), pp)
    d = C - t
    w = _FOUR_PI2 / d
    return d * D + _FOUR_PI_I * e1 - w, d * Dp - 3 * D - w / d


def _newton_g(C: float, seed: complex, pp: PrecisionPolicy) -> complex:
    """tau(C) for C >= 2 by Newton on g from seed, stopped after a step below
    NEWTON_TOL |tau|."""
    return _newton(lambda t: _g_parts(C, t, pp), seed, NEWTON_TOL, 60)


@lru_cache(maxsize=64)   # room for the five intervals of a dozen policies
def _tau_table(e: int, eps: float) -> tuple:
    """The Chebyshev coefficients of tau(C) on C - 1 in [2^(e-1), 2^e],
    interpolated at _TABLE_POINTS first-kind points; a constant of the
    policy PrecisionPolicy(eps), so built once for each interval, on first
    use.  It is keyed on eps, as two policies are equal exactly when their
    eps are.

    The first point, nearest the top end, is Newton's root on g from the
    asymptotic seed, and each other point Newton's from the point before
    it, so the table does not depend on which solves came before.  tau(C)
    is analytic off C = 0, 1 and infinity, and each interval lies its own
    length or more from C = 1, so the interpolant converges geometrically:
    16 points hold tau(C) to about 1e-14 relative, and Newton's first step
    from it already meets its stopping test."""
    pp = PrecisionPolicy(eps)
    n = _TABLE_POINTS
    angles = [PI * (j + 0.5) / n for j in range(n)]
    half = math.ldexp(1.0, e - 2)   # half the interval's length
    t = None
    taus = []
    for a in angles:
        C = 1 + half * (3 + math.cos(a))
        t = _newton_g(C, _asymptotic_seed(C) if t is None else t, pp)
        taus.append(t)
    coeffs = [2 / n * sum(t * math.cos(k * a) for t, a in zip(taus, angles)) for k in range(n)]
    coeffs[0] /= 2
    return tuple(coeffs)


def _table_guess(C: float, pp: PrecisionPolicy) -> complex:
    """The table's value of tau(C) for C in [2, _TABLE_TOP]: the Clenshaw
    sum of the coefficients of the interval holding C - 1, the one above it
    where C - 1 is a power of two (frexp's exponent), except at the top."""
    m = C - 1.0
    e = min(math.frexp(m)[1], _TABLE_E)
    coeffs = _tau_table(e, pp.eps)
    x2 = 2 * (math.ldexp(m, 2 - e) - 3)
    b1 = b2 = 0j
    for c in coeffs[:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return coeffs[0] + 0.5 * x2 * b1 - b2


def _plus_root(C: float, pp: PrecisionPolicy) -> complex:
    """tau(C) for C >= 2: Newton on g from the table's value up to
    _TABLE_TOP, and from the asymptotic seed above it."""
    seed = _table_guess(C, pp) if C <= _TABLE_TOP else _asymptotic_seed(C)
    return _newton_g(C, seed, pp)


def _checked(C: float, t: complex, pp: PrecisionPolicy) -> complex:
    """f_C(t) for a root t of f_C, once t passes solve_tauC's two tests: the
    residual test, else Diverged, which also stands where fc_scale is past
    the float range; and t inside F0 by more than F0_INTERIOR_TOL, else
    DomainEscape naming its DomainTag.

    The residual test reads |f_C(t)| from one series evaluation and asks
    for at most max(ROOT_RESIDUAL, 1e-13 fc_scale(C, t) + tail): the
    rounding of f_C on its scale, and the truncation error of f_C as summed
    at the policy's eps.  With eta1 and g2 off by at most de1 and dg2
    (qseries._eta1_g2_tail), f = 12 lin^2 - g2 d^2, lin = d eta1 + 2 pi i,
    is off by at most tail = |d| (24 |lin| + 12 |d| de1) de1 + |d|^2 dg2,
    where 12 |lin|^2 = |f + g2 d^2| <= |f| + fc_scale.  The root, from g
    summed one term further, adds less.  Over 4,000 seeded C, tail stays
    below 3% of the rounding term at the default eps, so the test decides
    as without it; at eps 1e-6 it is up to 3e4 times that term."""
    f, scale = _fc_value(C, t, pp)
    if scale == math.inf:
        raise _scale_overflow(C, t)
    if not abs(f) <= max(ROOT_RESIDUAL, 1e-13 * scale):
        # formed only where the rounding term alone refuses the root
        de1, dg2 = _eta1_g2_tail(t, pp)
        d = abs(C - t)
        tail = d * (24 * math.sqrt((abs(f) + scale) / 12) + 12 * d * de1) * de1 + d * d * dg2
        if not abs(f) <= 1e-13 * scale + tail:
            raise Diverged(f"residual {abs(f):.2e} too large at tau({C})")
    margin = f0_margin(t)
    if margin <= F0_INTERIOR_TOL:
        tag = domain_tag(margin, F0_INTERIOR_TOL).value
        raise DomainEscape(f"tau({C}) = {t} is not interior to F0 ({tag})")
    return f


def _solve(C: float, pp: PrecisionPolicy) -> tuple[complex, complex]:
    """(tau(C), f_C(tau(C))) for a finite C not 0 or 1: solve_tauC's root
    and the residual value its test reads, which trace_curve reports.

    C is folded onto C* >= 2 by the curves' symmetries, the mirror
    tau(1 - C) = 1 - conj tau(C) and the rotation
    tau(1/(1 - C)) = 1/(1 - tau(C)), and tau(C*) is mapped back:

        C >= 2          C* = C              tau = tau*
        C <= -1         C* = 1 - C          tau = 1 - conj tau*
        -1 < C < 0      C* = 1 - 1/C        tau = 1/(1 - tau*)
        0 < C <= 1/2    C* = 1/C            tau = 1/conj tau*
        1/2 < C < 1     C* = 1/(1 - C)      tau = 1 - 1/tau*
        1 < C < 2       C* = C/(C - 1)      tau = 1 - conj(1/(1 - tau*))

    The root then passes _checked at C itself.  At 0 < |C| below about
    5.6e-309, 1/C and so C* overflow, and Diverged names C."""
    if math.isinf(1 / C):
        raise Diverged(f"C = {C!r}: its fold C* is past the float range")
    if C >= 2:
        t = _plus_root(C, pp)
    elif C <= -1:
        t = 1 - _plus_root(1 - C, pp).conjugate()
    elif C < 0:
        t = 1 / (1 - _plus_root(1 - 1 / C, pp))
    elif C <= 0.5:
        t = 1 / _plus_root(1 / C, pp).conjugate()
    elif C < 1:
        t = 1 - 1 / _plus_root(1 / (1 - C), pp)
    else:
        t = 1 - (1 / (1 - _plus_root(C / (C - 1), pp))).conjugate()
    return t, _checked(C, t, pp)


def solve_tauC(C: float, pp: PrecisionPolicy = DEFAULT, *, verify: bool = False,
               t_top: float = F0_TOP, cusp_delta: float = F0_CUSP_DELTA) -> TauPoint:
    """The unique zero tau(C) of f_C in the interior of F0, C real, not 0 or 1.

    Every C takes one path (_solve): C is folded onto C* >= 2, where Newton
    runs on g = f_C / (12 (C* - tau)), summed without cancellation
    (_g_parts), and the root is mapped back.  Newton starts from a
    Chebyshev table of tau on C* in [2, 33] (_tau_table, five dyadic
    intervals, each built once per policy on first use), whose first step
    already meets the stopping test: one g evaluation a solve.  Above
    C* = 33 it starts from the large-C asymptotic seed.  No solve depends on
    the calls made before it.  The root must pass the residual test at C,
    |f_C| <= max(1e-9, 1e-13 fc_scale + tail), tail the truncation error of
    f_C at the policy's eps (_checked), from one more series evaluation,
    and lie inside F0 by more than F0_INTERIOR_TOL (DomainEscape
    otherwise).  Where fc_scale is past the float range (|C| above about
    1e153), or C* is (0 < |C| below about 5.6e-309), Diverged is raised.
    With verify=True the result is certified by an argument-principle count
    over the truncated F0.
    """
    C = as_real(C, "C")
    if C in (0.0, 1.0):
        raise ValueError("f_C has no zero in F0 for C in {0, 1}")
    t = _solve(C, pp)[0]
    if verify:
        n = count_zeros(lambda z: _fc_parts(C, z, pp), f0_contour(t_top, cusp_delta))
        if n != 1:
            raise CountMismatch(f"contour count {n} != 1 for f_{C}")
    return TauPoint.from_complex(t)
