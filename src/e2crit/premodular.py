"""The Hecke form Z_{r,s} and the weight-3 combination
Z2_{r,s} = Z^3 - 3 wp Z - wp', with triangle classification of the
characteristic, cusp asymptotics and location of the unique zero in F0.

Each evaluator hands (r, s) to qseries._pullback, which carries it to the
pulled-back point, returns it reduced into [-1/2, 1/2)^2 and raises
PoleAtLattice where it reduces to the lattice point; the evaluators and
_zrs2_at read that pair as it is.

Near a lattice point the cubic combination suffers catastrophic cancellation
(Z ~ 1/u with u = r + s*tau reduced), so a rearranged Laurent form
    Z2 = 3 (A^2 - P)/u + A^3 - 3 P A - Q
with A = (zeta(u) - 1/u) - r*eta1 - s*eta2, P = wp - 1/u^2, Q = wp' + 2/u^3
is used for |u| < SMALL_U_FACTOR R, R = min(1, |tau|, |tau - 1|, |tau + 1|);
it is exact and keeps every term O(u)-bounded.

The Laurent length.  P, Q and A sum the coefficients c_k of
wp(u) = 1/u^2 + sum_{k>=2} c_k u^{2k-2} up to k = K, the least K that a
closed-form tail bound certifies, capped at LAURENT_TERMS.  At tau as
_pullback returns it, R is the shortest lattice vector and R, Im tau >= 0.7.
Discs of radius R/2 about the lattice points are disjoint, so at most
(2x/R + 1)^2 - 1 nonzero ones lie within x, whence
sum' |w|^-4 <= (8 + 16/3) R^-4 and, as c_k = (2k-1) G_2k,
    |c_k| <= B (2k-1) R^(-2k),   |dc_k/dtau| <= B 2k (2k-1) R^(-2k) / Im tau,
with B = 13.34.  Carried through 3 (A^2 - P)/u - Q and its tau-derivative,
the terms past c_K move Z2 and dZ2/dtau by at most
    |u| F sum_{k>K} W_k t^(2k-4),   t = |u|/R,   W_k = 16 k^2 (2k-1),
F = B / 0.7^5.  The largest part is the derivative's
dQ/du s + Q_t + 3 dP/u - 3 P s/u^2, at most
|u| (2k-1)(8k^2 - 2k + 3) t^(2k-4) R^-4 / Im tau per dropped k; every
other part carries a further t^2 <= SMALL_U_FACTOR^2 against |A|, |dA|
<= 16 |u| and |P| <= 2, which the factor 2 in W_k covers.  K is the least
length whose bound is below eps |u|: the branch holds Z2 to eps on the
scale of its O(u) terms, where an absolute eps would leave its small
values no digits.

The tau-derivatives at fixed (r, s) come in closed form from the heat
equation 4 pi i d_tau theta1 = d_z^2 theta1, as Z = theta1'/theta1 + 2 pi i s
with z = r + s*tau:
    dZ/dtau   = -(wp' + 2 Z (wp + eta1)) / (4 pi i),
    dwp/dtau  = (4 wp (wp - eta1) + 2 Z wp' - 2 g2/3) / (4 pi i),
    dwp'/dtau = (6 wp' (wp - eta1) + Z (12 wp^2 - g2)) / (4 pi i),
using wp'' = 6 wp^2 - g2/2 and wp''' = 12 wp wp'.  Composed in
dZ2/dtau = 3 (Z^2 - wp) dZ/dtau - 3 Z dwp/dtau - dwp'/dtau, they collapse
to one line in Z2 itself:
    dZ2/dtau  = (-6 (wp + eta1) Z2 - 9 wp' (wp + Z^2) + 3 Z (g2 - 12 wp^2)) / (4 pi i).
The Laurent form is differentiated term by term instead (du/dtau = s,
dzs/du = -P, dP/du = Q, and the coefficients move with g2 and g3), so its
derivative keeps every term O(u)-bounded as well.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .domain import DEFAULT, PrecisionPolicy, TauPoint, as_pair, as_tau
from .errors import CountMismatch, Diverged, Unclassified
from .moebius import DomainTag, classify_domain
from .qseries import (
    _FAMILY_FLOOR,
    _FOUR_PI_I,
    PI,
    TWO_PI_I,
    _basic_direct,
    _derivs,
    _eta1_direct,
    _eta1_g2_direct,
    _pullback,
    _wp_family,
)
from .zeros import (BOUNDARY_ZERO_TOL, F0_CUSP_DELTA, F0_INTERIOR_TOL, F0_TOP, MAX_CONTOUR_POINTS, NEWTON_TOL,
                    _winding, f0_contour, newton_refine)

CLASSIFY_TOL = 1e-12
SMALL_U_FACTOR = 0.15
LAURENT_TERMS = 13
# B and F of the Laurent tail bound in the module docstring; R and Im tau
# are at least _FAMILY_FLOOR where _pullback leaves tau
_COEFF_BOUND = 13.34
_TAIL_FACTOR = _COEFF_BOUND / _FAMILY_FLOOR**5


class TriangleTag(Enum):
    T0 = "T0"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    BOUNDARY = "boundary"
    HALF_LATTICE = "half_lattice"


def _is_half_lattice(r: float, s: float, tol: float = CLASSIFY_TOL) -> bool:
    return abs(2 * r - round(2 * r)) < 2 * tol and abs(2 * s - round(2 * s)) < 2 * tol


def normalize_char(rs) -> tuple[float, float]:
    """Map (r, s) into [0,1] x [0,1/2] using the sign/translation symmetries
    of the pre-modular forms."""
    r, s = as_pair(rs)
    r -= math.floor(r)
    s -= math.floor(s)
    if s > 0.5 + CLASSIFY_TOL:
        r, s = (-r) % 1.0, 1.0 - s
    return r, s


def classify(rs, tol: float = CLASSIFY_TOL) -> TriangleTag:
    """Triangle membership of the characteristic after normalization."""
    r0, s0 = as_pair(rs)
    if _is_half_lattice(r0, s0, tol):
        return TriangleTag.HALF_LATTICE
    r, s = normalize_char(rs)
    interior_s = tol < s < 0.5 - tol
    if interior_s and tol < r < 0.5 - tol and r + s > 0.5 + tol:
        return TriangleTag.T0
    if interior_s and 0.5 + tol < r < 1.0 - tol and r + s > 1.0 + tol:
        return TriangleTag.T1
    if interior_s and 0.5 + tol < r < 1.0 - tol and r + s < 1.0 - tol:
        return TriangleTag.T2
    if r > tol and s > tol and r + s < 0.5 - tol:
        return TriangleTag.T3
    return TriangleTag.BOUNDARY


# ---------------------------------------------------------------------------
# evaluation

def eval_Zrs(rs, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Hecke form Z_{r,s}(tau) = zeta(r + s*tau) - r*eta1 - s*eta2."""
    tau1, _, mu, (rh, sh), q, at = _pullback(as_tau(tau), as_pair(rs))
    return mu * _wp_family(rh, sh, tau1, q, pp, at)[2]


def _zrs_parts(rs, tau, pp: PrecisionPolicy = DEFAULT) -> tuple[complex, complex]:
    """(Z_{r,s}, dZ_{r,s}/dtau) from one evaluation of the wp/Z family and
    the eta1 series at the pulled-back point, Z in the operations of
    eval_Zrs.  A weight-1 form lifts as Z(tau) = mu Z(tau1) with
    dtau1/dtau = mu^-2, so dZ/dtau = mu^2 (c Z(tau1) + mu Z'(tau1))."""
    tau1, c, mu, (rh, sh), q, at = _pullback(as_tau(tau), as_pair(rs))
    wp, wpp, z = _wp_family(rh, sh, tau1, q, pp, at)
    e1 = _eta1_direct(q, pp, at)
    dz = -(wpp + 2 * z * (wp + e1)) / _FOUR_PI_I
    return mu * z, mu * mu * (c * z + mu * dz)


def _tail_weight(k: int) -> int:
    """W_k of the Laurent tail bound in the module docstring."""
    return 16 * k * k * (2 * k - 1)


@lru_cache(maxsize=None)
def _laurent_thresholds(tol: float) -> tuple:
    """th with the Laurent tail past c_K below tol |u| whenever
    t = |u|/R < th[K - 2], for K = 2..LAURENT_TERMS - 1.

    For k > K the ratio W_{k+1} t^2 / W_k of consecutive terms of the
    bound is at most r_K = W_{K+2} SMALL_U_FACTOR^2 / W_{K+1}, as the
    branch has t < SMALL_U_FACTOR, so the tail is at most its first term
    over 1 - r_K, which solves for th[K - 2] in closed form.  No K below 2
    is certified: dropping c_2 moves Q by 2 c_2 u, which is not o(u).
    """
    th = []
    for k in range(2, LAURENT_TERMS):
        w = _tail_weight(k + 1)
        r = _tail_weight(k + 2) * SMALL_U_FACTOR**2 / w
        th.append((tol * (1.0 - r) / (_TAIL_FACTOR * w)) ** (1.0 / (2 * k - 2)))
    return tuple(th)


def _laurent_length(t: float, eps: float) -> int:
    """K, the last index of the Laurent coefficients summed at t = |u|/R:
    the least K whose tail bound is below eps |u|, or LAURENT_TERMS where
    none below it is certified."""
    return 2 + bisect_right(_laurent_thresholds(eps), t)


def _laurent_coeffs(g2v: complex, g3v: complex, kmax: int = LAURENT_TERMS) -> list:
    """Coefficients c_k of wp(u) = 1/u^2 + sum_{k>=2} c_k u^{2k-2}."""
    c = [0j, 0j, g2v / 20, g3v / 28][:kmax + 1]
    for k in range(4, kmax + 1):
        acc = 0
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c.append(3 * acc / ((2 * k + 1) * (k - 3)))
    return c


def _laurent_coeffs_tau(c: list, g2p: complex, g3p: complex) -> list:
    """tau-derivatives of the c_k of _laurent_coeffs, from g2' and g3'
    through the same recursion (its sum over m is symmetric, so the product
    rule doubles one half)."""
    cp = [0j, 0j, g2p / 20, g3p / 28][:len(c)]
    for k in range(4, len(c)):
        acc = 0j
        for m in range(2, k - 1):
            acc += cp[m] * c[k - m]
        cp.append(6 * acc / ((2 * k + 1) * (k - 3)))
    return cp


def _laurent_series(vals, kmax: int, deriv: bool):
    """(c, cp, eta1'): the c_k of _laurent_coeffs up to kmax from
    vals = (eta1, g2, g3) and, with deriv, their tau-derivatives and eta1'
    (else None and None), from one _derivs: a plain point's Laurent data up
    to K, and a LatticePoint's up to LAURENT_TERMS, kept by _Pulled.kept, of
    which the first K + 1 are the same floats (c_k and c_k' are formed from
    those of lower index alone)."""
    e1, g2v, g3v = vals
    c = _laurent_coeffs(g2v, g3v, kmax)
    if not deriv:
        return c, None, None
    e1p, g2p, g3p = _derivs(e1, g2v, g3v)
    return c, _laurent_coeffs_tau(c, g2p, g3p), e1p


def _laurent_parts(u: complex, c: list, kmax: int) -> tuple[complex, complex, complex]:
    """(P, Q, zs): regular parts of wp, wp' and zeta about u = 0, from the
    c_k up to kmax."""
    P = 0j
    Q = 0j
    zs = 0j
    u2 = u * u
    upow = u2  # u^{2k-2} starting at k = 2
    for k in range(2, kmax + 1):
        P += c[k] * upow
        Q += (2 * k - 2) * c[k] * upow / u
        zs -= c[k] * upow * u / (2 * k - 1)
        upow *= u2
    return P, Q, zs


def _laurent_tau_parts(u: complex, c: list, cp: list, kmax: int) -> tuple[complex, complex, complex, complex]:
    """(P_t, Q_t, zs_t, dQ/du): the tau-derivatives at fixed u of the parts
    _laurent_parts returns, from the coefficient derivatives cp, and
    dQ/du = wp'' - 6/u^4, each up to kmax."""
    P_t = Q_t = zs_t = dQ_du = 0j
    u2 = u * u
    upow = 1.0  # u^{2k-4} starting at k = 2
    for k in range(2, kmax + 1):
        a = cp[k] * upow * u
        P_t += a * u
        Q_t += (2 * k - 2) * a
        zs_t -= a * u2 / (2 * k - 1)
        dQ_du += (2 * k - 2) * (2 * k - 3) * c[k] * upow
        upow *= u2
    return P_t, Q_t, zs_t, dQ_du


def _zrs2_at(rh: float, sh: float, tau: complex, q: complex, pp: PrecisionPolicy,
             deriv: bool = False, at=None):
    """Z2 at the characteristic (rh, sh), tau and its nome q as _pullback
    returns them; with deriv, the pair (Z2, dZ2/dtau) at fixed (rh, sh), Z2
    in the same operations.  at is the lattice data _pullback returns, read
    in place of the series when given."""
    u = rh + sh * tau
    # the Laurent switch radius is SMALL_U_FACTOR R with R <= 1, so most
    # points skip forming R
    au = abs(u)
    R = min(1.0, abs(tau), abs(tau - 1), abs(tau + 1)) if au < SMALL_U_FACTOR else 0.0
    if au < SMALL_U_FACTOR * R:
        K = _laurent_length(au / R, pp.eps)
        if at is None:
            vals = _basic_direct(q, pp)
            c, cp, e1p = _laurent_series(vals, K, deriv)
        else:
            vals = at.basic(pp)
            c, cp, e1p = at.kept(_laurent_series, pp, vals, LAURENT_TERMS, True)
        e1 = vals[0]
        e2v = tau * e1 - TWO_PI_I
        P, Q, zs = _laurent_parts(u, c, K)
        A = zs - rh * e1 - sh * e2v
        z2 = 3 * (A * A - P) / u + (A**3 - 3 * P * A - Q)
        if not deriv:
            return z2
        # partial tau-derivatives at fixed u, then the chain rule du/dtau = sh
        P_t, Q_t, zs_t, dQ_du = _laurent_tau_parts(u, c, cp, K)
        dP = Q * sh + P_t
        dQ = dQ_du * sh + Q_t
        dA = zs_t - P * sh - rh * e1p - sh * (e1 + tau * e1p)
        dz2 = (3 * (2 * A * dA - dP) / u - 3 * (A * A - P) * sh / (u * u)
               + 3 * A * A * dA - 3 * (dP * A + P * dA) - dQ)
        return z2, dz2
    wp, wpp, z = _wp_family(rh, sh, tau, q, pp, at)
    z2 = z**3 - 3 * wp * z - wpp
    if not deriv:
        return z2
    e1, g2v = _eta1_g2_direct(q, pp, at)
    return z2, (-6 * (wp + e1) * z2 - 9 * wpp * (wp + z * z)
                + 3 * z * (g2v - 12 * wp * wp)) / _FOUR_PI_I


def eval_Zrs2(rs, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Weight-3 pre-modular form Z2_{r,s}(tau) = Z^3 - 3 wp Z - wp'."""
    tau1, c, mu, (rh, sh), q, at = _pullback(as_tau(tau), as_pair(rs))
    z2 = _zrs2_at(rh, sh, tau1, q, pp, False, at)
    return mu**3 * z2 if c else z2


def _zrs2_parts(rs, tau, pp: PrecisionPolicy = DEFAULT) -> tuple[complex, complex]:
    """(Z2_{r,s}, dZ2_{r,s}/dtau) sharing one series evaluation, Z2 in the
    operations of eval_Zrs2: the pair the contour counts and Newton take.
    A weight-3 form lifts as Z2(tau) = mu^3 Z2(tau1), so
    dZ2/dtau = mu^4 (3 c Z2(tau1) + mu Z2'(tau1))."""
    tau1, c, mu, (rh, sh), q, at = _pullback(as_tau(tau), as_pair(rs))
    z2, dz2 = _zrs2_at(rh, sh, tau1, q, pp, True, at)
    if not c:
        return z2, dz2
    mu3 = mu**3
    return mu3 * z2, mu3 * mu * (3 * c * z2 + mu * dz2)


def blowup_FCs(C: float, s: float, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Blow-up F_{C,s}(tau) = (4 (tau - C)/s) Z2_{-Cs,s}(tau), which
    converges to f_C(tau) on compact subsets of F0 as s -> 0."""
    if not (0.0 < s < 1.0 / (4 * (1 + abs(C)) ** 2)):
        raise ValueError(f"s = {s} outside (0, 1/(4(1+|C|)^2)) for C = {C}")
    t = as_tau(tau)
    return 4 * (t - C) / s * eval_Zrs2((-C * s, s), t, pp)


# ---------------------------------------------------------------------------
# cusp asymptotics (normalized to r, s in [0,1))

@dataclass(frozen=True)
class CuspValue:
    """kind: 'finite' (value = limit), 'coeff_q' / 'coeff_sqrt_q' (value =
    leading coefficient of q resp. q^{1/2}), or 'divergent' (value None)."""

    kind: str
    value: complex | None


def cusp_value(rs, cusp: str) -> CuspValue:
    """Behaviour of Z2_{r,s} at a cusp of F0 ('zero', 'one' or 'infinity'),
    classified by the distance of s, r or r + s (Z2 is 1-periodic in r and
    s) to the nearest integer and half-integer."""
    r, s = as_pair(rs)
    if _is_half_lattice(r, s):
        raise ValueError("characteristic is half-integral; Z2 vanishes identically")
    r -= math.floor(r)
    s -= math.floor(s)
    tol = 1e-9
    if cusp == "infinity":
        if abs(s - round(s)) < tol:
            return CuspValue("coeff_q", -48 * PI**3 * math.sin(2 * PI * r))
        if abs(s - 0.5) < tol:
            return CuspValue("coeff_sqrt_q", -12 * PI**3 * math.sin(2 * PI * r))
        return CuspValue("finite", 4j * PI**3 * s * (1 - s) * (2 * s - 1))
    if cusp == "zero":
        if abs(r - round(2 * r) / 2) > tol:
            return CuspValue("divergent", None)
        raise Unclassified(f"cusp 0 behaviour not classified for r = {r}")
    if cusp == "one":
        w = r + s
        if abs(w - round(2 * w) / 2) > tol:
            return CuspValue("divergent", None)
        raise Unclassified(f"cusp 1 behaviour not classified for r + s = {w}")
    raise ValueError(f"cusp must be 'zero', 'one' or 'infinity', got {cusp!r}")


# ---------------------------------------------------------------------------
# the unique zero in F0

_EXPECTED_COUNT = {
    TriangleTag.T0: 0,
    TriangleTag.T1: 1,
    TriangleTag.T2: 1,
    TriangleTag.T3: 1,
}


def find_zero_in_F0(rs, pp: PrecisionPolicy = DEFAULT, t_top: float = F0_TOP,
                    cusp_delta: float = F0_CUSP_DELTA) -> TauPoint | None:
    """Locate the zero of Z2_{r,s} in F0, or None for triangle-0
    characteristics.  The argument-principle count over the truncated F0 is
    checked against the predicted value in every case; the same walk yields
    the enclosed zero (the contour integral of tau Z2'/Z2), which seeds one
    Newton refinement."""
    tag = classify(rs)
    if tag not in _EXPECTED_COUNT:
        raise ValueError(f"characteristic {rs} is {tag.value}; zero structure undefined")
    f = lambda t: _zrs2_parts(rs, t, pp)
    n, _, seed = _winding(f, f0_contour(t_top, cusp_delta), BOUNDARY_ZERO_TOL, MAX_CONTOUR_POINTS)
    expected = _EXPECTED_COUNT[tag]
    if n != expected:
        raise CountMismatch(f"count {n} != {expected} for Z2_{rs} over truncated F0")
    if expected == 0:
        return None
    try:
        root = newton_refine(f, seed, tol=NEWTON_TOL)
    except Diverged as exc:
        raise Diverged(f"Newton from the contour seed {seed} failed for Z2_{rs}: {exc}") from exc
    where = classify_domain(root, tol=F0_INTERIOR_TOL)
    if where is not DomainTag.F0_INTERIOR:
        raise Diverged(f"Newton from the contour seed {seed} reached {root.z} ({where.value}) for Z2_{rs}")
    return root
