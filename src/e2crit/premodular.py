"""The Hecke form Z_{r,s} and the weight-3 combination
Z2_{r,s} = Z^3 - 3 wp Z - wp', with triangle classification of the
characteristic, cusp asymptotics and location of the unique zero in F0.

Near a lattice point the cubic combination suffers catastrophic cancellation
(Z ~ 1/u with u = r + s*tau reduced), so a rearranged Laurent form
    Z2 = 3 (A^2 - P)/u + A^3 - 3 P A - Q
with A = (zeta(u) - 1/u) - r*eta1 - s*eta2, P = wp - 1/u^2, Q = wp' + 2/u^3
is used for small |u|; it is exact and keeps every term O(u)-bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .domain import DEFAULT, PrecisionPolicy, TauPoint, as_pair, as_tau
from .errors import CountMismatch, Diverged, PoleAtLattice, Unclassified
from .moebius import DomainTag, classify_domain, reduce_to_F
from .qseries import (
    PI,
    TWO_PI_I,
    _basic_direct,
    _char_pullback,
    _nome,
    _wp_family,
    reduce_lattice,
)
from .zeros import count_zeros, f0_contour, newton_refine

CLASSIFY_TOL = 1e-12
SMALL_U_FACTOR = 0.15
LAURENT_TERMS = 13


class TriangleTag(Enum):
    T0 = "T0"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    BOUNDARY = "boundary"
    HALF_LATTICE = "half_lattice"


def _is_lattice(r: float, s: float, tol: float = CLASSIFY_TOL) -> bool:
    return abs(r - round(r)) < tol and abs(s - round(s)) < tol


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
    r, s = as_pair(rs)
    if _is_lattice(r, s):
        raise PoleAtLattice(f"Z_{{{r},{s}}} has a pole (lattice characteristic)")
    t = as_tau(tau)
    if t.imag >= pp.min_im_direct:
        return _wp_family(r, s, t, pp)[2]
    t1, gam = reduce_to_F(t)
    r1, s1 = _char_pullback(r, s, gam)
    return gam.mu(t1.z) * _wp_family(r1, s1, t1.z, pp)[2]


def _laurent_coeffs(g2v: complex, g3v: complex, kmax: int = LAURENT_TERMS) -> list:
    """Coefficients c_k of wp(u) = 1/u^2 + sum_{k>=2} c_k u^{2k-2}."""
    c = [0j] * (kmax + 1)
    c[2] = g2v / 20
    c[3] = g3v / 28
    for k in range(4, kmax + 1):
        c[k] = 3 * sum(c[m] * c[k - m] for m in range(2, k - 1)) / ((2 * k + 1) * (k - 3))
    return c


def _laurent_parts(u: complex, c: list) -> tuple[complex, complex, complex]:
    """(P, Q, zs): regular parts of wp, wp' and zeta about u = 0."""
    P = 0j
    Q = 0j
    zs = 0j
    u2 = u * u
    upow = u2  # u^{2k-2} starting at k = 2
    for k in range(2, len(c)):
        P += c[k] * upow
        Q += (2 * k - 2) * c[k] * upow / u
        zs -= c[k] * upow * u / (2 * k - 1)
        upow *= u2
    return P, Q, zs


def _zrs2_at(r: float, s: float, tau: complex, pp: PrecisionPolicy) -> complex:
    """Z2 at a point with Im tau above the direct-evaluation threshold."""
    rh, sh = reduce_lattice(r, s)
    u = rh + sh * tau
    d_min = min(1.0, abs(tau), abs(tau - 1), abs(tau + 1))
    q = _nome(tau)
    e1, g2v, g3v = _basic_direct(tau, pp, q)
    e2v = tau * e1 - TWO_PI_I
    if abs(u) < SMALL_U_FACTOR * d_min:
        P, Q, zs = _laurent_parts(u, _laurent_coeffs(g2v, g3v))
        A = zs - rh * e1 - sh * e2v
        return 3 * (A * A - P) / u + (A**3 - 3 * P * A - Q)
    wp, wpp, z_hecke = _wp_family(r, s, tau, pp, q)
    return z_hecke**3 - 3 * wp * z_hecke - wpp


def eval_Zrs2(rs, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Weight-3 pre-modular form Z2_{r,s}(tau) = Z^3 - 3 wp Z - wp'."""
    r, s = as_pair(rs)
    if _is_lattice(r, s):
        raise PoleAtLattice(f"Z2_{{{r},{s}}} has a pole (lattice characteristic)")
    t = as_tau(tau)
    if t.imag >= pp.min_im_direct:
        return _zrs2_at(r, s, t, pp)
    t1, gam = reduce_to_F(t)
    r1, s1 = _char_pullback(r, s, gam)
    return gam.mu(t1.z) ** 3 * _zrs2_at(r1, s1, t1.z, pp)


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


def cusp_value(rs, cusp: str, pp: PrecisionPolicy = DEFAULT) -> CuspValue:
    """Behaviour of Z2_{r,s} at a cusp of F0 ('zero', 'one' or 'infinity')."""
    r, s = as_pair(rs)
    if _is_half_lattice(r, s):
        raise ValueError("characteristic is half-integral; Z2 vanishes identically")
    r -= math.floor(r)
    s -= math.floor(s)
    tol = 1e-9
    if cusp == "infinity":
        if abs(s) < tol:
            return CuspValue("coeff_q", -48 * PI**3 * math.sin(2 * PI * r))
        if abs(s - 0.5) < tol:
            return CuspValue("coeff_sqrt_q", -12 * PI**3 * math.sin(2 * PI * r))
        return CuspValue("finite", 4j * PI**3 * s * (1 - s) * (2 * s - 1))
    if cusp == "zero":
        if tol < r < 0.5 - tol or 0.5 + tol < r < 1.0 - tol:
            return CuspValue("divergent", None)
        raise Unclassified(f"cusp 0 behaviour not classified for r = {r}")
    if cusp == "one":
        w = r + s
        for lo, hi in ((0.0, 0.5), (0.5, 1.0), (1.0, 1.5)):
            if lo + tol < w < hi - tol:
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


def find_zero_in_F0(rs, pp: PrecisionPolicy = DEFAULT, t_top: float = 6.0,
                    cusp_delta: float = 0.08) -> TauPoint | None:
    """Locate the zero of Z2_{r,s} in F0, or None for triangle-0
    characteristics.  The argument-principle count over the truncated F0 is
    checked against the predicted value in every case."""
    tag = classify(rs)
    if tag not in _EXPECTED_COUNT:
        raise ValueError(f"characteristic {rs} is {tag.value}; zero structure undefined")
    f = lambda t: eval_Zrs2(rs, t, pp)
    n = count_zeros(f, f0_contour(t_top, cusp_delta))
    expected = _EXPECTED_COUNT[tag]
    if n != expected:
        raise CountMismatch(f"count {n} != {expected} for Z2_{rs} over truncated F0")
    if expected == 0:
        return None
    # coarse interior scan for a Newton seed, geometric in Im tau
    im_lo, im_hi = max(0.15, cusp_delta), 0.85 * t_top
    seeds = []
    for i in range(33):
        for j in range(33):
            t = complex(0.03 + 0.94 * i / 32, im_lo * (im_hi / im_lo) ** (j / 32))
            if abs(t - 0.5) < 0.52:
                continue
            seeds.append((abs(f(t)), t))
    seeds.sort(key=lambda p: p[0])
    last_err = None
    for _, seed in seeds[:4]:
        try:
            root = newton_refine(f, None, seed, tol=100 * pp.eps)
        except Diverged as exc:
            last_err = exc
            continue
        if classify_domain(root, tol=1e-9) is DomainTag.F0_INTERIOR:
            return root
    raise Diverged(f"could not localize the zero of Z2_{rs}: {last_err}")
