"""Weierstrass/Eisenstein layer: eta1, eta2, E2, g2, g3, e_k, wp, wp', zeta
and their tau-derivatives, evaluated by truncated q-expansions with certified
tail bounds.

Conventions: q = exp(2*pi*i*tau); z = r + s*tau in lattice coordinates with
periods 1 and tau.  Arguments with Im tau below the policy threshold are
pulled back to the SL(2,Z) fundamental domain first, where |q| <= e^{-pi*r3}
makes every series short.
"""

from __future__ import annotations

import cmath
import math
import struct
import threading
from bisect import bisect_right

from ._kernels_py import horner, wp_sums
from .domain import DEFAULT, PrecisionPolicy, as_pair, as_tau
from .errors import PoleAtLattice, TruncationFailure
from .moebius import reduce_to_F

PI = math.pi
TWO_PI_I = 2j * PI

_HALF_PERIODS = {1: (0.5, 0.0), 2: (0.0, 0.5), 3: (0.5, 0.5)}

# ---------------------------------------------------------------------------
# divisor-sum coefficients and tail bounds

_RHO_MAX = 0.95  # no series is summed at rho = |q| max(|x|, 1/|x|) >= this

_sigma_cache: dict[int, list] = {}


def _sigma(power: int, n: int) -> list:
    """sigma_power(k) for k = 1..n as floats (index 0 unused)."""
    arr = _sigma_cache.get(power)
    if arr is None or len(arr) <= n:
        size = max(n + 1, 64, 0 if arr is None else 2 * len(arr))
        arr = [0.0] * size
        for d in range(1, size):
            dp = float(d) ** power
            for m in range(d, size, d):
                arr[m] += dp
        _sigma_cache[power] = arr
    return arr


def _majorant_tails(rho: float, tol: float, max_terms: int, power: int) -> list:
    """tails[n] bounds sum_{k>n} k^power rho^k for n = 0..K.

    The terms are summed up to the first one (past k = 4) below tol*1e-8,
    plus a geometric remainder once the term ratio drops below 1.
    """
    terms = []
    k = 1
    while k <= max_terms + 8:
        t = float(k) ** power * rho**k
        terms.append(t)
        if k > 4 and t < tol * 1e-8:
            break
        k += 1
    klast = len(terms)
    ratio = rho * ((klast + 1) / klast) ** power
    suffix = terms[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    tails = [0.0] * (klast + 1)
    for k in range(klast, 0, -1):  # terms[k - 1] is the k-th term
        tails[k] = suffix
        suffix += terms[k - 1]
    tails[0] = suffix
    return tails


def _nterms(rho: float, tol: float, max_terms: int, power: int = 3) -> int:
    """Smallest N with sum_{k>N} k^power rho^k < tol, by the majorant tail.

    This is the definition of every truncation length; `_truncation` looks
    the same N up in a table.
    """
    if rho <= 0.0:
        return 1
    if rho >= _RHO_MAX:
        raise TruncationFailure(f"series parameter rho={rho:.4f} too close to 1")
    tails = _majorant_tails(rho, tol, max_terms, power)
    best = next((n for n in range(1, len(tails)) if tails[n] < tol), None)
    if best is None or best > max_terms:
        raise TruncationFailure(
            f"cannot reach tolerance {tol:.2e} with {max_terms} terms at rho={rho:.4f}"
        )
    return best


# N(rho) = _nterms(rho, tol, max_terms, power) is nondecreasing in rho, so it
# is fixed by its thresholds: bounds[n - 1] is the least float rho with
# N(rho) > n, and N(rho) = 1 + bisect_right(bounds, rho).  One list per
# (tol, max_terms, power), grown on demand up to the largest rho asked for.
_bounds: dict[tuple, list] = {}
_bounds_lock = threading.Lock()


def _truncation(rho: float, tol: float, max_terms: int, power: int) -> int:
    """_nterms(rho, tol, max_terms, power), looked up in the threshold table."""
    bounds = _bounds.get((tol, max_terms, power))
    if bounds is not None and rho < bounds[-1]:
        return bisect_right(bounds, rho) + 1
    with _bounds_lock:
        bounds = _bounds.setdefault((tol, max_terms, power), [])
        while not bounds or (rho >= bounds[-1] and bounds[-1] < _RHO_MAX
                             and len(bounds) < max_terms):
            bounds.append(_threshold(len(bounds) + 1, tol, max_terms, power))
    if rho < bounds[-1]:
        return bisect_right(bounds, rho) + 1
    # past the last threshold (or not a number): the definition raises
    return _nterms(rho, tol, max_terms, power)


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def _threshold(n: int, tol: float, max_terms: int, power: int) -> float:
    """The least float rho with _nterms(rho, ...) > n (a failure counting as
    more than max_terms), or _RHO_MAX when there is none below it.

    The tail beyond n falls off like rho^(n+1), so a few secant steps on
    log rho against the same majorant tail land within a few ulps of the
    threshold; a galloping walk, then a bisection, over adjacent floats,
    each step decided by _nterms itself, pins it exactly.
    """
    def above(rho):
        try:
            return _nterms(rho, tol, max_terms, power) > n
        except TruncationFailure:
            return True

    log_tol = math.log(tol)
    log_max = math.log(_RHO_MAX)

    def gap(x):
        tails = _majorant_tails(math.exp(x), tol, max_terms, power)
        tail = tails[min(n, len(tails) - 1)]
        return math.log(tail) - log_tol if 0.0 < tail < math.inf else math.nan

    # where the first neglected term alone reaches tol
    x0 = min(log_max, (log_tol - power * math.log(n + 1)) / (n + 1))
    g0 = gap(x0)
    x1 = x0 if math.isnan(g0) else x0 - g0 / (n + 1)
    for _ in range(8):
        g1 = gap(x1)
        if math.isnan(g1) or g1 == g0:
            break
        dx = g1 * (x1 - x0) / (g1 - g0)
        x0, g0, x1 = x1, g1, min(log_max, x1 - dx)
        if abs(dx) <= 1e-15 * abs(x1):
            break
    guess = _float_bits(math.exp(x1))
    step = 1
    if above(_bits_float(guess)):
        hi = guess
        while above(_bits_float(hi - step)):
            hi -= step
            step *= 2
        lo = hi - step
    else:
        lo = guess
        while not above(_bits_float(lo + step)):
            lo += step
            step *= 2
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(_bits_float(mid)):
            hi = mid
        else:
            lo = mid
    return min(_bits_float(hi), _RHO_MAX)


def choose_truncation(im_tau: float, eps: float, pp: PrecisionPolicy = DEFAULT) -> int:
    """Series length for the weight-2/4 expansions at height im_tau.

    Returns N such that sum_{k>N} k^3 |q|^k < eps/(320 pi^4) with
    |q| = e^{-2 pi im_tau}; k^3 majorizes sigma_1 and (up to the constant
    folded into the target) sigma_3.
    """
    if im_tau < DEFAULT.min_im_direct - 1e-12:
        raise ValueError(f"im_tau below direct-evaluation threshold: {im_tau}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    rho = math.exp(-2 * PI * im_tau)
    return _truncation(rho, eps / (320 * PI**4), pp.max_terms, 3)


# ---------------------------------------------------------------------------
# weight-2/4/6 series with modular pull-back

def _nome(tau: complex) -> complex:
    """q = exp(2 pi i tau), after the exact translation of tau by the integer
    nearest Re tau: q is 1-periodic, and a large Re tau would cost digits."""
    return cmath.exp(TWO_PI_I * (tau - round(tau.real)))


def _basic_direct(tau: complex, pp: PrecisionPolicy, q: complex | None = None):
    """(eta1, g2, g3) by direct series; requires Im tau >= pp.min_im_direct.
    q, when given, is _nome(tau)."""
    if q is None:
        q = _nome(tau)
    # one length serves all three series: k^5 majorizes sigma_5 up to zeta(5),
    # and the tolerance target absorbs the largest prefactor (504 * 8 pi^6/27)
    n = _truncation(abs(q), pp.eps / 150000.0, pp.max_terms, 5)
    s1 = horner(_sigma(1, n), q, n)
    s3 = horner(_sigma(3, n), q, n)
    s5 = horner(_sigma(5, n), q, n)
    eta1 = PI**2 / 3 - 8 * PI**2 * s1
    g2 = (4.0 / 3.0) * PI**4 + 320 * PI**4 * s3
    g3 = (8 * PI**6 / 27) * (1 - 504 * s5)
    return eta1, g2, g3


def _basic(tau: complex, pp: PrecisionPolicy):
    """(eta1, g2, g3) anywhere in H, reducing low points to the SL(2,Z) domain."""
    if tau.imag >= pp.min_im_direct:
        return _basic_direct(tau, pp)
    t1, gam = reduce_to_F(tau)
    z1 = t1.z
    e1, g2v, g3v = _basic_direct(z1, pp)
    mu = gam.c * z1 + gam.d
    e2v = z1 * e1 - TWO_PI_I
    return mu * (gam.c * e2v + gam.d * e1), mu**4 * g2v, mu**6 * g3v


def eval_eta1(tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Quasi-period eta1(tau) = pi^2/3 - 8 pi^2 sum sigma_1(k) q^k."""
    return _basic(as_tau(tau), pp)[0]


def eval_eta2(tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Second quasi-period via the Legendre relation eta2 = tau*eta1 - 2*pi*i."""
    t = as_tau(tau)
    return t * _basic(t, pp)[0] - TWO_PI_I


def eval_E2(tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Normalized weight-2 Eisenstein series, (3/pi^2) * eta1."""
    return 3 / PI**2 * _basic(as_tau(tau), pp)[0]


def eval_invariants(tau, pp: PrecisionPolicy = DEFAULT) -> tuple[complex, complex]:
    """Weierstrass invariants (g2, g3)."""
    _, g2v, g3v = _basic(as_tau(tau), pp)
    return g2v, g3v


def eval_derivatives(tau, pp: PrecisionPolicy = DEFAULT) -> tuple[complex, complex, complex]:
    """Holomorphic tau-derivatives (eta1', g2', g3') via closed-form identities."""
    e1, g2v, g3v = _basic(as_tau(tau), pp)
    eta1_p = (0.5j / PI) * (e1 * e1 - g2v / 12)
    g2_p = (1j / PI) * (2 * e1 * g2v - 3 * g3v)
    g3_p = (1j / PI) * (3 * g3v * e1 - g2v * g2v / 6)
    return eta1_p, g2_p, g3_p


# ---------------------------------------------------------------------------
# Weierstrass family at z = r + s*tau

def reduce_lattice(r: float, s: float) -> tuple[float, float]:
    """Translate lattice coordinates into [-1/2, 1/2)^2."""
    return r - math.floor(r + 0.5), s - math.floor(s + 0.5)


def _wp_family(r: float, s: float, tau: complex, pp: PrecisionPolicy,
               q: complex | None = None):
    """(wp, wp', Z_{rh,sh}) at the reduced point; Im tau must be comfortable.
    q, when given, is _nome(tau).

    Z_{rh,sh} = zeta(z_reduced) - rh*eta1 - sh*eta2 is returned instead of
    zeta itself so callers can assemble either zeta or the Hecke form without
    losing the exact (r,s)-periodicity.
    """
    rh, sh = reduce_lattice(r, s)
    if abs(rh) < 1e-12 and abs(sh) < 1e-12:
        raise PoleAtLattice(f"z = {r} + {s}*tau reduces to a lattice point")
    # parity: evaluate the sign-canonical representative so that wp(z) == wp(-z)
    # and zeta(z) == -zeta(-z) hold exactly as evaluated
    sign = 1.0
    if sh < 0.0 or (sh == 0.0 and rh < 0.0):
        rh, sh, sign = -rh, -sh, -1.0
    if q is None:
        q = _nome(tau)
    x = cmath.exp(TWO_PI_I * (rh + sh * tau))
    ax = abs(x)
    rho = abs(q) * max(ax, 1.0 / ax)
    n = _truncation(rho, pp.eps / (64 * PI**3), pp.max_terms, 3)
    sp, spp, sz = wp_sums(x, q, n)
    one_minus = 1 - x
    wp = -4 * PI**2 * (1.0 / 12.0 + x / one_minus**2 + sp)
    wpp = -8j * PI**3 * (x / one_minus**2 + 2 * x * x / one_minus**3 + spp)
    z_hecke = 2j * PI * sh - 1j * PI * (1 + x) / one_minus - TWO_PI_I * sz
    return wp, sign * wpp, sign * z_hecke


def _char_pullback(r: float, s: float, gam) -> tuple[float, float]:
    """Lattice coordinates of z*(c*tau1+d) in the tau1-lattice for tau = gam*tau1."""
    return gam.d * r + gam.b * s, gam.c * r + gam.a * s


def eval_weierstrass(z, tau, pp: PrecisionPolicy = DEFAULT) -> tuple[complex, complex, complex]:
    """(wp, wp', zeta) at z = r + s*tau.

    z is reduced into the validity strip |q| < |e^{2 pi i z}| < |q|^{-1}; the
    quasi-period ledger restores zeta at the original point.
    """
    r, s = as_pair(z)
    t = as_tau(tau)
    if t.imag >= pp.min_im_direct:
        q = _nome(t)
        wp, wpp, z_hecke = _wp_family(r, s, t, pp, q)
        e1, _, _ = _basic_direct(t, pp, q)
        e2v = t * e1 - TWO_PI_I
        return wp, wpp, z_hecke + r * e1 + s * e2v
    t1, gam = reduce_to_F(t)
    z1 = t1.z
    mu = gam.c * z1 + gam.d
    r1, s1 = _char_pullback(r, s, gam)
    q1 = _nome(z1)
    wp1, wpp1, z_hecke1 = _wp_family(r1, s1, z1, pp, q1)
    e1, _, _ = _basic_direct(z1, pp, q1)
    e2v = z1 * e1 - TWO_PI_I
    zeta1 = z_hecke1 + r1 * e1 + s1 * e2v
    return mu * mu * wp1, mu**3 * wpp1, mu * zeta1


def eval_ek(k: int, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Half-period value e_k = wp(omega_k/2 | tau), k in {1, 2, 3}."""
    if k not in _HALF_PERIODS:
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    return eval_weierstrass(_HALF_PERIODS[k], tau, pp)[0]
