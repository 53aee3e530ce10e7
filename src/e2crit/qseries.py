"""Weierstrass/Eisenstein layer: eta1, eta2, E2, g2, g3, e_k, wp, wp', zeta
and their tau-derivatives, evaluated by truncated q-expansions with certified
tail bounds.

Conventions: q = exp(2*pi*i*tau); z = r + s*tau in lattice coordinates with
periods 1 and tau.  `_pullback` is the only place where arguments are pulled
back: tau is translated by round(Re tau), carrying the characteristic
exactly, and points below the policy's height floor (twice as high for the
wp/Z family as for (eta1, g2, g3)) are reduced to the SL(2,Z) fundamental
domain, where |q| <= e^{-pi*r3} makes every series short.  Each evaluator
then applies its weight once.
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
from .moebius import reduce_to_F_ints

PI = math.pi
TWO_PI_I = 2j * PI
_I_PI, _HALF_I_PI = 1j / PI, 0.5j / PI

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
    if im_tau < pp.min_im_direct - 1e-12:
        raise ValueError(f"im_tau below direct-evaluation threshold: {im_tau}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    rho = math.exp(-2 * PI * im_tau)
    return _truncation(rho, eps / (320 * PI**4), pp.max_terms, 3)


# ---------------------------------------------------------------------------
# weight-2/4/6 series, the modular pull-back seam and the transformation laws

def _pullback(tau: complex, pp: PrecisionPolicy, rs=None):
    """(tau1, c, mu, rs1): the point tau1 at which the series are summed, with
    tau = gamma . tau1, c the lower-left entry of gamma and mu = c tau1 + d;
    a form of weight w is mu^w times its value at tau1.

    tau is translated by the integer k nearest Re tau (c = 0, mu = 1), then
    reduced to F if its height is below the floor: pp.min_im_direct for the
    (eta1, g2, g3) series, whose ratio is |q|, and 2 pp.min_im_direct when rs
    is given, for the wp/Z family, whose ratio |q| max(|x|, 1/|x|) reaches
    |q|^{1/2}.  Either way every series is summed at a ratio of at most
    e^{-2 pi pp.min_im_direct} while 2 pp.min_im_direct <= sqrt(3)/2, the
    lowest height in F.  rs, when given, is carried to rs1 with
    Z_{r,s}(tau) = mu Z_{rs1}(tau1); Z is 1-periodic in r, so k s is reduced
    exactly into [-1/2, 1/2) and a large Re tau costs no digits.
    """
    k = round(tau.real)
    if k:
        tau -= k
        if rs is not None:
            r, s = rs
            if -1 <= k <= 1:
                rs = (r + k * s, s)
            else:
                p, m = s.as_integer_ratio()
                h = m // 2
                rs = (r + ((k * p + h) % m - h) / m, s)
    floor = pp.min_im_direct if rs is None else 2 * pp.min_im_direct
    if tau.imag >= floor:
        return tau, 0, 1, rs
    tau1, a, b, c, d = reduce_to_F_ints(tau)
    if rs is not None:
        r, s = rs
        rs = (d * r + b * s, c * r + a * s)
    return tau1, c, c * tau1 + d, rs


def _lift_eta1(e1: complex, c: int, mu: complex) -> complex:
    """eta1 at tau from e1 = eta1(tau1), for c and mu as _pullback returns
    them: eta1(tau) = mu (c eta2(tau1) + d eta1(tau1)) = mu (mu e1 - 2 pi i c)."""
    return mu * (mu * e1 - TWO_PI_I * c)


def _lift(vals, c: int, mu: complex):
    """(eta1, g2, g3) at tau from vals, their values at tau1, for c and mu as
    _pullback returns them: eta1 as _lift_eta1, and g2 and g3 have weights 4
    and 6.  It is the identity when c = 0, so callers may skip it."""
    e1, g2v, g3v = vals
    return _lift_eta1(e1, c, mu), mu**4 * g2v, mu**6 * g3v


def _derivs(e1: complex, g2v: complex, g3v: complex):
    """(eta1', g2', g3') from (eta1, g2, g3) by the closed-form identities."""
    return (_HALF_I_PI * (e1 * e1 - g2v / 12),
            _I_PI * (2 * e1 * g2v - 3 * g3v),
            _I_PI * (3 * g3v * e1 - g2v * g2v / 6))


def _basic_terms(q: complex, pp: PrecisionPolicy) -> int:
    """Length of the (eta1, g2, g3) series at nome q."""
    # one length serves all three series: k^5 majorizes sigma_5 up to zeta(5),
    # and the tolerance target absorbs the largest prefactor (504 * 8 pi^6/27)
    return _truncation(abs(q), pp.eps / 150000.0, pp.max_terms, 5)


# prefactors of eta1 = pi^2/3 - 8 pi^2 s1, g2 = (4/3) pi^4 + 320 pi^4 s3 and
# g3 = (8 pi^6/27)(1 - 504 s5), s_j = sum sigma_j(k) q^k, folded once in the
# order the expressions evaluate them, so the values are the same floats
_ETA1_0, _ETA1_1 = PI**2 / 3, 8 * PI**2
_G2_0, _G2_1 = (4.0 / 3.0) * PI**4, 320 * PI**4
_G3_0 = 8 * PI**6 / 27


def _eta1_direct(q: complex, n: int) -> complex:
    """eta1 by its series at nome q, summed to n terms."""
    return _ETA1_0 - _ETA1_1 * horner(_sigma(1, n), q, n)


def _basic_direct(tau: complex, pp: PrecisionPolicy, q: complex | None = None):
    """(eta1, g2, g3) by direct series at tau as _pullback returns it.
    q, when given, is exp(2 pi i tau)."""
    if q is None:
        q = cmath.exp(TWO_PI_I * tau)
    n = _basic_terms(q, pp)
    s3 = horner(_sigma(3, n), q, n)
    s5 = horner(_sigma(5, n), q, n)
    g2 = _G2_0 + _G2_1 * s3
    g3 = _G3_0 * (1 - 504 * s5)
    return _eta1_direct(q, n), g2, g3


def _basic(tau: complex, pp: PrecisionPolicy):
    """(eta1, g2, g3) anywhere in H."""
    tau1, c, mu, _ = _pullback(tau, pp)
    vals = _basic_direct(tau1, pp)
    return _lift(vals, c, mu) if c else vals


def transform_quasi(gamma, tau, pp: PrecisionPolicy = DEFAULT) -> tuple[complex, complex]:
    """(eta1(gamma.tau), g2(gamma.tau)) computed from values at tau via the
    transformation laws."""
    t = as_tau(tau)
    return _lift(_basic(t, pp), gamma.c, gamma.mu(t))[:2]


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
    return _derivs(*_basic(as_tau(tau), pp))


# ---------------------------------------------------------------------------
# Weierstrass family at z = r + s*tau

def reduce_lattice(r: float, s: float) -> tuple[float, float]:
    """Translate lattice coordinates into [-1/2, 1/2)^2."""
    return r - math.floor(r + 0.5), s - math.floor(s + 0.5)


def _wp_family(rh: float, sh: float, tau: complex, pp: PrecisionPolicy,
               q: complex | None = None):
    """(wp, wp', Z_{rh,sh}) at z = rh + sh*tau, for (rh, sh) as reduce_lattice
    returns it and tau as _pullback returns it.  q, when given, is
    exp(2 pi i tau).

    Z_{rh,sh} = zeta(z) - rh*eta1 - sh*eta2 is returned instead of zeta
    itself so callers can assemble either zeta or the Hecke form without
    losing the exact (r,s)-periodicity.
    """
    if abs(rh) < 1e-12 and abs(sh) < 1e-12:
        raise PoleAtLattice(f"z reduces to the lattice point {rh} + {sh}*tau")
    # parity: evaluate the sign-canonical representative so that wp(z) == wp(-z)
    # and zeta(z) == -zeta(-z) hold exactly as evaluated
    sign = 1.0
    if sh < 0.0 or (sh == 0.0 and rh < 0.0):
        rh, sh, sign = -rh, -sh, -1.0
    if q is None:
        q = cmath.exp(TWO_PI_I * tau)
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


def eval_weierstrass(z, tau, pp: PrecisionPolicy = DEFAULT) -> tuple[complex, complex, complex]:
    """(wp, wp', zeta) at z = r + s*tau.

    z is reduced into the validity strip |q| < |e^{2 pi i z}| < |q|^{-1};
    wp and wp' have weights 2 and 3, and zeta = Z_{r,s} + r eta1 + s eta2 is
    assembled at the original point from the weight-1 Hecke form.
    """
    r, s = as_pair(z)
    t = as_tau(tau)
    tau1, c, mu, (r1, s1) = _pullback(t, pp, (r, s))
    q = cmath.exp(TWO_PI_I * tau1)
    wp, wpp, z_hecke = _wp_family(*reduce_lattice(r1, s1), tau1, pp, q)
    # only eta1 is read: its series alone, at the length _basic_direct uses
    e1 = _eta1_direct(q, _basic_terms(q, pp))
    if c:
        e1 = _lift_eta1(e1, c, mu)
    return mu * mu * wp, mu**3 * wpp, mu * z_hecke + r * e1 + s * (t * e1 - TWO_PI_I)


def eval_ek(k: int, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Half-period value e_k = wp(omega_k/2 | tau), k in {1, 2, 3}."""
    if k not in _HALF_PERIODS:
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    return eval_weierstrass(_HALF_PERIODS[k], tau, pp)[0]
