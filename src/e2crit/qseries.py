"""Weierstrass/Eisenstein layer: eta1, eta2, E2, g2, g3, e_k, wp, wp', zeta
and their tau-derivatives, evaluated by truncated q-expansions with certified
tail bounds.

Conventions: q = exp(2*pi*i*tau); z = r + s*tau in lattice coordinates with
periods 1 and tau.  `_pullback` is the only place where arguments are pulled
back: tau is translated by round(Re tau), carrying the characteristic
exactly, and points below a fixed height floor (Im tau = 0.35 for
(eta1, g2, g3), twice that for the wp/Z family) are reduced to the SL(2,Z)
fundamental domain.  Every series is thus summed at a ratio of at most
e^{-2 pi 0.35} = 0.111, and its length is the least that a closed-form
geometric bound on the tail certifies, possibly 0.  Each evaluator then
applies its weight once.

The (eta1, g2, g3) series share one length and are summed in one pass by
eisenstein_sums.  An evaluator sums and lifts only what it returns:
eval_E2, eval_eta1, eval_eta2 and the wp/Z family read eta1 alone and sum
its series alone, with horner.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from functools import lru_cache

from ._kernels_py import eisenstein_sums, horner, wp_sums
from .domain import DEFAULT, PrecisionPolicy, as_pair, as_tau
from .errors import PoleAtLattice, TruncationFailure
from .moebius import reduce_to_F_ints

PI = math.pi
TWO_PI_I = 2j * PI
_I_PI, _HALF_I_PI = 1j / PI, 0.5j / PI

_HALF_PERIODS = {1: (0.5, 0.0), 2: (0.0, 0.5), 3: (0.5, 0.5)}

# ---------------------------------------------------------------------------
# divisor-sum coefficients and truncation lengths

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


_triples: list = []


def _sigma_triples(n: int) -> list:
    """(sigma_1(k), sigma_3(k), sigma_5(k)) for k = 1..n, the coefficients
    of eisenstein_sums, as _sigma gives them (index 0 unused)."""
    if len(_triples) <= n:
        _triples[:] = zip(_sigma(1, n), _sigma(3, n), _sigma(5, n))
    return _triples


# the pull-back floors of the (eta1, g2, g3) series and the wp/Z family;
# _pullback leaves every series a ratio of at most e^{-2 pi _FLOOR}, and the
# slack in RHO_CAP absorbs the rounding of rho as the callers form it
_FLOOR = PrecisionPolicy.min_im_direct
_FAMILY_FLOOR = 2 * _FLOOR
RHO_CAP = math.exp(-2 * PI * _FLOOR) * (1 + 1e-9)
MAX_TERMS = 256


@lru_cache(maxsize=None)
def _thresholds(tol: float, power: int) -> tuple:
    """th with sum_{k>n} k^power rho^k < tol whenever 0 <= rho < th[n].

    For k > n the term ratio ((k+1)/k)^power rho is at most
    r_n = ((n+2)/(n+1))^power RHO_CAP, so the tail is at most the first
    omitted term over 1 - r_n, which solves for th[n] in closed form.
    Below th[0] the ratio is at most 2^power th[1] from k = 1 on, which
    certifies the empty series (th[0] <= tol < th[1] for every tol below
    (1 - r_1)/2^power, as eps < 1 gives).  The list stops at the first
    entry above RHO_CAP; TruncationFailure is raised past MAX_TERMS.
    """
    th = [0.0]
    while th[-1] <= RHO_CAP:
        n = len(th)
        if n > MAX_TERMS:
            raise TruncationFailure(
                f"cannot reach tolerance {tol:.2e} with {MAX_TERMS} terms at rho={RHO_CAP:.4f}")
        r = ((n + 2) / (n + 1)) ** power * RHO_CAP
        th.append((tol * (1.0 - r) / (n + 1) ** power) ** (1.0 / (n + 1)))
    th[0] = tol * (1.0 - 2**power * th[1])
    return tuple(th)


def _length(rho: float, th: tuple) -> int:
    """The length that th = _thresholds(tol, power) gives the ratio rho: a
    length n with sum_{k>n} k^power rho^k < tol, the least such n, or one
    more where the bound of _thresholds is not tight."""
    if not 0.0 <= rho <= RHO_CAP:
        raise TruncationFailure(f"series ratio rho={rho!r} outside [0, {RHO_CAP:.4f}]")
    return bisect_right(th, rho)


def _truncation(rho: float, tol: float, power: int) -> int:
    """A length n with sum_{k>n} k^power rho^k < tol, as _length reads it
    from _thresholds(tol, power)."""
    return _length(rho, _thresholds(tol, power))


def choose_truncation(im_tau: float, eps: float) -> int:
    """Length of the (eta1, g2, g3) series at height im_tau, as summed at
    tolerance eps in (0, 1): the length _basic_terms takes at
    |q| = e^{-2 pi im_tau}, from the k^5 tail bound below eps/150000, and 0
    where the empty series is certified.  Below the pull-back floor
    Im tau = 0.35 no series is summed directly, and ValueError is raised.
    """
    if im_tau < _FLOOR - 1e-12:
        raise ValueError(f"im_tau below direct-evaluation threshold: {im_tau}")
    return _basic_terms(math.exp(-2 * PI * im_tau), PrecisionPolicy(eps))


# ---------------------------------------------------------------------------
# weight-2/4/6 series, the modular pull-back seam and the transformation laws

def _pullback(tau: complex, rs=None):
    """(tau1, c, mu, rs1): the point tau1 at which the series are summed, with
    tau = gamma . tau1, c the lower-left entry of gamma and mu = c tau1 + d;
    a form of weight w is mu^w times its value at tau1.

    tau is translated by the integer k nearest Re tau (c = 0, mu = 1), then
    reduced to F if its height is below the floor: min_im_direct = 0.35 for
    the (eta1, g2, g3) series, whose ratio is |q|, and 0.70 when rs is given,
    for the wp/Z family, whose ratio |q| max(|x|, 1/|x|) reaches |q|^{1/2}.
    As 0.70 < sqrt(3)/2, the lowest height in F, every series is then summed
    at a ratio of at most e^{-2 pi 0.35} = 0.111 (RHO_CAP).  rs, when given,
    is carried to rs1 with Z_{r,s}(tau) = mu Z_{rs1}(tau1); Z is 1-periodic
    in r, so k s is reduced exactly into [-1/2, 1/2) and a large Re tau
    costs no digits.
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
    if tau.imag >= (_FLOOR if rs is None else _FAMILY_FLOOR):
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


# the _thresholds table of the (eta1, g2, g3) series for each eps seen
_basic_tables: dict[float, tuple] = {}


def _basic_terms(q: complex, pp: PrecisionPolicy) -> int:
    """Length of the (eta1, g2, g3) series at nome q."""
    # one length serves all three series: k^5 majorizes sigma_5 up to zeta(5),
    # and the tolerance target absorbs the largest prefactor (504 * 8 pi^6/27)
    th = _basic_tables.get(pp.eps)
    if th is None:
        th = _basic_tables[pp.eps] = _thresholds(pp.eps / 150000.0, 5)
    return _length(abs(q), th)


# prefactors of eta1 = pi^2/3 - 8 pi^2 s1, g2 = (4/3) pi^4 + 320 pi^4 s3 and
# g3 = (8 pi^6/27)(1 - 504 s5), s_j = sum sigma_j(k) q^k, folded once in the
# order the expressions evaluate them, so the values are the same floats
_ETA1_0, _ETA1_1 = PI**2 / 3, 8 * PI**2
_G2_0, _G2_1 = (4.0 / 3.0) * PI**4, 320 * PI**4
_G3_0 = 8 * PI**6 / 27


def _eta1_direct(q: complex, pp: PrecisionPolicy) -> complex:
    """eta1 by its series alone at nome q, summed to the length _basic_direct
    takes there."""
    n = _basic_terms(q, pp)
    return _ETA1_0 - _ETA1_1 * horner(_sigma(1, n), q, n)


def _basic_direct(tau: complex, pp: PrecisionPolicy, q: complex | None = None):
    """(eta1, g2, g3) by direct series at tau as _pullback returns it, the
    three summed in one pass.  q, when given, is exp(2 pi i tau)."""
    if q is None:
        q = cmath.exp(TWO_PI_I * tau)
    n = _basic_terms(q, pp)
    s1, s3, s5 = eisenstein_sums(_sigma_triples(n), q, n)
    return _ETA1_0 - _ETA1_1 * s1, _G2_0 + _G2_1 * s3, _G3_0 * (1 - 504 * s5)


def _basic(tau: complex, pp: PrecisionPolicy):
    """(eta1, g2, g3) anywhere in H."""
    tau1, c, mu, _ = _pullback(tau)
    vals = _basic_direct(tau1, pp)
    return _lift(vals, c, mu) if c else vals


def _eta1(tau: complex, pp: PrecisionPolicy) -> complex:
    """eta1 anywhere in H, as _basic gives it, from its series alone."""
    tau1, c, mu, _ = _pullback(tau)
    e1 = _eta1_direct(cmath.exp(TWO_PI_I * tau1), pp)
    return _lift_eta1(e1, c, mu) if c else e1


def transform_quasi(gamma, tau, pp: PrecisionPolicy = DEFAULT) -> tuple[complex, complex]:
    """(eta1(gamma.tau), g2(gamma.tau)) computed from values at tau via the
    transformation laws."""
    t = as_tau(tau)
    return _lift(_basic(t, pp), gamma.c, gamma.mu(t))[:2]


def eval_eta1(tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Quasi-period eta1(tau) = pi^2/3 - 8 pi^2 sum sigma_1(k) q^k."""
    return _eta1(as_tau(tau), pp)


def eval_eta2(tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Second quasi-period via the Legendre relation eta2 = tau*eta1 - 2*pi*i."""
    t = as_tau(tau)
    return t * _eta1(t, pp) - TWO_PI_I


def eval_E2(tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Normalized weight-2 Eisenstein series, (3/pi^2) * eta1."""
    return 3 / PI**2 * _eta1(as_tau(tau), pp)


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
    # rho = |q| max(|x|, 1/|x|) = |q|/|x| as sh >= 0, formed without 1/|x|:
    # high up x underflows to 0, but rho <= |x| as sh <= 1/2, so the series
    # is then empty and wp_sums never divides by x
    rho = math.exp(-2 * PI * (1.0 - sh) * tau.imag)
    n = _truncation(rho, pp.eps / (64 * PI**3), 3)
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
    tau1, c, mu, (r1, s1) = _pullback(t, (r, s))
    q = cmath.exp(TWO_PI_I * tau1)
    wp, wpp, z_hecke = _wp_family(*reduce_lattice(r1, s1), tau1, pp, q)
    # only eta1 is read: its series alone
    e1 = _eta1_direct(q, pp)
    if c:
        e1 = _lift_eta1(e1, c, mu)
    return mu * mu * wp, mu**3 * wpp, mu * z_hecke + r * e1 + s * (t * e1 - TWO_PI_I)


def eval_ek(k: int, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Half-period value e_k = wp(omega_k/2 | tau), k in {1, 2, 3}."""
    if k not in _HALF_PERIODS:
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    return eval_weierstrass(_HALF_PERIODS[k], tau, pp)[0]
