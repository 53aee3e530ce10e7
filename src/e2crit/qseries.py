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
applies its weight once.  `_pullback` is also the only place where the
characteristic is reduced: it returns it in [-1/2, 1/2)^2 and raises
PoleAtLattice there, once, when z reduces to a lattice point, so wp, Z and
Z2 (premodular) sum the family at the pair it returns.

The (eta1, g2, g3) series share one length.  An evaluator sums and lifts
only what its caller reads:
- _basic and _basic_direct sum all three in one pass (eisenstein_sums), for
  eval_invariants, eval_derivatives, and f_C with its derivatives and Z2
  near the lattice, which read g3;
- _eta1_g2 and _eta1_g2_direct sum eta1 and g2 alone (eta1_g2_sums), for
  f_C's value and scale, sqrt(g2/12), transform_quasi, the derivative of
  Z2 and the curve-line values;
- eval_E2, eval_eta1, eval_eta2 and the wp/Z family read eta1 alone and sum
  its series alone (horner);
- _eta1_D_direct sums eta1 with D = eta1^2 - g2/12 and its derivative in one
  pass (eisenstein_sums over other coefficients), for the cold tau(C) solve.

A LatticePoint (the points of zeros.f0_contour's polylines, built by
lattice_point) carries what depends on tau alone, formed once: _pullback
reads the translation, the reduction and the nome at both floors from the
point's _Pulled, and (eta1, g2, g3) at tau1 is summed there once per eps,
on first use, by _basic_direct.  Every evaluator at the point reads the
columns it needs of that triple: eisenstein_sums forms each column in
horner's and eta1_g2_sums' operations, so they are the floats the
evaluators give at a plain complex copy of the point, and every value is
unchanged; a plain point pays a type test.  The _Pulled also keeps, per
eps, f_C's point data and wp's Laurent coefficients, which zeros and
premodular form from that triple on first use, and, at the wp/Z floor,
the Lambert weights q^k/(1-q^k) of the family, which _wp_family sums
through wp_sums_kept: formed on the first family evaluation to the length
it needs, extended in place when a later one needs more, and the floats
wp_sums forms at a plain point (see _Pulled).
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from functools import lru_cache
from math import floor

from ._kernels_py import eisenstein_sums, eta1_g2_sums, horner, lambert_weights, wp_sums, wp_sums_kept
from .domain import DEFAULT, LatticePoint, PrecisionPolicy, as_pair, as_tau
from .errors import PoleAtLattice, TruncationFailure
from .moebius import reduce_to_F_ints

PI = math.pi
TWO_PI_I, _FOUR_PI_I = 2j * PI, 4j * PI
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


_moments: list = []


def _sigma1_moments(n: int) -> list:
    """(sigma_1(k), k sigma_1(k), k^2 sigma_1(k)) for k = 1..n, the
    coefficients of eisenstein_sums in _eta1_D_direct (index 0 unused)."""
    if len(_moments) <= n:
        _moments[:] = [(c, k * c, k * k * c) for k, c in enumerate(_sigma(1, n))]
    return _moments


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
    more where the bound of _thresholds is not tight.  _basic_terms and
    _wp_family apply this rule inline."""
    if not 0.0 <= rho <= RHO_CAP:
        raise _ratio_failure(rho)
    return bisect_right(th, rho)


def _ratio_failure(rho: float) -> TruncationFailure:
    """The error for a series ratio rho outside [0, RHO_CAP]."""
    return TruncationFailure(f"series ratio rho={rho!r} outside [0, {RHO_CAP:.4f}]")


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

def _reduce(tau: complex, height: float):
    """(k, abd, tau1, c, mu, q): tau translated by the integer k nearest
    Re tau, then, below the given height, reduced to F by
    gamma = (a b; c d), abd = (a, b, d) (else abd = None, c = 0 and
    mu = 1), with tau - k = gamma . tau1, mu = c tau1 + d and q the nome at
    tau1: the pull-back of _pullback, without the characteristic."""
    # tau - 0 is tau bit for bit, the sign of a zero real part included
    k = round(tau.real)
    tau -= k
    if tau.imag >= height:
        return k, None, tau, 0, 1, cmath.exp(TWO_PI_I * tau)
    tau1, a, b, c, d = reduce_to_F_ints(tau)
    return k, (a, b, d), tau1, c, c * tau1 + d, cmath.exp(TWO_PI_I * tau1)


def _pullback(tau: complex, rs=None):
    """(tau1, c, mu, rs1, q, at): the point tau1 at which the series are
    summed, with tau = gamma . tau1, c the lower-left entry of gamma and
    mu = c tau1 + d, and the nome q = exp(2 pi i tau1) there; a form of
    weight w is mu^w times its value at tau1.  at is the lattice data of
    tau at this floor (a _Pulled) when tau is a LatticePoint, else None.

    tau is translated by the integer k nearest Re tau (c = 0, mu = 1), then
    reduced to F if its height is below the floor: min_im_direct = 0.35 for
    the (eta1, g2, g3) series, whose ratio is |q|, and 0.70 when rs is given,
    for the wp/Z family, whose ratio |q| max(|x|, 1/|x|) reaches |q|^{1/2}.
    As 0.70 < sqrt(3)/2, the lowest height in F, every series is then summed
    at a ratio of at most e^{-2 pi 0.35} = 0.111 (RHO_CAP).

    rs, a pair of floats, is the characteristic (r, s) of z = r + s tau.
    This is the one place where it is carried and reduced: to rs1 =
    (rh, sh) in [-1/2, 1/2)^2 with Z_{r,s}(tau) = mu Z_{rh,sh}(tau1).  Z is
    1-periodic in r and s, so (r, s) is reduced, to r - floor(r + 1/2) and
    s - floor(s + 1/2), before each step that mixes them and once after
    the last: if k != 0, reduce and translate, r + k s, with k s reduced
    mod 1 exactly when |k| >= 2; if tau is reduced to F by
    gamma = (a b; c d), reduce and mix, (d r + b s, c r + a s); then
    reduce.  Near the lattice and at a large Re tau the characteristic
    thus keeps its digits.  PoleAtLattice is raised when |rh| and |sh| are
    both below 1e-12, where z reduces to a lattice point of tau1 and wp, Z
    and Z2 have their pole.  At a LatticePoint the translation, the
    reduction and q are read from its _Pulled, which formed them by the
    same _reduce.
    """
    if type(tau) is LatticePoint:
        at = tau.low if rs is None else tau.family
        k, abd, tau1, c, mu, q = at.reduced
    else:
        at = None
        k, abd, tau1, c, mu, q = _reduce(tau, _FLOOR if rs is None else _FAMILY_FLOOR)
    if rs is None:
        return tau1, c, mu, None, q, at
    r, s = rs
    if k:
        r -= floor(r + 0.5)
        s -= floor(s + 0.5)
        if -1 <= k <= 1:
            r = r + k * s
        else:
            p, m = s.as_integer_ratio()
            h = m // 2
            r = r + ((k * p + h) % m - h) / m
    if abd is not None:
        r -= floor(r + 0.5)
        s -= floor(s + 0.5)
        a, b, d = abd
        r, s = d * r + b * s, c * r + a * s
    r -= floor(r + 0.5)
    s -= floor(s + 0.5)
    if abs(r) < 1e-12 and abs(s) < 1e-12:
        raise PoleAtLattice(f"z reduces to the lattice point {r} + {s}*tau")
    return tau1, c, mu, (r, s), q, at


class _Pulled:
    """A LatticePoint pulled back at one floor: _reduce's value there and,
    formed on first use for each eps, the point data its evaluators read.

    basic(pp) is the (eta1, g2, g3) that _basic_direct gives at its nome,
    whose columns every evaluator at the point reads.  fc and laurent map
    eps to the data that zeros._fc_parts and premodular._zrs2_at form from
    that triple, each by the helper a plain point calls on every
    evaluation: at the (eta1, g2, g3) floor, f_C's point data
    (eta1, g2, eta2, eta1', g2', eta2') at the point itself (zeros._fc_data),
    and at the wp/Z floor, the Laurent coefficients c_k of wp at tau1 with
    their tau-derivatives up to LAURENT_TERMS, and eta1' there
    (premodular._laurent_kept).  lambert(n) is the table of the Lambert
    weights w[k] = (lam, k lam, k^2), lam = q^k/(1-q^k), at its nome
    (lambert_weights), held in weights: None until the first family
    evaluation at the point asks for n > 0 terms, then formed to n, and
    extended in place, continuing its q^k product, when a later one asks
    for more (at a characteristic nearer s = 1/2, or a smaller eps).  It
    does not depend on eps, and it is not formed when the point is built,
    so a point that sums a short family, or none, forms no weight it does
    not read.  One _Pulled serves both floors where the two pull-backs
    agree, and then holds both."""

    __slots__ = ("reduced", "q", "_basic", "fc", "laurent", "weights")

    def __init__(self, tau: complex, height: float):
        # q, the nome at tau1, is _reduce's last value
        self.reduced = *_, self.q = _reduce(tau, height)
        self._basic = {}
        self.fc = {}
        self.laurent = {}
        self.weights = None

    def basic(self, pp: PrecisionPolicy):
        v = self._basic.get(pp.eps)
        if v is None:
            v = self._basic[pp.eps] = _basic_direct(self.q, pp)
        return v

    def lambert(self, n: int) -> list:
        """The Lambert weights at the nome, held to at least n terms: the
        table is formed on the first call, to n terms, and extended in
        place when a later call needs more."""
        w = self.weights
        if w is None:
            w = self.weights = [1 + 0j]
        return w if len(w) > n else lambert_weights(w, self.q, n)


def lattice_point(p: complex) -> LatticePoint:
    """p as a LatticePoint: its pull-backs at both floors are formed once
    here, and the series values there once per eps, on first use."""
    p = complex(as_tau(p))
    point = LatticePoint(p)
    point.low = _Pulled(p, _FLOOR)
    # below _FLOOR both floors reduce tau - k to F, above _FAMILY_FLOOR
    # neither reduces: one pull-back serves both
    point.family = _Pulled(p, _FAMILY_FLOOR) if _FLOOR <= p.imag < _FAMILY_FLOOR else point.low
    return point


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


# the _thresholds table of the (eta1, g2, g3) series for each eps seen, and
# the share of eps its k^5 tail is held below
_basic_tables: dict[float, tuple] = {}
_BASIC_SHARE = 150000.0


def _basic_terms(q: complex, pp: PrecisionPolicy) -> int:
    """Length of the (eta1, g2, g3) series at nome q: _length's, with its
    range check and bisection inline, as every evaluator of the three
    series asks for it."""
    # one length serves all three series: k^5 majorizes sigma_5 up to zeta(5),
    # and the tolerance target absorbs the largest prefactor (504 * 8 pi^6/27)
    th = _basic_tables.get(pp.eps)
    if th is None:
        th = _basic_tables[pp.eps] = _thresholds(pp.eps / _BASIC_SHARE, 5)
    rho = abs(q)
    if not 0.0 <= rho <= RHO_CAP:
        raise _ratio_failure(rho)
    return bisect_right(th, rho)


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


def _basic_direct(q: complex, pp: PrecisionPolicy):
    """(eta1, g2, g3) by direct series at nome q, the three summed in one
    pass."""
    n = _basic_terms(q, pp)
    s1, s3, s5 = eisenstein_sums(_sigma_triples(n), q, n)
    return _ETA1_0 - _ETA1_1 * s1, _G2_0 + _G2_1 * s3, _G3_0 * (1 - 504 * s5)


# D = eta1^2 - g2/12 = -32 pi^4 sum k sigma_1(k) q^k by Ramanujan's
# q dE2/dq = (E2^2 - E4)/12, and D' = dD/dtau = 2 pi i times its q-derivative
_D_1, _DP_1 = -32 * PI**4, -64j * PI**5


def _eta1_D_direct(q: complex, pp: PrecisionPolicy):
    """(eta1, D, D') at nome q, D = eta1^2 - g2/12 and D' its
    tau-derivative, the three series summed in one pass.  D has no constant
    term, so its digits are relative ones where eta1^2 - g2/12 formed from
    the two values would cancel.  The length is one past _basic_terms':
    that length bounds the k^5 tail by eps/150000 absolutely, but D's scale
    is its first term, of size |q|, and the one more term puts the tails of
    D and D' below eps |q| / 10^4 (k^2 sigma_1(k) <= k^3 (1 + log k)).
    Ramanujan, Trans. Cambridge Philos. Soc. 22 (1916)."""
    n = _basic_terms(q, pp) + 1
    s1, s, s2 = eisenstein_sums(_sigma1_moments(n), q, n)
    return _ETA1_0 - _ETA1_1 * s1, _D_1 * s, _DP_1 * s2


def _basic(tau: complex, pp: PrecisionPolicy):
    """(eta1, g2, g3) anywhere in H."""
    _, c, mu, _, q, at = _pullback(tau)
    vals = _basic_direct(q, pp) if at is None else at.basic(pp)
    return _lift(vals, c, mu) if c else vals


def _eta1_g2_direct(q: complex, pp: PrecisionPolicy):
    """(eta1, g2) at nome q, as _basic_direct gives them, summed without
    the g3 series."""
    n = _basic_terms(q, pp)
    s1, s3 = eta1_g2_sums(_sigma_triples(n), q, n)
    return _ETA1_0 - _ETA1_1 * s1, _G2_0 + _G2_1 * s3


def _eta1_g2(tau: complex, pp: PrecisionPolicy):
    """(eta1, g2) anywhere in H, as _basic gives them, with neither g3 nor
    its weight summed."""
    _, c, mu, _, q, at = _pullback(tau)
    if at is None:
        e1, g2v = _eta1_g2_direct(q, pp)
    else:
        e1, g2v, _ = at.basic(pp)
    return (_lift_eta1(e1, c, mu), mu**4 * g2v) if c else (e1, g2v)


def _eta1(tau: complex, pp: PrecisionPolicy) -> complex:
    """eta1 anywhere in H, as _basic gives it, from its series alone."""
    _, c, mu, _, q, at = _pullback(tau)
    if at is None:
        e1 = _eta1_direct(q, pp)
    else:
        e1, _, _ = at.basic(pp)
    return _lift_eta1(e1, c, mu) if c else e1


def _eta1_g2_tail(tau: complex, pp: PrecisionPolicy) -> tuple[float, float]:
    """Bounds on the truncation errors of eta1 and g2 at tau as _eta1_g2
    sums them.  sigma_1(k), sigma_3(k) <= k^5, so the tails of s1 and s3 at
    tau1 lie below the eps/150000 that _basic_terms holds the k^5 tail to;
    the prefactors 8 pi^2 and 320 pi^4 carry that to eta1 and g2 at tau1,
    and the pull-back's weights |mu|^2 and |mu|^4 to tau."""
    m2 = abs(_pullback(tau)[2]) ** 2
    tail = pp.eps / _BASIC_SHARE
    return _ETA1_1 * tail * m2, _G2_1 * tail * m2 * m2


def transform_quasi(gamma, tau, pp: PrecisionPolicy = DEFAULT) -> tuple[complex, complex]:
    """(eta1(gamma.tau), g2(gamma.tau)) computed from values at tau via the
    transformation laws."""
    t = as_tau(tau)
    e1, g2v = _eta1_g2(t, pp)
    mu = gamma.mu(t)
    return _lift_eta1(e1, gamma.c, mu), mu**4 * g2v


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

# the _thresholds table of the wp/Z family for each eps seen, and the
# prefactors of wp, wp', x and rho
_family_tables: dict[float, tuple] = {}
_WP_K, _WPP_K = -4 * PI**2, -8j * PI**3
_PI_I, _MINUS_TWO_PI = 1j * PI, -2 * PI


def _wp_family(rh: float, sh: float, tau: complex, q: complex, pp: PrecisionPolicy, at=None):
    """(wp, wp', Z_{rh,sh}) at z = rh + sh*tau, for the characteristic
    (rh, sh), tau and its nome q = exp(2 pi i tau) as _pullback returns
    them: (rh, sh) reduced into [-1/2, 1/2)^2 and off the lattice point.
    at is the lattice data _pullback returns: when given, the Lambert
    sums read the weights it keeps (wp_sums_kept), the floats wp_sums
    forms at q.

    Z_{rh,sh} = zeta(z) - rh*eta1 - sh*eta2 is returned instead of zeta
    itself so callers can assemble either zeta or the Hecke form without
    losing the exact (r,s)-periodicity.
    """
    # parity: evaluate the sign-canonical representative so that wp(z) == wp(-z)
    # and zeta(z) == -zeta(-z) hold exactly as evaluated
    flip = sh < 0.0 or (sh == 0.0 and rh < 0.0)
    if flip:
        rh, sh = -rh, -sh
    x = cmath.exp(TWO_PI_I * (rh + sh * tau))
    # rho = |q| max(|x|, 1/|x|) = |q|/|x| as sh >= 0, formed without 1/|x|:
    # high up x underflows to 0, but rho <= |x| as sh <= 1/2, so the series
    # is then empty and wp_sums never divides by x
    rho = math.exp(_MINUS_TWO_PI * (1.0 - sh) * tau.imag)
    th = _family_tables.get(pp.eps)
    if th is None:
        th = _family_tables[pp.eps] = _thresholds(pp.eps / (64 * PI**3), 3)
    # _length, with its range check and bisection inline
    if not 0.0 <= rho <= RHO_CAP:
        raise _ratio_failure(rho)
    n = bisect_right(th, rho)
    # the empty series is certified at most points high in F
    if not n:
        sp = spp = sz = 0
    elif at is None:
        sp, spp, sz = wp_sums(x, q, n)
    else:
        sp, spp, sz = wp_sums_kept(x, at.lambert(n), n)
    # x/(1-x)^2, x/(1-x)^2 + 2x^2/(1-x)^3 and (1+x)/(1-x) from one reciprocal
    a = 1 / (1 - x)
    xa = x * a
    xa2 = xa * a
    wp = _WP_K * (1.0 / 12.0 + xa2 + sp)
    wpp = _WPP_K * (xa2 * (1 + 2 * xa) + spp)
    z_hecke = TWO_PI_I * sh - _PI_I * (1 + x) * a - TWO_PI_I * sz
    if flip:
        return wp, -1.0 * wpp, -1.0 * z_hecke
    return wp, wpp, z_hecke


def eval_weierstrass(z, tau, pp: PrecisionPolicy = DEFAULT) -> tuple[complex, complex, complex]:
    """(wp, wp', zeta) at z = r + s*tau.

    z is reduced into the validity strip |q| < |e^{2 pi i z}| < |q|^{-1};
    wp and wp' have weights 2 and 3, and zeta = Z_{r,s} + r eta1 + s eta2 is
    assembled at the original point from the weight-1 Hecke form.
    """
    r, s = as_pair(z)
    t = as_tau(tau)
    tau1, c, mu, (rh, sh), q, at = _pullback(t, (r, s))
    wp, wpp, z_hecke = _wp_family(rh, sh, tau1, q, pp, at)
    # only eta1 is read: its series alone, or at a LatticePoint its column
    # of the point's (eta1, g2, g3)
    if at is None:
        e1 = _eta1_direct(q, pp)
    else:
        e1, _, _ = at.basic(pp)
    if c:
        e1 = _lift_eta1(e1, c, mu)
    return mu * mu * wp, mu**3 * wpp, mu * z_hecke + r * e1 + s * (t * e1 - TWO_PI_I)


def eval_ek(k: int, tau, pp: PrecisionPolicy = DEFAULT) -> complex:
    """Half-period value e_k = wp(omega_k/2 | tau), k in {1, 2, 3}."""
    if k not in _HALF_PERIODS:
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    return eval_weierstrass(_HALF_PERIODS[k], tau, pp)[0]
