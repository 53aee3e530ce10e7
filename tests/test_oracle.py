"""The wp/Z family against an independent 30-digit reference.

The reference sums each value straight from its q-series at tau itself,
with no modular pull-back and no code shared with the library: the divisor
sums for eta1 and the sums over lattice translates n in Z for wp, wp' and
zeta (not the Lambert sums the library uses).  It follows the algorithm of
the benchmark's oracle, written out again here so that the tests do not
depend on the benchmark.

A value is compared on the scale of the terms its sum adds up (the same
sum taken over absolute values), not on |value|, which may cancel.  The
bands of Im tau cover points the library pulls back to the fundamental
domain for every series, points it pulls back for the wp/Z family only
(Im tau in [0.35, 0.70) at the default policy) and points it sums directly;
above Im 120, where q underflows, the library's series are empty.

The tau-derivatives of Z and Z2 are checked against a central difference of
the same reference, in each branch of the Z2 evaluation (the cubic and the
Laurent form near the lattice), at points summed directly and pulled back.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from e2crit import eval_weierstrass, eval_Zrs, eval_Zrs2
from e2crit.premodular import SMALL_U_FACTOR, _zrs2_parts, _zrs_parts
from e2crit.qseries import _pullback, reduce_lattice

DPS = 30
TOL = 1e-12
# relative error of the closed-form tau-derivatives; the reference's central
# difference with step 1e-10 at 30 digits is good to about 1e-19
DERIV_TOL = 1e-10
DERIV_STEP = mp.mpf("1e-10")
_LOG_CUT = math.log(1e-34)
BANDS = ((0.05, 0.35), (0.35, 0.70), (0.70, 3.0), (120.0, 200.0))
POINTS_PER_BAND = 16


def _nterms(rho: float, power: int) -> int:
    """N past the peak of k^power rho^k whose tail is below 1e-34; 0 where
    rho underflows, as every term then does."""
    if rho == 0.0:
        return 0
    lr = math.log(rho)
    k = max(1, math.ceil((power + 1) / -lr))
    while (power + 1) * math.log(k) + k * lr - math.log1p(-rho) > _LOG_CUT:
        k += 1
    return k


def _eta1(tau):
    """eta1 = pi^2/3 (1 - 24 sum sigma_1(k) q^k) as (value, magnitude)."""
    q = mp.exp(2j * mp.pi * tau)
    rho = float(abs(q))
    n = _nterms(rho, 2)
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            sigma[m] += d
    s1 = mp.fdot(sigma[1:], [q**k for k in range(1, n + 1)])
    m1 = math.fsum(sigma[k] * rho**k for k in range(1, n + 1))
    k0 = mp.pi**2 / 3
    return k0 * (1 - 24 * s1), float(k0) * (1 + 24 * m1)


def _reference(r: float, s: float, tau: complex):
    """{name: (value, magnitude)} for wp, wp', zeta, Z and Z2 at
    z = r + s*tau, |s| < 1."""
    with mp.workdps(DPS):
        out = _reference_mp(r, s, mp.mpc(tau))
        return {k: (complex(v), m) for k, (v, m) in out.items()}


def _reference_mp(r: float, s: float, tau):
    """_reference with the values as mpmath numbers at the working
    precision, tau an mpmath number."""
    with mp.workdps(DPS):
        pi = mp.pi
        e1, m_e1 = _eta1(tau)
        z = r + s * tau
        q = mp.exp(2j * pi * tau)
        x = mp.exp(2j * pi * z)
        xi = 1 / x
        rho, ax = float(abs(q)), float(abs(x))
        n = _nterms(rho * max(ax, 1 / ax), 0) + 1
        # sum over n >= 1 of F(q^n x) + F(q^n / x), G(q^n x) - G(q^n / x) and
        # H(q^n x) - H(q^n / x), with H = y/(1-y), F = y/(1-y)^2 and
        # G = y(1+y)/(1-y)^3
        sum_f = sum_g = sum_h = mp.mpc(0)
        mag_f = mag_g = mag_h = 0.0
        qn = mp.mpc(1)
        for k in range(1, n + 1):
            qn *= q
            for y, sign in ((qn * x, 1), (qn * xi, -1)):
                inv = 1 / (1 - y)
                h = y * inv
                f = h * inv
                sum_f += f
                sum_g += sign * f * (1 + y) * inv
                sum_h += sign * h
            for ay in (rho**k * ax, rho**k / ax):
                mag_h += ay / (1 - ay)
                mag_f += ay / (1 - ay) ** 2
                mag_g += ay * (1 + ay) / (1 - ay) ** 3
        f0 = x / (1 - x) ** 2
        g0 = f0 * (1 + x) / (1 - x)
        # 2 sum sigma_1(k) q^k, recovered from eta1 = pi^2/3 (1 - 24 S1)
        two_s1 = (1 - e1 * 3 / pi**2) / 12
        m_two_s1 = (m_e1 * 3 / float(pi**2) - 1) / 12
        tpi = float(2 * pi)
        wp = ((2j * pi) ** 2 * (mp.mpf(1) / 12 + f0 + sum_f - two_s1),
              tpi**2 * (1 / 12 + float(abs(f0)) + mag_f + m_two_s1))
        wpp = ((2j * pi) ** 3 * (g0 + sum_g), tpi**3 * (float(abs(g0)) + mag_g))
        cot = (1 + x) / (1 - x)
        zeta = (e1 * z - 1j * pi * cot - 2j * pi * sum_h,
                m_e1 * float(abs(z)) + tpi / 2 * float(abs(cot)) + tpi * mag_h)
        e2 = tau * e1 - 2j * pi
        m_e2 = float(abs(tau)) * m_e1 + tpi
        zh = (zeta[0] - r * e1 - s * e2, zeta[1] + abs(r) * m_e1 + abs(s) * m_e2)
        z2 = (zh[0] ** 3 - 3 * wp[0] * zh[0] - wpp[0],
              zh[1] ** 3 + 3 * wp[1] * zh[1] + wpp[1])
        return {"wp": wp, "wpp": wpp, "zeta": zeta, "Z": zh, "Z2": z2}


def _points(lo: float, hi: float, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < POINTS_PER_BAND:
        r, s = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
        if max(abs(r), abs(s)) < 0.05:
            continue  # keep z off the lattice point itself
        tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(lo, hi))
        out.append((r, s, tau))
    return out


@pytest.mark.parametrize("band", BANDS)
def test_family_matches_reference(band):
    worst = 0.0
    for r, s, tau in _points(*band, seed=int(100 * band[0])):
        ref = _reference(r, s, tau)
        wp, wpp, zeta = eval_weierstrass((r, s), tau)
        got = {"wp": wp, "wpp": wpp, "zeta": zeta,
               "Z": eval_Zrs((r, s), tau), "Z2": eval_Zrs2((r, s), tau)}
        for name, value in got.items():
            want, scale = ref[name]
            err = abs(value - want) / scale
            assert err <= TOL, (name, r, s, tau, value, want, scale)
            worst = max(worst, err)
    assert worst > 0.0  # the comparison is not vacuous


def _z2_branch(r: float, s: float, tau: complex) -> tuple[bool, bool]:
    """(Laurent form, pulled back): the branch the library takes for
    Z2_{r,s}(tau), by the switch of premodular._zrs2_at."""
    tau1, c, _, (r1, s1) = _pullback(tau, (r, s))
    rh, sh = reduce_lattice(r1, s1)
    au = abs(rh + sh * tau1)
    near = au < SMALL_U_FACTOR * min(1.0, abs(tau1), abs(tau1 - 1), abs(tau1 + 1))
    return near, c != 0


def _derivative_points(per_case: int = 5, seed: int = 31):
    """per_case (r, s, tau) in each of the four cases of _z2_branch: Im tau
    log-uniform in [0.05, 0.70) where the family is pulled back, two points
    of each such case below Im 0.1, and in [0.70, 3] where it is summed
    directly; half the characteristics are drawn within 0.1 of the lattice
    point, where the Laurent form is used."""
    rng = np.random.default_rng(seed)
    cases = {(near, pulled): [] for near in (False, True) for pulled in (False, True)}
    while any(len(v) < per_case for v in cases.values()):
        pulled = bool(rng.integers(2))
        lo, hi = (0.05, 0.70) if pulled else (0.70, 3.0)
        width = 0.5 if rng.integers(2) else 0.1
        r, s = (float(v) for v in rng.uniform(-width, width, 2))
        if max(abs(r), abs(s)) < 0.01:
            continue
        tau = complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(math.log(lo), math.log(hi))))
        case = _z2_branch(r, s, tau)
        got = cases[case]
        high = sum(t.imag >= 0.1 for _, _, t in got)
        if case[1] == pulled and len(got) < per_case and (
                not pulled or tau.imag < 0.1 or high < per_case - 2):
            got.append((r, s, tau))
    return cases


@pytest.mark.parametrize("case", [(False, False), (False, True), (True, False), (True, True)],
                         ids=["cubic-direct", "cubic-pulled", "laurent-direct", "laurent-pulled"])
def test_tau_derivatives_match_reference(case):
    points = _derivative_points()[case]
    for r, s, tau in points:
        with mp.workdps(DPS):
            up = _reference_mp(r, s, mp.mpc(tau) + DERIV_STEP)
            dn = _reference_mp(r, s, mp.mpc(tau) - DERIV_STEP)
            want = {k: complex((up[k][0] - dn[k][0]) / (2 * DERIV_STEP)) for k in ("Z", "Z2")}
        z, dz = _zrs_parts((r, s), tau)
        z2, dz2 = _zrs2_parts((r, s), tau)
        assert z == eval_Zrs((r, s), tau) and z2 == eval_Zrs2((r, s), tau)
        for name, got in (("Z", dz), ("Z2", dz2)):
            err = abs(got - want[name]) / abs(want[name])
            assert err <= DERIV_TOL, (name, r, s, tau, got, want[name])
