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
Near the lattice, down to |u|/R = 1e-4 where the Laurent form sums its
coefficients no further than c_3, Z2 and its derivative are checked against
the reference at 50 digits, on the scale of the Laurent form's terms.

tau(C), the zero of f_C in F0, is checked against a 40-digit root of f_C
at C itself, f_C formed as 12 (C eta1 - eta2)^2 - g2 (C - tau)^2 from the
direct series of eta1 and g2.  The library folds C onto C* >= 2 by the
curves' symmetries and solves there, so this also checks the symmetries,
independently of the fold.
"""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from e2crit import eval_weierstrass, eval_Zrs, eval_Zrs2, solve_tauC
from e2crit.domain import DEFAULT
from e2crit.premodular import SMALL_U_FACTOR, _laurent_length, _zrs2_parts, _zrs_parts
from e2crit.qseries import _pullback

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


def _reference_mp(r: float, s: float, tau, dps: int = DPS):
    """_reference with the values as mpmath numbers at dps digits, tau an
    mpmath number."""
    with mp.workdps(dps):
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
    tau1, c, _, (rh, sh), _, _ = _pullback(tau, (r, s))
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


# the Laurent form summed to the length its tail bound certifies, near the
# lattice: at the appendix characteristics ((2 - s)/2, s), |u|/R is at least
# s/2 (pulled back) and s Im tau (direct); the blow-up characteristic
# (-C s, s) at s = 2e-4 reaches |u|/R = 1e-4 and below.  The cubic the
# reference sums cancels to |u|^3 of its terms, so it is summed at NEAR_DPS
# digits
NEAR_DPS = 50
NEAR_CHARS = (((2 - 1e-3) / 2, 1e-3), ((2 - 4e-3) / 2, 4e-3), (-0.3 * 2e-4, 2e-4))
NEAR_PER_CASE = 6


def _laurent_point(r: float, s: float, tau: complex) -> tuple[float, bool, float, float]:
    """(|u|/R, pulled back, scale, derivative scale) at the point tau1
    where premodular._zrs2_at sums Z2_{r,s}(tau).

    The scales are the sizes of the Laurent form's leading terms there,
    lifted as Z2 and its derivative lift: 3 |A|^2/|u| for Z2, and
    6 |A| |dA|/|u| + 3 |A|^2 |s1|/|u|^2 for its tau-derivative, with
    |A| <= 2 pi |s1| + 5 |u| and |dA| <= 16 |u|.  Z2 itself may be far
    smaller (it is O(q) as s1 -> 0 high in F), and the characteristic as
    _pullback carries it is rounded on the scale of d r + b s, which moves
    u by an ulp of that.
    """
    tau1, c, mu, (rh, sh), _, _ = _pullback(tau, (r, s))
    au = abs(rh + sh * tau1)
    t = au / min(1.0, abs(tau1), abs(tau1 - 1), abs(tau1 + 1))
    a = 2 * math.pi * abs(sh) + 5 * au
    scale = 3 * a * a / au
    dscale = 96 * a + 3 * a * a * abs(sh) / (au * au)
    m = abs(mu)
    return t, c != 0, m**3 * scale, m**4 * (3 * abs(c) * scale + m * dscale)


def _near_points(rs, pulled: bool, seed: int):
    """NEAR_PER_CASE points tau where Z2_rs takes the Laurent form, summed
    directly or pulled back: of 400 seeded ones, those of least and
    greatest |u|/R and evenly spaced ranks between."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < 400:
        lo, hi = (0.02, 0.70) if pulled else (0.70, 3.0)
        tau = complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(math.log(lo), math.log(hi))))
        t, was_pulled, scale, dscale = _laurent_point(*rs, tau)
        if was_pulled == pulled and t < SMALL_U_FACTOR:
            found.append((t, tau, scale, dscale))
    found.sort(key=lambda f: f[0])
    step = (len(found) - 1) / (NEAR_PER_CASE - 1)
    return [found[round(i * step)] for i in range(NEAR_PER_CASE)]


@pytest.mark.parametrize("pulled", [False, True], ids=["direct", "pulled"])
@pytest.mark.parametrize("rs", NEAR_CHARS, ids=["appendix-1e-3", "appendix-4e-3", "blowup-2e-4"])
def test_short_laurent_form_matches_reference(rs, pulled):
    r, s = rs
    points = _near_points(rs, pulled, seed=int(1e6 * s) + pulled)
    # each case sums the form to c_5 or less somewhere, where it summed to c_13
    assert min(_laurent_length(p[0], DEFAULT.eps) for p in points) <= 5
    for t, tau, scale, dscale in points:
        with mp.workdps(NEAR_DPS):
            at = _reference_mp(r, s, mp.mpc(tau), NEAR_DPS)["Z2"][0]
            up = _reference_mp(r, s, mp.mpc(tau) + DERIV_STEP, NEAR_DPS)["Z2"][0]
            dn = _reference_mp(r, s, mp.mpc(tau) - DERIV_STEP, NEAR_DPS)["Z2"][0]
            want, dwant = complex(at), complex((up - dn) / (2 * DERIV_STEP))
        z2, dz2 = _zrs2_parts(rs, tau)
        assert z2 == eval_Zrs2(rs, tau)
        assert abs(z2 - want) <= TOL * scale, (rs, tau, t, z2, want, scale)
        assert abs(dz2 - dwant) <= DERIV_TOL * dscale, (rs, tau, t, dz2, dwant, dscale)


# Z2_(0.9995, 0.001) where _pullback carries the characteristic across an
# integer: translated by k = 1 (0.9995 + 0.001 would round on the scale of
# 1 against rh = 5e-4), and reduced to F with d r + b s near -5.0005.
# Reduced into [-1/2, 1/2)^2 first, it keeps its digits.  The bounds are
# relative to |value|: at the second point |Z2| is 1.1e-8 of the Laurent
# form's terms (the scale of _laurent_point), so rounding on their scale
# leaves it about 1e-9
CARRIED = ((0.5035010193315455+0.7124032737148763j, 1e-15),
           (0.5303064223618792+0.049249486091660535j, 1e-8))


@pytest.mark.parametrize("tau,bound", CARRIED, ids=["translated", "reduced"])
def test_carried_characteristic_keeps_its_digits(tau, bound):
    rs = (0.9995, 0.001)
    with mp.workdps(NEAR_DPS):
        at = _reference_mp(*rs, mp.mpc(tau), NEAR_DPS)["Z2"][0]
        up = _reference_mp(*rs, mp.mpc(tau) + DERIV_STEP, NEAR_DPS)["Z2"][0]
        dn = _reference_mp(*rs, mp.mpc(tau) - DERIV_STEP, NEAR_DPS)["Z2"][0]
        want, dwant = complex(at), complex((up - dn) / (2 * DERIV_STEP))
    z2, dz2 = _zrs2_parts(rs, tau)
    assert z2 == eval_Zrs2(rs, tau)
    assert abs(z2 - want) <= bound * abs(want), (tau, z2, want)
    assert abs(dz2 - dwant) <= bound * abs(dwant), (tau, dz2, dwant)


# tau(C) within this relative distance of the 40-digit root of f_C
TAU_C_TOL = 1e-15
TAU_C_DPS = 40


def _fc_root(C: float, t0: complex) -> complex:
    """The 40-digit root of f_C nearest t0 by the secant method, with its
    residual checked on the scale |g2| |C - tau|^2 of f_C's terms; each
    series is summed until its k^3-weighted term is below 1e-50."""
    with mp.workdps(TAU_C_DPS):
        Cm, pi = mp.mpf(C), mp.pi

        def parts(tau):
            q = mp.exp(2j * pi * tau)
            lr = math.log(float(abs(q)))
            n = 1
            while 3 * math.log(n + 1) + (n + 1) * lr > math.log(1e-50):
                n += 1
            s1 = s3 = mp.mpc(0)
            qk = mp.mpc(1)
            for k in range(1, n + 1):
                qk *= q
                divisors = [d for d in range(1, k + 1) if k % d == 0]
                s1 += sum(divisors) * qk
                s3 += sum(d**3 for d in divisors) * qk
            e1 = pi**2 / 3 * (1 - 24 * s1)
            g2 = 4 * pi**4 / 3 * (1 + 240 * s3)
            lin = Cm * e1 - (tau * e1 - 2j * pi)
            return 12 * lin**2 - g2 * (Cm - tau) ** 2, abs(g2) * abs(Cm - tau) ** 2

        root = mp.findroot(lambda tau: parts(tau)[0], mp.mpc(t0), verify=False)
        value, scale = parts(root)
        assert abs(value) <= mp.mpf(10) ** (10 - TAU_C_DPS) * scale, (C, value, scale)
        return complex(root)


def _tau_C_cases(per_interval: int = 4, seed: int = 71):
    """Seeded C in each of the six intervals the library folds onto
    C* >= 2, with |C| or |C - 1| log-uniform in [1e-12, 1e14], and the ends
    of that range."""
    rng = random.Random(seed)

    def lu(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    Cs = [1e14, -1e14, 1e-12, -1e-12, 1 + 1e-12, 1 - 1e-12, -1e5, 2e6, 1 + 1e-9]
    for _ in range(per_interval):
        Cs += [1 + lu(1, 1e14), -lu(1, 1e14), -lu(1e-12, 1), lu(1e-12, 0.5),
               1 - lu(1e-12, 0.5), 1 + lu(1e-12, 1)]
    return Cs


def test_tau_C_matches_reference():
    worst = 0.0
    for C in _tau_C_cases():
        t = solve_tauC(C).z
        ref = _fc_root(C, t)
        # the reference is the zero in F0, which is unique
        assert 0 < ref.real < 1 and abs(ref - 0.5) > 0.5, (C, ref)
        err = abs(t - ref) / abs(ref)
        assert err <= TAU_C_TOL, (C, t, ref, err)
        worst = max(worst, err)
    assert worst > 0.0  # the comparison is not vacuous
