"""Series layer: special values, functional identities, truncation control."""

import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from e2crit import (
    DEFAULT,
    PrecisionPolicy,
    TauPoint,
    PoleAtLattice,
    TruncationFailure,
    choose_truncation,
    eval_E2,
    eval_derivatives,
    eval_ek,
    eval_eta1,
    eval_eta2,
    eval_invariants,
    eval_weierstrass,
    eval_Zrs2,
)
from e2crit import qseries
from e2crit.domain import LatticePoint
from e2crit.moebius import reduce_to_F_ints
from e2crit.qseries import MAX_TERMS, RHO_CAP, _length, _sigma, _thresholds
from tests_helpers import float_bits

PI = math.pi
RHO = cmath.exp(1j * PI / 3)
RNG = np.random.default_rng(42)


def random_tau(im_lo=0.4, im_hi=5.0):
    return complex(RNG.uniform(-1, 2), RNG.uniform(im_lo, im_hi))


class TestEta1:
    def test_special_values(self):
        assert abs(eval_eta1(1j) - PI) < 1e-12
        assert abs(eval_eta1(RHO) - 2 * PI / math.sqrt(3)) < 1e-12
        assert abs(eval_eta1(complex(0.5, 0.5)) - 2 * PI) < 1e-12

    def test_leading_term_bound_at_5i(self):
        # eta1 -> pi^2/3 with the first series term 8 pi^2 e^{-10 pi} dominating;
        # the cushion absorbs one ulp of the pi^2/3-sized subtraction
        bound = 8 * PI**2 * math.exp(-10 * PI)
        assert abs(eval_eta1(5j) - PI**2 / 3) <= bound + 1e-15

    def test_periodicity(self):
        for _ in range(5):
            t = random_tau()
            assert abs(eval_eta1(t + 1) - eval_eta1(t)) < 2e-12
            g2a = eval_invariants(t + 1)[0]
            g2b = eval_invariants(t)[0]
            assert abs(g2a - g2b) < 2e-12 * (1 + abs(g2a))

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            eval_eta1(complex(0.3, -1.0))
        with pytest.raises(ValueError):
            TauPoint(0.3, 0.0)

    @pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(0.3, math.nan), complex(math.inf, 1.0),
                                   complex(-math.inf, 1.0), complex(0.3, math.inf), complex(0.3, -math.inf),
                                   complex(0.3, 0.0), complex(0.3, -0.0), complex(0.3, -1.0)])
    def test_from_complex_rejects_what_the_constructor_does(self, z):
        with pytest.raises(ValueError) as direct:
            TauPoint(z.real, z.imag)
        with pytest.raises(ValueError) as built:
            TauPoint.from_complex(z)
        assert str(built.value) == str(direct.value)

    def test_from_complex_is_the_constructor(self):
        for z in (complex(0.3, 1.2), complex(-0.0, 0.5), complex(1e300, 5e-324), qseries.lattice_point(0.5 + 1j)):
            p = TauPoint.from_complex(z)
            want = TauPoint(z.real, z.imag)
            assert p == want and hash(p) == hash(want) and repr(p) == repr(want)
            assert float_bits((p.re, p.im)) == float_bits((want.re, want.im))
            assert type(p.re) is float and type(p.im) is float
            with pytest.raises(AttributeError):
                p.re = 1.0

    @pytest.mark.parametrize("tau", [complex(math.nan, 1.0), complex(0.3, math.nan),
                                     complex(math.inf, 1.0), complex(0.3, math.inf)])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="finite"):
            eval_eta1(tau)
        with pytest.raises(ValueError, match="finite"):
            eval_weierstrass((0.1, 0.2), tau)

    @pytest.mark.parametrize("rs", [(math.nan, 0.2), (0.1, math.inf), (-math.inf, 0.2)])
    def test_rejects_non_finite_lattice_coordinates(self, rs):
        with pytest.raises(ValueError, match="finite"):
            eval_weierstrass(rs, 1j)

    @pytest.mark.parametrize("x", [1e3, 1e6, 1e12])
    def test_large_real_part(self, x):
        # q is formed after translating Re tau by an integer, so no digits
        # are lost to the size of Re tau
        assert abs(eval_eta1(complex(x, 1.0)) - PI) < 1e-12
        for a, b in zip(eval_invariants(complex(x + 1, 1.0)), eval_invariants(complex(x, 1.0))):
            assert abs(a - b) < 1e-12 * abs(b)


class TestE2:
    def test_series_coefficients(self):
        # b_n = sigma_1(n): 1, 3, 4 -> q-coefficients -24, -72, -96
        sig = _sigma(1, 3)
        assert [-24 * sig[k] for k in (1, 2, 3)] == [-24, -72, -96]

    def test_value_at_i(self):
        assert abs(eval_E2(1j) - 3 / PI) < 1e-12

    def test_value_at_2i_frozen_oracle(self):
        # oracle: direct divisor-sum series at q = e^{-4 pi}, 200 terms
        q = math.exp(-4 * PI)
        sig = np.zeros(201)
        for d in range(1, 201):
            sig[d::d] += d
        oracle = 1 - 24 * sum(sig[k] * q**k for k in range(1, 201))
        assert abs(oracle - 0.9999163029078149) < 1e-15
        assert abs(eval_E2(2j) - oracle) < 2e-12


class TestInvariants:
    def test_g2_vanishes_at_corner(self):
        assert abs(eval_invariants(RHO)[0]) < 1e-8

    def test_g2_rhombus_relation(self):
        g2_i = eval_invariants(1j)[0]
        g2_r = eval_invariants(complex(0.5, 0.5))[0]
        assert g2_i.real > 12 * PI**2
        assert abs(g2_r + 4 * g2_i) < 1e-9

    def test_g3_positive_on_line(self):
        g3 = eval_invariants(complex(0.5, 0.7))[1]
        assert abs(g3.imag) < 1e-12
        assert g3.real > 0

    def test_g2_limit(self):
        assert abs(eval_invariants(6j)[0] - 4 * PI**4 / 3) < 1e-10

    def test_g3_relation_on_line(self):
        # g3 = 4 e1 |e2|^2 on the rhombus line
        t = complex(0.5, 0.7)
        g3 = eval_invariants(t)[1]
        e1 = eval_ek(1, t)
        e2 = eval_ek(2, t)
        assert abs(g3 - 4 * e1 * abs(e2) ** 2) < 1e-9


class TestWeierstrass:
    def test_wp_prime_zero_at_half_periods(self):
        t = complex(0.3, 1.1)
        for rs in ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
            assert abs(eval_weierstrass(rs, t)[1]) < 1e-10

    def test_parity_exact(self):
        t = complex(0.23, 0.9)
        for rs in ((0.13, 0.27), (0.4, 0.11), (-0.31, 0.05)):
            wp_p, wpp_p, zeta_p = eval_weierstrass(rs, t)
            wp_m, wpp_m, zeta_m = eval_weierstrass((-rs[0], -rs[1]), t)
            assert wp_p == wp_m
            assert wpp_p == -wpp_m
            assert zeta_p == -zeta_m

    def test_laurent_leading_terms(self):
        t = complex(0.31, 1.07)
        g2v, g3v = eval_invariants(t)
        s, C = 1e-2, 0.3
        u = -C * s + s * t
        wp = eval_weierstrass((-C * s, s), t)[0]
        assert abs(wp - (1 / u**2 + g2v * u**2 / 20)) < abs(u) ** 4 * abs(g3v)

    def test_quasi_periodicity(self):
        for _ in range(10):
            t = random_tau()
            r, s = RNG.uniform(0.05, 0.45), RNG.uniform(0.05, 0.45)
            z0 = eval_weierstrass((r, s), t)[2]
            z_r = eval_weierstrass((r + 1, s), t)[2]
            z_s = eval_weierstrass((r, s + 1), t)[2]
            assert abs(z_r - z0 - eval_eta1(t)) < 5e-12
            assert abs(z_s - z0 - eval_eta2(t)) < 5e-12

    def test_differential_equation(self):
        for _ in range(10):
            t = random_tau()
            r, s = RNG.uniform(0.05, 0.45), RNG.uniform(0.05, 0.45)
            wp, wpp, _ = eval_weierstrass((r, s), t)
            g2v, g3v = eval_invariants(t)
            resid = abs(wpp**2 - (4 * wp**3 - g2v * wp - g3v))
            assert resid < 1e-11 * max(1.0, abs(wp) ** 3)

    @staticmethod
    def naive_series(r, s, t, n=220):
        # independent oracle: the Lambert-series expansions summed directly,
        # convergent (slowly) even at Im tau = 0.2
        rh = r - math.floor(r + 0.5)
        sh = s - math.floor(s + 0.5)
        q = cmath.exp(2j * PI * t)
        x = cmath.exp(2j * PI * (rh + sh * t))
        sp = sum(k * (x**k + x**-k - 2) * q**k / (1 - q**k) for k in range(1, n))
        spp = sum(k**2 * (x**k - x**-k) * q**k / (1 - q**k) for k in range(1, n))
        sz = sum((x**k - x**-k) * q**k / (1 - q**k) for k in range(1, n))
        wp = -4 * PI**2 * (1 / 12 + x / (1 - x) ** 2 + sp)
        wpp = -8j * PI**3 * (x / (1 - x) ** 2 + 2 * x**2 / (1 - x) ** 3 + spp)
        sig = _sigma(1, n)
        e1 = PI**2 / 3 - 8 * PI**2 * sum(sig[k] * q**k for k in range(1, n))
        e2 = t * e1 - 2j * PI
        zeta = (2j * PI * sh - 1j * PI * (1 + x) / (1 - x) - 2j * PI * sz
                + r * e1 + s * e2)
        return wp, wpp, zeta

    def test_low_im_pullback_consistency(self):
        # below min_im_direct the modular pull-back path must agree with a
        # direct summation of the defining series
        t = complex(0.17, 0.2)
        oracle = self.naive_series(0.2, 0.3, t)
        got = eval_weierstrass((0.2, 0.3), t)
        for a, b in zip(oracle, got):
            assert abs(a - b) < 1e-9 * max(1, abs(a))

    def test_pole_rejected(self):
        with pytest.raises(PoleAtLattice):
            eval_weierstrass((1.0, 2.0), complex(0.3, 1.0))

    def test_large_real_part(self):
        # tau + x with 0.25 x an integer spans the same lattice and puts z at
        # a lattice translate, so wp and wp' are unchanged; the characteristic
        # is carried through the translation exactly, direct and pulled back
        for y in (1.0, 0.2):
            base = eval_weierstrass((0.1, 0.25), complex(0.0, y))
            for x in (1e3, 1e6, 1e12):
                got = eval_weierstrass((0.1, 0.25), complex(x, y))
                for a, b in zip(got[:2], base[:2]):
                    assert abs(a - b) <= 1e-12 * abs(b), (x, y)

    @pytest.mark.parametrize("tau", [complex(0.2, 1.1), complex(0.3, 0.1)])
    def test_one_series_besides_the_family(self, monkeypatch, tau):
        # zeta reads only eta1 of the (eta1, g2, g3) series: one Horner sum,
        # direct and pulled back
        calls = []
        horner = qseries.horner
        monkeypatch.setattr(qseries, "horner",
                            lambda *args: calls.append(args) or horner(*args))
        eval_weierstrass((0.1, 0.25), tau)
        assert len(calls) == 1

    def test_finite_where_the_pullback_lands_high(self):
        # _pullback takes this tau to Im 263, where x underflows to 0
        t = complex(-2.998967914617505, 0.0034919576655647135)
        for v in (*eval_weierstrass((0.5, 0.0), t), eval_Zrs2((0.5, 0.0), t)):
            assert cmath.isfinite(v)


class TestCarry:
    """The characteristic _pullback returns is the carry its docstring
    documents, formed here from round(Re tau) and reduce_to_F_ints alone."""

    @staticmethod
    def carried(tau: complex, rs) -> tuple:
        red = lambda v: v - math.floor(v + 0.5)
        r, s = rs
        k = round(tau.real)
        t = tau - k if k else tau
        if k:
            r, s = red(r), red(s)
            if -1 <= k <= 1:
                r = r + k * s
            else:
                # k s mod 1 in [-1/2, 1/2), exactly, then rounded once
                ks = Fraction(s) * k
                r = r + float(ks - math.floor(ks + Fraction(1, 2)))
        if t.imag < qseries._FAMILY_FLOOR:
            _, a, b, c, d = reduce_to_F_ints(t)
            r, s = red(r), red(s)
            r, s = d * r + b * s, c * r + a * s
        return red(r), red(s)

    @staticmethod
    def points(seed: int, n: int = 400):
        """n seeded (tau, rs): Re tau in [-2, 2], or up to 1e15 in modulus
        (log-uniform), Im tau log-uniform in [0.003, 3]; rs in [-3, 3]^2,
        a quarter within 1e-3 of a lattice point."""
        rng = random.Random(seed)
        out = []
        for i in range(n):
            re = rng.uniform(-2, 2) if i % 2 else rng.choice((-1, 1)) * 10 ** rng.uniform(0, 15)
            tau = complex(re, math.exp(rng.uniform(math.log(0.003), math.log(3.0))))
            if i % 4 == 3:
                rs = (rng.randint(-3, 3) + rng.uniform(-1e-3, 1e-3),
                      rng.randint(-3, 3) + rng.uniform(-1e-3, 1e-3))
            else:
                rs = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            out.append((tau, rs))
        return out

    @pytest.mark.parametrize("lattice", [False, True], ids=["plain", "LatticePoint"])
    def test_pullback_returns_the_carry(self, lattice):
        cases = {"k": 0, "|k|>=2": 0, "reduced": 0}
        for tau, rs in self.points(seed=71 + lattice):
            want = self.carried(tau, rs)
            assert max(abs(v) for v in want) >= 1e-12
            t = qseries.lattice_point(tau) if lattice else tau
            assert float_bits(qseries._pullback(t, rs)[3]) == float_bits(want), (tau, rs)
            assert all(-0.5 <= v < 0.5 for v in want)
            k = round(tau.real)
            cases["k"] += k != 0
            cases["|k|>=2"] += abs(k) >= 2
            cases["reduced"] += tau.imag < qseries._FAMILY_FLOOR
        assert min(cases.values()) >= 100, cases

    def test_lattice_characteristic_rejected(self):
        for rs, tau in (((2.0, -1.0), 1j), ((0.0, 0.0), complex(1e6, 0.01)),
                        ((0.3, 0.2), complex(0.123456, 1e-34))):
            with pytest.raises(PoleAtLattice):
                qseries._pullback(tau, rs)


class TestEk:
    def test_e1_zero_on_square_corner(self):
        assert abs(eval_ek(1, complex(0.5, 0.5))) < 1e-10

    def test_e1_positive_above(self):
        v = eval_ek(1, complex(0.5, 0.8))
        assert abs(v.imag) < 1e-10
        assert v.real > 0

    def test_root_sum_zero(self):
        t = 1.3j
        total = eval_ek(1, t) + eval_ek(2, t) + eval_ek(3, t)
        assert abs(total) < 3e-12

    def test_bad_index(self):
        with pytest.raises(ValueError):
            eval_ek(4, 1j)

    def test_root_sum_where_the_pullback_lands_high(self):
        # tau near a cusp with large c lands hundreds of units up, where
        # x = exp(2 pi i z) underflows to 0 for the half period 1/2 + tau/2
        rng = random.Random(5)
        for _ in range(3000):
            t = complex(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(0.003), math.log(4))))
            e = [eval_ek(k, t) for k in (1, 2, 3)]
            assert abs(sum(e)) <= 1e-12 * max(map(abs, e)), t


class TestDerivatives:
    def test_finite_difference_agreement(self):
        h = 1e-5
        for _ in range(20):
            t = random_tau(0.4, 3.0)
            e1p, g2p, g3p = eval_derivatives(t)
            fd1 = (eval_eta1(t + h) - eval_eta1(t - h)) / (2 * h)
            fd2 = (eval_invariants(t + h)[0] - eval_invariants(t - h)[0]) / (2 * h)
            fd3 = (eval_invariants(t + h)[1] - eval_invariants(t - h)[1]) / (2 * h)
            assert abs(fd1 - e1p) <= 1e-6 * (1 + abs(e1p))
            assert abs(fd2 - g2p) <= 1e-6 * (1 + abs(g2p))
            assert abs(fd3 - g3p) <= 1e-6 * (1 + abs(g3p))

    def test_ramanujan_form(self):
        t = complex(0.3, 1.1)
        e2 = eval_E2(t)
        e4 = 3 * eval_invariants(t)[0] / (4 * PI**4)
        e2_prime = (PI * 1j / 6) * (e2**2 - e4)
        assert abs(e2_prime - 3 / PI**2 * eval_derivatives(t)[0]) < 1e-10

    def test_line_derivative_identity(self):
        # d/db eta1(1/2 + ib) = -(1/4 pi)(2 eta1^2 - g2/6)
        b = 0.9
        t = complex(0.5, b)
        e1 = eval_eta1(t)
        g2v = eval_invariants(t)[0]
        lhs = (1j * eval_derivatives(t)[0]).real
        rhs = (-(2 * e1**2 - g2v / 6) / (4 * PI)).real
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


class TestLegendre:
    def test_eta2_vs_zeta_half_period(self):
        for _ in range(100):
            t = random_tau()
            indep = 2 * eval_weierstrass((0.0, 0.5), t)[2]
            assert abs(eval_eta2(t) - indep) < 3e-12


class TestFusedSeries:
    def test_eisenstein_sums_equal_three_horner_sums(self):
        rng = random.Random(13)
        coeffs = qseries._sigma_triples(MAX_TERMS)
        for n in range(MAX_TERMS + 1):
            for _ in range(3):
                q = cmath.rect(RHO_CAP * rng.random(), rng.uniform(-PI, PI))
                want = tuple(qseries.horner(_sigma(p, n), q, n) for p in (1, 3, 5))
                assert qseries.eisenstein_sums(coeffs, q, n) == want, (n, q)

    def test_eta1_g2_sums_equal_the_first_two_columns(self):
        rng = random.Random(16)
        coeffs = qseries._sigma_triples(MAX_TERMS)
        for n in range(MAX_TERMS + 1):
            for _ in range(3):
                q = cmath.rect(RHO_CAP * rng.random(), rng.uniform(-PI, PI))
                want = qseries.eisenstein_sums(coeffs, q, n)[:2]
                assert qseries.eta1_g2_sums(coeffs, q, n) == want, (n, q)

    def test_eta1_g2_equals_basic(self):
        # directly, at a given nome, and pulled back
        rng = random.Random(17)
        pulled = 0
        for _ in range(2000):
            t = complex(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(0.003), math.log(4))))
            pulled += t.imag < DEFAULT.min_im_direct
            assert qseries._eta1_g2(t, DEFAULT) == qseries._basic(t, DEFAULT)[:2], t
            q = qseries._pullback(t)[4]
            assert q == cmath.exp(2j * PI * qseries._pullback(t)[0])
            want = qseries._basic_direct(q, DEFAULT)[:2]
            assert qseries._eta1_g2_direct(q, DEFAULT) == want, t
        assert 500 < pulled < 1500

    def test_basic_direct_equals_three_horner_sums(self):
        rng = random.Random(14)
        for _ in range(500):
            t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.35, 4.0))
            q = cmath.exp(2j * PI * t)
            n = qseries._basic_terms(q, DEFAULT)
            s1, s3, s5 = (qseries.horner(_sigma(p, n), q, n) for p in (1, 3, 5))
            want = (PI**2 / 3 - 8 * PI**2 * s1, (4.0 / 3.0) * PI**4 + 320 * PI**4 * s3,
                    8 * PI**6 / 27 * (1 - 504 * s5))
            assert qseries._basic_direct(q, DEFAULT) == want, t

    def test_eta1_evaluators_equal_basic(self):
        # eval_eta1, eval_eta2 and eval_E2 sum the eta1 series alone and lift
        # it alone: the values derived from _basic, bit for bit, directly
        # and pulled back
        rng = random.Random(15)
        pulled = 0
        for _ in range(2000):
            t = complex(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(0.003), math.log(4))))
            pulled += t.imag < DEFAULT.min_im_direct
            e1 = qseries._basic(t, DEFAULT)[0]
            assert eval_eta1(t) == e1, t
            assert eval_eta2(t) == t * e1 - 2j * PI, t
            assert eval_E2(t) == 3 / PI**2 * e1, t
        assert 500 < pulled < 1500

    def test_one_fused_sum_per_basic_evaluation(self, monkeypatch):
        calls = []
        inner = qseries.eisenstein_sums
        monkeypatch.setattr(qseries, "eisenstein_sums",
                            lambda *args: calls.append(args) or inner(*args))
        monkeypatch.setattr(qseries, "horner", None)
        for t in (complex(0.2, 1.1), complex(0.3, 0.1)):
            eval_invariants(t)
        assert len(calls) == 2


class TestChooseTruncation:
    @staticmethod
    def tail(rho, n, kmax=4000):
        return sum(k**3 * rho**k for k in range(n + 1, kmax))

    @pytest.mark.parametrize("im_tau,cap", [(math.sqrt(3) / 2, 40), (6.0, 3)])
    def test_certified_and_bounded(self, im_tau, cap):
        eps = 1e-12
        n = choose_truncation(im_tau, eps)
        assert n <= cap
        rho = math.exp(-2 * PI * im_tau)
        assert self.tail(rho, n) < eps / (320 * PI**4)

    def test_minimal_at_loose_tolerance(self):
        # the empty series is certified
        n = choose_truncation(10.0, 0.5)
        assert n == 0

    def test_policy_threshold_rejects_lower_height(self):
        assert choose_truncation(DEFAULT.min_im_direct, 1e-12) > 0
        with pytest.raises(ValueError, match="threshold"):
            choose_truncation(0.34, 1e-12)

    def test_failure_when_capped(self):
        # no MAX_TERMS-term series reaches this tolerance at the ratio cap
        with pytest.raises(TruncationFailure):
            eval_eta1(complex(0.0, 0.35), PrecisionPolicy(eps=1e-300))


class TestTruncationTable:
    # the tolerance divisors and powers of _basic_terms and _wp_family
    PAIRS = [pytest.param(150000.0, 5, id="basic"),
             pytest.param(64 * PI**3, 3, id="wp_family")]

    @staticmethod
    def tails(rho, tol, power, n):
        """Exact majorant tails sum_{k>m} k^power rho^k for m = max(n - 2, 0)
        and m = n, summed until the terms are negligible against tol."""
        terms = []
        k = 1
        while k <= max(n, power) + 1 or terms[-1] >= 1e-20 * tol:
            terms.append(float(k) ** power * rho**k)
            k += 1
        return math.fsum(terms[max(n - 2, 0):]), math.fsum(terms[n:])

    @pytest.mark.parametrize("eps", [1e-12, 3e-12, 1e-7])
    @pytest.mark.parametrize("divisor,power", PAIRS)
    def test_certified_and_near_minimal(self, divisor, power, eps):
        tol = eps / divisor
        rhos = [0.0, RHO_CAP] + list(np.geomspace(1e-20, RHO_CAP, 10**4))
        for b in _thresholds(tol, power):
            rhos += [b, math.nextafter(b, 0.0), math.nextafter(b, 1.0)]
        for rho in (float(r) for r in rhos if 0.0 <= r <= RHO_CAP):
            n = _length(rho, _thresholds(tol, power))
            assert 0 <= n <= MAX_TERMS
            before, at = self.tails(rho, tol, power, n)
            assert at < tol, (rho, n)
            # n - 2 terms fall short: n is at most one more than the least
            assert n < 2 or before >= tol, (rho, n)

    @pytest.mark.parametrize("eps", [1e-12, 1e-7])
    def test_family_length_is_lengths(self, eps, monkeypatch):
        # _wp_family applies _length inline: the same length at every point
        lengths = []
        wp_sums = qseries.wp_sums
        monkeypatch.setattr(qseries, "wp_sums", lambda x, q, n: lengths.append(n) or wp_sums(x, q, n))
        rng = random.Random(13)
        th = _thresholds(eps / (64 * PI**3), 3)
        want = []
        for _ in range(500):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(qseries._FAMILY_FLOOR, 3.0))
            rh, sh = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
            n = _length(math.exp(-2 * PI * (1.0 - abs(sh)) * tau.imag), th)
            qseries._wp_family(rh, sh, tau, cmath.exp(2j * PI * tau), PrecisionPolicy(eps))
            if n:
                want.append(n)
        assert lengths == want and len(set(want)) > 3

    @pytest.mark.parametrize("rho", [0.95, 0.99, 1.5, math.nan, math.inf])
    def test_failure_near_one(self, rho):
        with pytest.raises(TruncationFailure):
            _length(rho, _thresholds(1e-12 / 150000.0, 5))

    @pytest.mark.parametrize("divisor,power", PAIRS)
    def test_cap_is_the_boundary(self, divisor, power):
        assert _length(RHO_CAP, _thresholds(1e-12 / divisor, power)) > 0
        for rho in (math.nextafter(RHO_CAP, 1.0), -1e-300):
            with pytest.raises(TruncationFailure):
                _length(rho, _thresholds(1e-12 / divisor, power))

    def test_failure_beyond_max_terms(self):
        with pytest.raises(TruncationFailure, match="256 terms"):
            _length(0.001, _thresholds(1e-300 / 150000.0, 5))


class TestPrecisionPolicy:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(eps=2.0)
        for knob in ("max_terms", "min_im_direct"):
            with pytest.raises(TypeError):
                PrecisionPolicy(**{knob: 0.5})
        pp = PrecisionPolicy()
        assert pp.eps == 1e-12 and pp.min_im_direct == DEFAULT.min_im_direct == 0.35


def _outcome(call):
    """The value of call(), or the type of the exception it raises."""
    try:
        return call()
    except Exception as exc:  # compared, not hidden: both sides must agree
        return type(exc)


class TestEta1G2Callers:
    """The callers that read eta1 and g2 alone equal, bit for bit, their
    formulation through _basic, which also sums g3."""

    @staticmethod
    def taus(seed, n):
        # Im tau log-uniform in [0.035, 3.5]: about half are pulled back
        rng = random.Random(seed)
        return rng, [complex(rng.uniform(-2, 2), math.exp(rng.uniform(math.log(0.035), math.log(3.5))))
                     for _ in range(n)]

    def through_basic(self, monkeypatch):
        from e2crit import curves, premodular, zeros
        basic = lambda t, pp: qseries._basic(t, pp)[:2]
        monkeypatch.setattr(zeros, "_eta1_g2", basic)
        monkeypatch.setattr(curves, "_eta1_g2", basic)
        monkeypatch.setattr(premodular, "_eta1_g2_direct",
                            lambda q, pp: qseries._basic_direct(q, pp)[:2])

    def test_fc_value_scale_and_square_root(self, monkeypatch):
        from e2crit import zeros
        rng, taus = self.taus(31, 400)
        assert 150 < sum(t.imag < DEFAULT.min_im_direct for t in taus) < 250
        Cs = [rng.uniform(-3, 4) for _ in taus]
        anchors = [cmath.sqrt(eval_invariants(t)[0] / 12) * complex(rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2))
                   * rng.choice((1, -1)) for t in taus]

        def run():
            return [(zeros._fc_value(C, t, DEFAULT), zeros.fc_scale(C, t), zeros.eval_fC(C, t),
                     _outcome(lambda: zeros.sqrt_g2_over_12(t)),
                     _outcome(lambda: zeros.sqrt_g2_over_12(t, DEFAULT, a)))
                    for C, t, a in zip(Cs, taus, anchors)]

        got = run()
        self.through_basic(monkeypatch)
        assert got == run()

    def test_zrs2_parts(self, monkeypatch):
        from e2crit import premodular
        rng, taus = self.taus(32, 400)
        chars = [(rng.uniform(0.05, 0.95), rng.uniform(-0.45, 0.45)) for _ in taus]
        run = lambda: [premodular._zrs2_parts(rs, t) for rs, t in zip(chars, taus)]
        got = run()
        self.through_basic(monkeypatch)
        assert got == run()

    def test_hessian_and_line_values(self, monkeypatch):
        from e2crit import curves
        rng, taus = self.taus(33, 100)
        bs = [rng.uniform(0.3, 3.0) for _ in taus]
        run = lambda: ([_outcome(lambda: curves.hessian_detG2(sign, t)) for t in taus for sign in (1, -1)],
                       [curves._line_values(b, DEFAULT) for b in bs])
        got = run()
        self.through_basic(monkeypatch)
        hessians, lines = run()
        assert got[0] == hessians
        assert got[1] == [(e1.real, g2v.real) for e1, g2v, _ in
                          (qseries._basic(complex(0.5, b), DEFAULT) for b in bs)] == lines

    def test_transform_quasi(self):
        from e2crit.moebius import MoebiusMap
        gammas = [MoebiusMap(*m) for m in
                  ((1, 0, 0, 1), (1, 1, 0, 1), (0, -1, 1, 0), (1, 0, 2, 1), (2, 1, 3, 2), (1, -1, 4, -3))]
        rng, taus = self.taus(34, 400)
        for t in taus:
            gamma = rng.choice(gammas)
            want = qseries._lift(qseries._basic(t, DEFAULT), gamma.c, gamma.mu(t))[:2]
            assert qseries.transform_quasi(gamma, t) == want, (gamma, t)


# the characteristics ((2 - s)/2, s) of appendix_bstar's three walks
BSTAR_CHARS = tuple(((2 - s) / 2, s) for s in (4e-3, 2e-3, 1e-3))


class TestPointCarriedData:
    """The lattice data an f0_contour point carries (a LatticePoint) changes
    no evaluation, cold or warm: every evaluator gives the same bits there
    as at a plain complex copy of the point."""

    @staticmethod
    def evaluators(pp):
        from e2crit import curves, premodular, zeros
        from e2crit.moebius import MoebiusMap
        gamma = MoebiusMap(2, 1, 3, 2)
        out = [lambda t: eval_eta1(t, pp),
               lambda t: eval_eta2(t, pp),
               lambda t: eval_E2(t, pp),
               lambda t: eval_invariants(t, pp),
               lambda t: eval_derivatives(t, pp),
               lambda t: [eval_ek(k, t, pp) for k in (1, 2, 3)],
               lambda t: qseries.transform_quasi(gamma, t, pp),
               lambda t: zeros.sqrt_g2_over_12(t, pp, anchor=2.0),
               lambda t: zeros.eval_phi(zeros.BranchState(-1, 2.0), t, pp),
               lambda t: curves.hessian_detG2(1, t, pp, zeros.BranchState(1, 2.0))]
        for C in (-0.7, 0.5, 2.5):
            out += [lambda t, C=C: zeros.eval_fC(C, t, pp),
                    lambda t, C=C: zeros.eval_fC_prime(C, t, pp),
                    lambda t, C=C: zeros._fc_parts(C, t, pp),
                    lambda t, C=C: zeros.fc_scale(C, t, pp)]
        # (0.02, 0.003) takes the Laurent form of Z2 at 66 of the 83 points,
        # and appendix_bstar's characteristics at most points, at several K
        for rs in ((1 / 6, 1 / 6), (0.7, 0.2), (0.3, 0.45), (0.02, 0.003), *BSTAR_CHARS):
            out += [lambda t, rs=rs: premodular.eval_Zrs2(rs, t, pp),
                    lambda t, rs=rs: premodular._zrs2_parts(rs, t, pp),
                    lambda t, rs=rs: premodular.eval_Zrs(rs, t, pp),
                    lambda t, rs=rs: premodular._zrs_parts(rs, t, pp),
                    lambda t, rs=rs: eval_weierstrass(rs, t, pp)]
        return out

    def run(self, pp, points, form=float_bits):
        return [form(_outcome(lambda: fn(t))) for t in points for fn in self.evaluators(pp)]

    @staticmethod
    def fresh(shape):
        """The points of a polyline of f0_contour, built anew: LatticePoints
        whose series values are not formed yet."""
        from e2crit import zeros
        return zeros._f0_polyline.__wrapped__(*shape).points

    @pytest.mark.parametrize("eps", [1e-12, 1e-10])
    def test_values_cold_and_warm(self, eps):
        pp = PrecisionPolicy(eps)
        points = [p for shape in ((6.0, 0.08), (6.0, 0.2)) for p in self.fresh(shape)]
        plain = [complex(p) for p in points]
        assert all(type(p) is LatticePoint and qseries._pullback(p)[5] is not None for p in points)
        assert all(type(t) is complex and qseries._pullback(t)[5] is None for t in plain)
        off = self.run(pp, plain)
        assert self.run(pp, points) == off
        assert self.run(pp, points) == off

    def test_one_series_per_point(self, monkeypatch):
        # every evaluator at a LatticePoint reads its columns of the
        # point's (eta1, g2, g3): _basic_direct runs once per pull-back and
        # eps, inside _Pulled.basic, and the eta1 and (eta1, g2) series
        # never run at a point's nome
        from e2crit import premodular
        points = self.fresh((6.0, 0.08))
        nomes = {at.q for p in points for at in (p.low, p.family)}
        summed = Counter()
        stray = []
        inside = []
        basic, basic_direct = qseries._Pulled.basic, qseries._basic_direct

        def tracked(at, pp):
            inside.append(at)
            try:
                return basic(at, pp)
            finally:
                inside.pop()

        def counted(q, pp):
            if inside:
                summed[id(inside[-1]), pp.eps] += 1
            elif q in nomes:
                stray.append(("_basic_direct", q))
            return basic_direct(q, pp)

        def refused(name):
            fn = getattr(qseries, name)

            def wrapped(q, pp):
                if q in nomes:
                    stray.append((name, q))
                return fn(q, pp)
            return wrapped

        monkeypatch.setattr(qseries._Pulled, "basic", tracked)
        for module in (qseries, premodular):
            monkeypatch.setattr(module, "_basic_direct", counted)
            for name in ("_eta1_direct", "_eta1_g2_direct"):
                monkeypatch.setattr(module, name, refused(name))
        for eps in (1e-12, 1e-10):
            self.run(PrecisionPolicy(eps), points)
            self.run(PrecisionPolicy(eps), points)
        assert not stray
        assert summed and max(summed.values()) == 1
        # both floors of every point were read, at both eps
        pulled = {id(at) for p in points for at in (p.low, p.family)}
        assert {key[0] for key in summed} == pulled
        assert len(summed) == 2 * len(pulled)

    def test_bstar_chars_take_the_laurent_form_at_several_lengths(self, monkeypatch):
        from e2crit import premodular
        lengths = Counter()
        length = premodular._laurent_length

        def recorded(t, eps):
            K = length(t, eps)
            lengths[K] += 1
            return K

        monkeypatch.setattr(premodular, "_laurent_length", recorded)
        points = self.fresh((6.0, 0.08))
        for rs in BSTAR_CHARS:
            for p in points:
                premodular._zrs2_parts(rs, p)
        assert sum(lengths.values()) > len(points) and len(lengths) >= 3

    def test_point_data_formed_once(self, monkeypatch):
        # f_C's point data (_fc_data) and the Laurent coefficients
        # (_laurent_series up to LAURENT_TERMS) are formed at most once per
        # point and eps, however many evaluators read them; every Laurent
        # series at a point is the one its _Pulled keeps
        from e2crit import premodular, zeros
        points = self.fresh((6.0, 0.08))
        fc_formed = Counter()
        laurent_formed = Counter()
        stray = []
        inside = []
        fc_data, kept, series = zeros._fc_data, premodular._laurent_kept, premodular._laurent_series

        def counted_fc(tau, pp):
            fc_formed[id(tau), pp.eps] += 1
            return fc_data(tau, pp)

        def tracked(at, pp):
            inside.append((id(at), pp.eps))
            try:
                return kept(at, pp)
            finally:
                inside.pop()

        def counted_series(vals, kmax, deriv):
            if inside:
                laurent_formed[inside[-1]] += 1
            else:
                stray.append(kmax)
            return series(vals, kmax, deriv)

        monkeypatch.setattr(zeros, "_fc_data", counted_fc)
        monkeypatch.setattr(premodular, "_laurent_kept", tracked)
        monkeypatch.setattr(premodular, "_laurent_series", counted_series)
        for eps in (1e-12, 1e-10):
            self.run(PrecisionPolicy(eps), points)
            self.run(PrecisionPolicy(eps), points)
        assert not stray
        assert max(fc_formed.values()) == 1 and max(laurent_formed.values()) == 1
        # every point formed f_C's data at both eps, and, as some
        # characteristic takes the Laurent form at each, its Laurent data
        assert len(fc_formed) == 2 * len({id(p) for p in points})
        assert len(laurent_formed) == 2 * len({id(p.family) for p in points})

    def test_negative_zero_real_part(self):
        left = [p for p in self.fresh((6.0, 0.08)) if p.real == 0.0]
        assert len(left) == 17
        mirrored = [complex(-0.0, p.imag) for p in left]
        off = self.run(DEFAULT, mirrored)
        on = self.run(DEFAULT, left)
        assert all(qseries._pullback(t)[5] is None for t in mirrored)
        assert self.run(DEFAULT, mirrored) == off
        # the same values as at the LatticePoints, up to the sign of a zero
        # (eta2's real part)
        assert off != on
        same = lambda v: v
        assert self.run(DEFAULT, mirrored, same) == self.run(DEFAULT, left, same)

    def test_as_tau_passes_a_lattice_point_through(self):
        from e2crit.domain import as_tau
        p = qseries.lattice_point(0.25 + 0.5j)
        assert as_tau(p) is p
        assert type(as_tau(complex(p))) is complex
        for bad in (complex(math.nan, 1.0), complex(0.5, math.inf), complex(0.5, 0.0), complex(0.5, -1.0)):
            with pytest.raises(ValueError):
                as_tau(bad)
            with pytest.raises(ValueError):
                qseries.lattice_point(bad)

    def test_f0_contour_keeps_the_last_polylines(self):
        from e2crit import zeros
        zeros._f0_polyline.cache_clear()
        base = zeros.f0_contour()
        assert zeros.f0_contour() is base and zeros.f0_contour(6, 0.08) is base
        for i in range(40):
            zeros.f0_contour(3.0 + i / 7, 0.05 + i / 400)
            info = zeros._f0_polyline.cache_info()
            assert info.maxsize == zeros.F0_KEPT and info.currsize <= zeros.F0_KEPT
        # the default polyline was dropped, and is built again when asked for
        again = zeros.f0_contour()
        assert again is not base and again == base
        assert all(type(p) is LatticePoint for p in again.points)
        assert again.points[-1] is again.points[0]


class TestKeptLambertWeights:
    """The Lambert weights q^k/(1-q^k) of the wp/Z family that a
    LatticePoint keeps (_Pulled.lambert): formed on the first family
    evaluation, to the length it needs, and extended in place, with every
    family value the float of a plain complex copy of the point."""

    # (0.4, 0.499) sums the family nearest s = 1/2, at its longest length
    CHARS = ((1 / 6, 1 / 6), (0.7, 0.2), (0.3, 0.45), (0.02, 0.003), (0.4, 0.499))

    @staticmethod
    def family():
        from e2crit import premodular
        return (eval_weierstrass, premodular.eval_Zrs, premodular._zrs_parts,
                premodular.eval_Zrs2, premodular._zrs2_parts)

    def run(self, pp, points):
        return [float_bits(_outcome(lambda: fn(rs, t, pp)))
                for t in points for rs in self.CHARS for fn in self.family()]

    @staticmethod
    def tables(points):
        return [p.family.weights for p in points]

    def test_kernel_over_a_table_is_the_plain_kernel(self):
        # a table grown in steps holds the floats of one formed at once, and
        # wp_sums_kept over it gives wp_sums' floats
        from e2crit._kernels_py import lambert_weights, wp_sums, wp_sums_kept
        rng = random.Random(30)
        for _ in range(300):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 2.0))
            q = cmath.exp(2j * PI * tau)
            x = cmath.exp(2j * PI * (rng.uniform(-0.5, 0.5) + rng.uniform(0.0, 0.5) * tau))
            n = rng.randrange(1, 40)
            w = [1 + 0j]
            for m in sorted(rng.sample(range(1, n + 1), min(n, 3))) + [n]:
                lambert_weights(w, q, m)
            assert float_bits(tuple(w)) == float_bits(tuple(lambert_weights([1 + 0j], q, n)))
            assert float_bits(wp_sums_kept(x, w, n)) == float_bits(wp_sums(x, q, n))

    def test_values_as_at_plain_copies_as_the_table_grows(self):
        # eps 1e-15 asks for longer sums than 1e-12, so tables formed at
        # 1e-12 are extended: the values stay those of the plain copies
        points = TestPointCarriedData.fresh((6.0, 0.08))
        plain = [complex(p) for p in points]
        lengths = []
        for eps in (1e-12, 1e-15):
            pp = PrecisionPolicy(eps)
            assert self.run(pp, points) == self.run(pp, plain)
            lengths.append([0 if w is None else len(w) for w in self.tables(points)])
        assert all(a <= b for a, b in zip(*lengths))
        assert sum(a < b for a, b in zip(*lengths)) > len(points) // 2

    def test_formed_on_first_use_to_the_length_asked(self, monkeypatch):
        from e2crit import premodular, zeros
        points = TestPointCarriedData.fresh((6.0, 0.08))
        # a fresh point keeps no table, and evaluators outside the family
        # form none
        for p in points:
            eval_E2(p)
            eval_invariants(p)
            zeros._fc_parts(0.5, p, DEFAULT)
        assert all(at.weights is None for p in points for at in (p.low, p.family))
        asked = {}
        kept = qseries.wp_sums_kept

        def recorded(x, w, n):
            asked[id(w)] = max(n, asked.get(id(w), 0))
            return kept(x, w, n)

        monkeypatch.setattr(qseries, "wp_sums_kept", recorded)
        before = self.tables(points)
        for eps in (1e-10, 1e-12, 1e-15):
            for rs in self.CHARS:
                for p in points:
                    premodular._zrs2_parts(rs, p, PrecisionPolicy(eps))
                after = self.tables(points)
                for old, new, w in zip(before, [list(w or ()) for w in after], after):
                    # one table a point, never replaced, never shortened, its
                    # weights never changed, and no longer than asked for
                    assert old is None or w is old[0]
                    assert not old or float_bits(tuple(new[1:len(old[1])])) == float_bits(tuple(old[1][1:]))
                    assert w is None or len(w) - 1 == asked[id(w)]
                before = [None if w is None else (w, list(w)) for w in after]
        # the points high in F0 sum the empty series at every characteristic
        formed = sum(w is not None for w in self.tables(points))
        assert len(points) // 2 < formed < len(points)
