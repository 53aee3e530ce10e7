"""Moebius maps, Gamma_0(2) membership, fundamental-domain reduction."""

import math
import struct

import numpy as np
import pytest

from e2crit import (
    DomainTag,
    MoebiusMap,
    apply,
    classify_domain,
    enumerate_gamma02,
    eval_E2,
    eval_eta1,
    eval_eta2,
    eval_invariants,
    is_gamma02,
    reduce_to_F,
    reduce_to_F0,
    transform_char,
    transform_quasi,
)
from e2crit.moebius import GAMMA_1, GAMMA_2, IDENTITY, W_CIRCLE, reduce_to_F_ints

PI = math.pi
RNG = np.random.default_rng(3)


def random_gamma(max_len=8, max_entry=50):
    T = MoebiusMap(1, 1, 0, 1)
    Ti = MoebiusMap(1, -1, 0, 1)
    S = MoebiusMap(0, -1, 1, 0)
    while True:
        g = IDENTITY
        for _ in range(int(RNG.integers(1, max_len))):
            g = g @ [T, Ti, S][int(RNG.integers(0, 3))]
        if max(abs(v) for v in (g.a, g.b, g.c, g.d)) <= max_entry:
            return g


class TestMoebiusMap:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            MoebiusMap(1, 0, 0, 2)

    def test_sign_normalization(self):
        g = MoebiusMap(-1, 0, -2, -1)
        assert (g.a, g.b, g.c, g.d) == (1, 0, 2, 1)
        g = MoebiusMap(-1, 0, 0, -1)
        assert (g.a, g.b, g.c, g.d) == (1, 0, 0, 1)

    def test_identity_action(self):
        t = complex(0.3, 0.8)
        assert apply(IDENTITY, t).z == t

    def test_height_formula(self):
        g = random_gamma()
        t = complex(0.4, 1.2)
        img = apply(g, t)
        assert abs(img.im - t.imag / abs(g.mu(t)) ** 2) < 1e-14

    def test_gamma2_cusp_swap(self):
        # (1,-1;1,0) sends tau to (tau-1)/tau
        g = MoebiusMap(1, -1, 1, 0)
        t = complex(0.05, 0.08)
        assert abs(g(t) - (t - 1) / t) < 1e-15

    def test_w_image_region(self):
        # W = (1,-1;2,-1) maps F0 into the lens between three circles
        for t in (complex(0.2, 1.0), complex(0.5, 3.0), complex(0.9, 0.7)):
            assert classify_domain(t) is not DomainTag.OUTSIDE
            img = W_CIRCLE(t)
            assert abs(img - 0.5) <= 0.5 + 1e-12
            assert abs(img - 0.25) >= 0.25 - 1e-12
            assert abs(img - 0.75) >= 0.25 - 1e-12

    def test_group_action_associativity(self):
        for _ in range(20):
            g1, g2 = random_gamma(), random_gamma()
            t = complex(RNG.uniform(-1, 1), RNG.uniform(0.5, 2.0))
            assert abs((g1 @ g2)(t) - g1(g2(t))) < 1e-13


class TestGamma02:
    def test_membership(self):
        assert is_gamma02(MoebiusMap(1, 0, 0, 1))
        assert is_gamma02(MoebiusMap(1, -1, 2, -1))
        assert not is_gamma02(MoebiusMap(0, -1, 1, 0))

    def test_enumeration_includes_basic_tiles(self):
        mats = {(g.a, g.b, g.c, g.d) for g in enumerate_gamma02(2)}
        assert (1, 0, 2, 1) in mats
        assert (1, -1, 2, -1) in mats

    def test_enumeration_valid_and_distinct(self):
        gammas = enumerate_gamma02(8)
        keys = [(g.a, g.b, g.c, g.d) for g in gammas]
        assert len(keys) == len(set(keys))
        for g in gammas:
            assert is_gamma02(g)
            assert g.a * g.d - g.b * g.c == 1
            assert 0 < g.c <= 8

    def test_enumeration_covers_coprime_residues(self):
        # brute-force oracle: per c, the d-entries hit exactly the coprime
        # residue classes mod c (the symmetric window duplicates only +-c/2)
        gammas = enumerate_gamma02(8)
        for c in (2, 4, 6, 8):
            got = {g.d % c for g in gammas if g.c == c}
            want = {d for d in range(c) if math.gcd(d, c) == 1}
            assert got == want


class TestReduceF0:
    def test_interior_is_fixed(self):
        t0, g = reduce_to_F0(complex(0.5, 2.0))
        assert g == IDENTITY
        assert t0.z == complex(0.5, 2.0)

    def test_round_trip_recovers_map(self):
        gam = MoebiusMap(1, -1, 2, -1)
        t = gam(complex(0.3, 0.9))
        t0, g = reduce_to_F0(t)
        assert g == gam
        assert abs(t0.z - complex(0.3, 0.9)) < 1e-12

    def test_low_point_needs_nonzero_c(self):
        t0, g = reduce_to_F0(complex(0.5, 0.1))
        assert g.c != 0
        assert classify_domain(t0) is not DomainTag.OUTSIDE
        # brute-force oracle: some enumerated Gamma_0(2) map with |c| <= 64
        # (up to T-shifts) must pull tau into F0 and match our answer
        target = complex(0.5, 0.1)
        found = []
        for base in enumerate_gamma02(64):
            for k in range(-3, 4):
                cand = MoebiusMap(1, k, 0, 1) @ base
                pre = cand.inverse()(target)
                if pre.imag > 0 and classify_domain(pre) is not DomainTag.OUTSIDE:
                    found.append(cand)
        assert any(g == cand for cand in found)

    def test_many_random_round_trips(self):
        for _ in range(200):
            t = complex(RNG.uniform(-2, 2), RNG.uniform(0.05, 10))
            t0, g = reduce_to_F0(t)
            assert classify_domain(t0) is not DomainTag.OUTSIDE
            assert abs(g(t0.z) - t) < 1e-12

    def test_matches_map_walk(self):
        # reference: the same walk composing validated MoebiusMaps step by step
        def walk(t):
            g = IDENTITY
            while True:
                k = math.floor(t.real)
                if k != 0:
                    t -= k
                    g = g @ MoebiusMap(1, k, 0, 1)
                if abs(t - 0.5) >= 0.5 - 1e-12:
                    return t, g
                t = W_CIRCLE(t)
                g = g @ W_CIRCLE.inverse()

        rng = np.random.default_rng(11)
        for _ in range(2000):
            t = complex(rng.uniform(-50, 50), 10 ** rng.uniform(-3, 0.5))
            t0, g = reduce_to_F0(t)
            want_t, want_g = walk(t)
            assert (t0.z, g) == (want_t, want_g)

    def test_tiling_interiors_disjoint(self):
        for gam in enumerate_gamma02(6):
            for p in (complex(0.3, 0.9), complex(0.5, 1.3), complex(0.77, 1.1)):
                _, owner = reduce_to_F0(gam(p))
                assert owner == gam


class TestReduceF:
    def test_corner_fixed(self):
        rho = complex(0.5, math.sqrt(3) / 2)
        t1, g = reduce_to_F(rho)
        assert g == IDENTITY
        assert abs(t1.z - rho) < 1e-12

    def test_f0_points_use_three_pieces(self):
        for t in (complex(0.2, 1.5), complex(0.15, 0.4), complex(0.88, 0.45)):
            assert classify_domain(t) is DomainTag.F0_INTERIOR
            _, g = reduce_to_F(t)
            assert g in (IDENTITY, GAMMA_1, GAMMA_2)

    def test_low_point(self):
        t1, g = reduce_to_F(complex(0.0, 0.1) + 0.001)
        assert g.c != 0
        assert t1.im >= math.sqrt(3) / 2 - 1e-12
        assert abs(g(t1.z) - (0.001 + 0.1j)) < 1e-12

    def test_oracle_standard_reduction(self):
        # naive T/S loop into the centered domain, then shifted right
        for _ in range(50):
            t = complex(RNG.uniform(-2, 2), RNG.uniform(0.05, 4))
            t1, g = reduce_to_F(t)
            z = t
            for _ in range(200):
                z -= math.floor(z.real + 0.5)
                if abs(z) < 1 - 1e-12:
                    z = -1 / z
                else:
                    break
            assert abs(t1.im - z.imag) < 1e-9  # same orbit height
            assert 0 - 1e-12 <= t1.re <= 1 + 1e-12
            assert abs(t1.z) >= 1 - 1e-12

    def test_integer_routine_matches_map_walk(self):
        # reference: the walk composing validated MoebiusMaps step by step and
        # inverting with S_INVERT itself; the integer routine must give the
        # same point bit for bit and the same signed integers
        S = MoebiusMap(0, -1, 1, 0)
        bits = lambda z: struct.pack("<dd", z.real, z.imag)

        def walk(t):
            g = IDENTITY
            while True:
                k = math.floor(t.real + 0.5)
                if k != 0:
                    t -= k
                    g = g @ MoebiusMap(1, k, 0, 1)
                if abs(t) >= 1 - 1e-12:
                    break
                t = S(t)
                g = g @ S.inverse()
            if t.real < -1e-12:
                t += 1
                g = g @ MoebiusMap(1, -1, 0, 1)
            return t, g

        rng = np.random.default_rng(12)
        for _ in range(2000):
            t = complex(rng.uniform(-50, 50), 10 ** rng.uniform(-3, 0.5))
            want_t, g = walk(t)
            t1, a, b, c, d = reduce_to_F_ints(t)
            assert (bits(t1), a, b, c, d) == (bits(want_t), g.a, g.b, g.c, g.d), t
            t1, gam = reduce_to_F(t)
            assert (bits(t1.z), gam) == (bits(want_t), g), t


class TestTransforms:
    def test_eta1_inversion(self):
        t = complex(0.3, 1.3)
        got = transform_quasi(MoebiusMap(0, -1, 1, 0), t)[0]
        assert abs(got - t * eval_eta2(t)) < 1e-10

    def test_eta1_translation(self):
        t = complex(0.3, 1.3)
        got = transform_quasi(MoebiusMap(1, 1, 0, 1), t)[0]
        assert abs(got - eval_eta1(t)) < 1e-12

    def test_consistency_with_direct(self):
        for _ in range(20):
            g = random_gamma(max_entry=10)
            t = complex(RNG.uniform(-1, 2), RNG.uniform(0.4, 5))
            e1_t, g2_t = transform_quasi(g, t)
            mu = abs(g.mu(t))
            assert abs(e1_t - eval_eta1(g(t))) <= 1e-11 * (1 + mu**4)
            assert abs(g2_t - eval_invariants(g(t))[0]) <= 1e-11 * (1 + mu**4)

    def test_e2_additive_law(self):
        for _ in range(20):
            g = random_gamma(max_entry=10)
            t = complex(RNG.uniform(-1, 2), RNG.uniform(0.4, 5))
            mu = g.mu(t)
            lhs = eval_E2(g(t)) / mu**2
            rhs = eval_E2(t) - 6j * g.c / (PI * mu)
            assert abs(lhs - rhs) < 1e-9

    def test_transform_char(self):
        # characteristics are defined modulo the sign flip (r,s) ~ (-r,-s);
        # the +-I normalization of the map can negate the nominal answer
        def matches(out, want):
            return (abs(out.r - want[0]) < 1e-15 and abs(out.s - want[1]) < 1e-15) or \
                   (abs(out.r + want[0]) < 1e-15 and abs(out.s + want[1]) < 1e-15)

        rs = (0.21, 0.34)
        out = transform_char(IDENTITY, rs)
        assert (out.r, out.s) == rs
        assert matches(transform_char(GAMMA_1, rs), (-rs[1], rs[0] + rs[1]))
        assert matches(transform_char(GAMMA_2, rs), (rs[0] + rs[1], -rs[0]))

    def test_transform_char_defining_relation(self):
        # Z_{r',s'}(gamma.tau) = (c tau + d) Z_{r,s}(tau) with the entries of
        # the normalized representative
        from e2crit import eval_Zrs

        rs = (0.21, 0.34)
        t = complex(0.13, 1.21)
        for g in (GAMMA_1, GAMMA_2, random_gamma(max_entry=10)):
            out = transform_char(g, rs)
            lhs = eval_Zrs((out.r, out.s), g(t))
            rhs = g.mu(t) * eval_Zrs(rs, t)
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


class TestClassifyDomain:
    def test_tags(self):
        assert classify_domain(complex(0.5, 2.0)) is DomainTag.F0_INTERIOR
        assert classify_domain(complex(0.0, 1.0)) is DomainTag.F0_BOUNDARY
        assert classify_domain(complex(0.5, 0.5)) is DomainTag.F0_BOUNDARY
        assert classify_domain(complex(0.5, 0.3)) is DomainTag.OUTSIDE
        assert classify_domain(complex(-0.2, 1.0)) is DomainTag.OUTSIDE
