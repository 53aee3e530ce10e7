"""Pre-modular forms: half-lattice vanishing, symmetries, triangle
classification, cusp behaviour, zero location and the blow-up family."""

import cmath
import math
import random

import numpy as np
import pytest

from e2crit import (
    CharPair,
    Diverged,
    PoleAtLattice,
    TauPoint,
    TriangleTag,
    Unclassified,
    blowup_FCs,
    classify,
    cusp_value,
    eval_Zrs,
    eval_Zrs2,
    eval_fC,
    find_zero_in_F0,
    normalize_char,
)
from e2crit import premodular, qseries
from e2crit.domain import DEFAULT
from e2crit.moebius import DomainTag, GAMMA_1, classify_domain
from e2crit.zeros import count_zeros, f0_contour

PI = math.pi
RNG = np.random.default_rng(5)

TAU0_T3 = complex(0.70738896339656, 0.7068244863222716)  # zero for (1/6, 1/6)
TAU_T1 = complex(0.5, 1.2077884937747414)  # zero for (5/6, 1/3), on the line


class TestHecke:
    def test_half_lattice_vanishes(self):
        for t in (complex(0.3, 0.8), complex(0.1, 2.2), 1.7j):
            assert abs(eval_Zrs((0.5, 0.0), t)) < 5e-12
            assert abs(eval_Zrs((0.0, 0.5), t)) < 5e-12
            assert abs(eval_Zrs((0.5, 0.5), t)) < 5e-12

    def test_pole_at_lattice(self):
        with pytest.raises(PoleAtLattice):
            eval_Zrs((2.0, -1.0), 1j)
        with pytest.raises(PoleAtLattice):
            eval_Zrs2((0.0, 0.0), 1j)

    @pytest.mark.parametrize("fn", [eval_Zrs, premodular._zrs_parts, eval_Zrs2,
                                    premodular._zrs2_parts, qseries.eval_weierstrass],
                             ids=["Z", "Z_parts", "Z2", "Z2_parts", "wp"])
    def test_pole_where_the_carry_lands_on_the_lattice(self, fn):
        # (0.3, 0.2) is off the lattice, but carried to F from this tau it
        # reduces to (0, 0); the Laurent form of Z2 would divide by u = 0
        with pytest.raises(PoleAtLattice, match="lattice point 0.0 \\+ 0.0\\*tau"):
            fn((0.3, 0.2), complex(0.123456, 1e-34))

    def test_f0_base_points_carry_once(self, monkeypatch):
        # at the LatticePoints of f0_contour the pull-back is read from the
        # point: no reduction to F, and one family evaluation per point
        points = f0_contour().points
        reductions, family = [], []
        reduce_to_F_ints, wp_family = qseries.reduce_to_F_ints, premodular._wp_family
        monkeypatch.setattr(qseries, "reduce_to_F_ints",
                            lambda *a: reductions.append(a) or reduce_to_F_ints(*a))
        monkeypatch.setattr(premodular, "_wp_family",
                            lambda *a: family.append(a) or wp_family(*a))
        for t in points:
            eval_Zrs2((1 / 6, 1 / 6), t)
        assert not reductions
        assert len(family) == len(points)

    def test_sign_symmetry(self):
        t = complex(0.4, 1.1)
        r, s = 0.23, 0.31
        assert abs(eval_Zrs((1 - r, 1 - s), t) + eval_Zrs((r, s), t)) < 1e-12

    def test_modularity_weight_one(self):
        # Z_{r',s'}(gamma tau) = (c tau + d) Z_{r,s}(tau)
        from e2crit import transform_char
        from tests_helpers import random_sl2z

        for _ in range(10):
            g = random_sl2z(RNG)
            t = complex(RNG.uniform(-1, 2), RNG.uniform(0.4, 4))
            r, s = RNG.uniform(0.06, 0.44), RNG.uniform(0.06, 0.44)
            out = transform_char(g, (r, s))
            lhs = eval_Zrs((out.r, out.s), g(t)) / g.mu(t)
            assert abs(lhs - eval_Zrs((r, s), t)) < 1e-9

    def test_large_real_part(self):
        # Z_{r,s}(tau + x) = Z_{r + x s, s}(tau), and x s is an integer here
        for y in (1.0, 0.2):
            base = eval_Zrs((0.1, 0.25), complex(0.0, y))
            for x in (1e3, 1e6, 1e12):
                got = eval_Zrs((0.1, 0.25), complex(x, y))
                assert abs(got - base) <= 1e-12 * abs(base), (x, y)


class TestZrs2:
    def test_half_lattice_vanishes(self):
        assert abs(eval_Zrs2((0.0, 0.5), complex(0.23, 0.9))) < 2e-11

    def test_antisymmetry(self):
        t = complex(0.4, 1.1)
        r, s = 0.23, 0.31
        z2 = eval_Zrs2((r, s), t)
        assert abs(eval_Zrs2((1 - r, 1 - s), t) + z2) < 1e-10 * (1 + abs(z2))
        assert abs(eval_Zrs2((r + 1, s), t) - z2) < 1e-10 * (1 + abs(z2))

    def test_corner_relation(self):
        # Z2_{5/6,1/3}(gamma1 tau) = (1 - tau)^3 Z2_{1/6,1/6}(tau)
        for t in (complex(0.3, 1.2), complex(0.7, 0.9)):
            lhs = eval_Zrs2((5 / 6, 1 / 3), GAMMA_1(t))
            rhs = (1 - t) ** 3 * eval_Zrs2((1 / 6, 1 / 6), t)
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))

    def test_large_real_part(self):
        for y in (1.0, 0.2):
            base = eval_Zrs2((0.1, 0.25), complex(0.0, y))
            for x in (1e3, 1e6, 1e12):
                got = eval_Zrs2((0.1, 0.25), complex(x, y))
                assert abs(got - base) <= 1e-12 * abs(base), (x, y)

    def test_small_u_path_matches_direct(self):
        # the rearranged small-u form agrees with the direct cubic across and
        # below the switch radius (the direct path loses digits as u shrinks)
        from e2crit.domain import DEFAULT
        from e2crit.qseries import _wp_family

        t = complex(0.31, 1.07)
        for scale in (0.2, 0.1, 0.05):
            r, s = 0.7 * scale, 0.5 * scale
            v = eval_Zrs2((r, s), t)
            wp, wpp, z_hecke = _wp_family(r, s, t, cmath.exp(2j * PI * t), DEFAULT)
            direct = z_hecke**3 - 3 * wp * z_hecke - wpp
            assert abs(v - direct) < 1e-8 * (1 + abs(v))

    def test_laurent_coeffs_match_the_recursion(self):
        # c_k = 3/((2k+1)(k-3)) sum_{m=2}^{k-2} c_m c_{k-m}, c_2 = g2/20 and
        # c_3 = g3/28, transcribed term by term and summed left to right
        rng = random.Random(3)
        for _ in range(2000):
            g2v = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            g3v = complex(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            want = [0j, 0j, g2v / 20, g3v / 28]
            for k in range(4, premodular.LAURENT_TERMS + 1):
                terms = [want[m] * want[k - m] for m in range(2, k - 1)]
                total = terms[0]
                for t in terms[1:]:
                    total = total + t
                want.append(3 * total / ((2 * k + 1) * (k - 3)))
            assert premodular._laurent_coeffs(g2v, g3v) == want

    @pytest.mark.parametrize("tag,vertices", [
        (TriangleTag.T0, ((0.5, 0.0), (0.5, 0.5), (0.0, 0.5))),
        (TriangleTag.T1, ((1.0, 0.0), (1.0, 0.5), (0.5, 0.5))),
        (TriangleTag.T2, ((0.5, 0.0), (1.0, 0.0), (0.5, 0.5))),
        (TriangleTag.T3, ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))),
    ])
    def test_family_summed_at_the_basic_ratio(self, tag, vertices, monkeypatch):
        # the wp/Z ratio |q| max(|x|, 1/|x|) reaches |q|^{1/2}, so the family
        # is pulled back below twice the basic series' floor and no Lambert
        # sum of a count over F0 runs at a ratio above e^{-2 pi min_im_direct};
        # the points of f0_contour sum it from the Lambert weights they keep,
        # whose first, lam = q/(1 - q), gives q back
        rhos = []
        inner, inner_kept = qseries.wp_sums, qseries.wp_sums_kept

        def record(x, q):
            ax = abs(x)
            rhos.append(abs(q) * max(ax, 1.0 / ax))

        def recorded(x, q, n):
            record(x, q)
            return inner(x, q, n)

        def recorded_kept(x, w, n):
            lam = w[1][0]
            record(x, lam / (1 + lam))
            return inner_kept(x, w, n)

        monkeypatch.setattr(qseries, "wp_sums", recorded)
        monkeypatch.setattr(qseries, "wp_sums_kept", recorded_kept)
        expected = {TriangleTag.T0: 0}.get(tag, 1)
        rng = np.random.default_rng(90 + int(tag.value[1]))
        margin = 0.005
        for w in rng.dirichlet((1.0, 1.0, 1.0), 30):
            w = margin + (1 - 3 * margin) * w
            rs = (float(sum(wi * v[0] for wi, v in zip(w, vertices))),
                  float(sum(wi * v[1] for wi, v in zip(w, vertices))))
            assert classify(rs) is tag
            assert count_zeros(lambda t: eval_Zrs2(rs, t), f0_contour()) == expected
        assert rhos
        assert max(rhos) <= math.exp(-2 * PI * DEFAULT.min_im_direct) * (1 + 1e-12)


def _pulled_points(n: int, seed: int):
    """n seeded tau anywhere in H, as _pullback leaves them for the wp/Z
    family, with R = min(1, |tau|, |tau - 1|, |tau + 1|) there."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        tau = complex(rng.uniform(-2.0, 2.0), math.exp(rng.uniform(math.log(0.02), math.log(4.0))))
        tau1 = qseries._pullback(tau, (0.1, 0.1))[0]
        out.append((tau1, min(1.0, abs(tau1), abs(tau1 - 1), abs(tau1 + 1))))
    return out


class TestLaurentLength:
    # |Z2 summed to the certified length - Z2 summed to LAURENT_TERMS| and
    # the same for dZ2/dtau, relative to |u|: the rule certifies eps |u|
    # for the dropped terms, and the two sums round alike up to an ulp of
    # terms O(u)
    AGREE = 2 * DEFAULT.eps

    def test_coefficient_bound(self):
        # |c_k| <= B (2k-1) R^-2k and |c_k'| <= B 2k (2k-1) R^-2k / Im tau
        # at every tau _pullback leaves, R >= 0.7 and Im tau >= 0.7 there
        worst = 0.0
        for tau, R in _pulled_points(400, seed=41):
            assert R >= qseries._FAMILY_FLOOR and tau.imag >= qseries._FAMILY_FLOOR
            e1, g2v, g3v = qseries._basic_direct(cmath.exp(2j * PI * tau), DEFAULT)
            c = premodular._laurent_coeffs(g2v, g3v, 24)
            cp = premodular._laurent_coeffs_tau(c, *qseries._derivs(e1, g2v, g3v)[1:])
            for k in range(2, 25):
                bound = premodular._COEFF_BOUND * (2 * k - 1) * R ** (-2 * k)
                assert abs(c[k]) <= bound, (tau, k)
                assert abs(cp[k]) <= bound * 2 * k / tau.imag, (tau, k)
                worst = max(worst, abs(c[k]) / bound)
        assert worst > 0.1  # the bound is not vacuous

    @pytest.mark.parametrize("eps", [1e-16, 1e-14, DEFAULT.eps, 1e-10, 1e-6, 0.5])
    def test_length_monotone_and_capped(self, eps):
        ts = np.geomspace(1e-12, premodular.SMALL_U_FACTOR, 400)
        lengths = [premodular._laurent_length(float(t), eps) for t in ts]
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))
        assert 2 <= lengths[0] and lengths[-1] <= premodular.LAURENT_TERMS

    def test_cap_certified_at_the_default_eps(self):
        # at the default eps the bound certifies LAURENT_TERMS up to the
        # switch radius, so the cap drops nothing the bound counts there
        t = premodular.SMALL_U_FACTOR
        tail = premodular._TAIL_FACTOR * sum(premodular._tail_weight(k) * t ** (2 * k - 4)
                                             for k in range(premodular.LAURENT_TERMS + 1, 200))
        assert tail < DEFAULT.eps
        assert premodular._laurent_length(1e-3, DEFAULT.eps) <= 5

    def test_short_form_agrees_with_thirteen_terms(self, monkeypatch):
        rng = random.Random(43)
        points = []
        for tau, R in _pulled_points(300, seed=42):
            t = math.exp(rng.uniform(math.log(1e-6), math.log(premodular.SMALL_U_FACTOR)))
            u = t * R * cmath.exp(1j * rng.uniform(0.0, 2 * PI))
            sh = u.imag / tau.imag
            rh = u.real - sh * tau.real
            u = rh + sh * tau
            if abs(u) < premodular.SMALL_U_FACTOR * R:
                points.append((rh, sh, tau, u, premodular._laurent_length(abs(u) / R, DEFAULT.eps)))
        at = lambda rh, sh, tau: premodular._zrs2_at(rh, sh, tau, cmath.exp(2j * PI * tau), DEFAULT, True)
        short = [at(rh, sh, tau) for rh, sh, tau, _, _ in points]
        monkeypatch.setattr(premodular, "_laurent_length", lambda t, eps: premodular.LAURENT_TERMS)
        for (rh, sh, tau, u, kmax), got in zip(points, short):
            full = at(rh, sh, tau)
            for a, b in zip(got, full):
                assert abs(a - b) <= self.AGREE * abs(u), (tau, rh, sh, kmax)
        assert min(p[-1] for p in points) <= 3


class TestClassify:
    @pytest.mark.parametrize("rs,tag", [
        ((1 / 3, 1 / 3), TriangleTag.T0),
        ((5 / 6, 1 / 3), TriangleTag.T1),
        ((2 / 3, 1 / 6), TriangleTag.T2),
        ((1 / 6, 1 / 6), TriangleTag.T3),
        ((0.25, 0.25), TriangleTag.BOUNDARY),
        ((0.5, 0.25), TriangleTag.BOUNDARY),
        ((0.5, 0.0), TriangleTag.HALF_LATTICE),
        ((1.0, 0.5), TriangleTag.HALF_LATTICE),
    ])
    def test_examples(self, rs, tag):
        assert classify(rs) is tag

    def test_normalization_folds_upper_strip(self):
        # property (i): classification is invariant under the folding
        assert classify((1 / 6 + 1, 1 / 6)) is TriangleTag.T3
        assert classify(CharPair(-1 / 6, -1 / 6)) is TriangleTag.T3
        r, s = normalize_char((0.3, 0.8))
        assert 0 <= r < 1 and 0 <= s <= 0.5


class TestCuspValue:
    def test_finite_limit(self):
        got = cusp_value((0.3, 0.2), "infinity")
        assert got.kind == "finite"
        assert abs(got.value - 4j * PI**3 * 0.2 * 0.8 * (-0.6)) < 1e-12

    def test_q_coefficient(self):
        got = cusp_value((0.3, 0.0), "infinity")
        assert got.kind == "coeff_q"
        assert abs(got.value - (-48 * PI**3 * math.sin(0.6 * PI))) < 1e-12

    def test_sqrt_q_coefficient(self):
        got = cusp_value((0.3, 0.5), "infinity")
        assert got.kind == "coeff_sqrt_q"
        assert abs(got.value - (-12 * PI**3 * math.sin(0.6 * PI))) < 1e-12

    def test_divergence_flags(self):
        assert cusp_value((0.3, 0.2), "zero").kind == "divergent"
        assert cusp_value((0.3, 0.3), "one").kind == "divergent"

    def test_unclassified(self):
        with pytest.raises(Unclassified):
            cusp_value((0.0, 0.2), "zero")
        with pytest.raises(Unclassified):
            cusp_value((0.3, 0.7), "one")  # r + s = 1 boundary


class TestFindZero:
    def test_triangle0_has_none(self):
        assert find_zero_in_F0((1 / 3, 1 / 3)) is None

    def test_unique_zero_T3(self):
        root = find_zero_in_F0((1 / 6, 1 / 6))
        assert classify_domain(root) is DomainTag.F0_INTERIOR
        assert abs(root.z - TAU0_T3) < 1e-8
        assert abs(eval_Zrs2((1 / 6, 1 / 6), root)) < 1e-10

    def test_gamma1_image_relation(self):
        root3 = find_zero_in_F0((1 / 6, 1 / 6))
        root1 = find_zero_in_F0((5 / 6, 1 / 3))
        assert abs(GAMMA_1(root3.z) - root1.z) < 1e-9
        assert abs(root1.z - TAU_T1) < 1e-8

    def test_rejects_boundary_characteristic(self):
        with pytest.raises(ValueError):
            find_zero_in_F0((0.25, 0.25))

    def test_newton_failure_names_the_seed(self, monkeypatch):
        def fail(*args, **kwargs):
            raise Diverged("no convergence")

        monkeypatch.setattr(premodular, "newton_refine", fail)
        with pytest.raises(Diverged, match="contour seed"):
            find_zero_in_F0((1 / 6, 1 / 6))

    def test_root_outside_F0_is_rejected(self, monkeypatch):
        monkeypatch.setattr(premodular, "newton_refine",
                            lambda *args, **kwargs: TauPoint(0.5, 0.3))
        with pytest.raises(Diverged, match="reached"):
            find_zero_in_F0((1 / 6, 1 / 6))

    @pytest.mark.parametrize("tag,vertices", [
        (TriangleTag.T1, ((1.0, 0.0), (1.0, 0.5), (0.5, 0.5))),
        (TriangleTag.T2, ((0.5, 0.0), (1.0, 0.0), (0.5, 0.5))),
        (TriangleTag.T3, ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))),
    ])
    def test_contour_seed_sweep(self, tag, vertices, monkeypatch):
        # 30 characteristics per triangle, each barycentric weight >= 0.005;
        # the gated contour walk seeds Newton, so a call costs the count
        # plus a few Newton steps, one pair evaluation each, and no
        # interior scan
        calls = [0]
        inner = premodular._zrs2_parts

        def counted(rs, tau, pp=DEFAULT):
            calls[0] += 1
            return inner(rs, tau, pp)

        monkeypatch.setattr(premodular, "_zrs2_parts", counted)
        budget = len(f0_contour().points) + 40
        rng = np.random.default_rng(70 + int(tag.value[1]))
        margin = 0.005
        for w in rng.dirichlet((1.0, 1.0, 1.0), 30):
            w = margin + (1 - 3 * margin) * w
            rs = (float(sum(wi * v[0] for wi, v in zip(w, vertices))),
                  float(sum(wi * v[1] for wi, v in zip(w, vertices))))
            assert classify(rs) is tag
            calls[0] = 0
            root = find_zero_in_F0(rs)
            assert calls[0] <= budget, (rs, calls[0])
            assert classify_domain(root, tol=1e-9) is DomainTag.F0_INTERIOR
            assert abs(eval_Zrs2(rs, root)) <= 100 * DEFAULT.eps


class TestBlowup:
    def test_converges_to_fC(self):
        tau = complex(0.5, 1.0)
        f = eval_fC(0.5, tau)
        errs = [abs(blowup_FCs(0.5, s, tau) - f) for s in (1e-3, 1e-4, 1e-5)]
        assert errs[0] < 1e-2
        assert errs[0] > errs[1] > errs[2]
        # linear upper bound |F - f| <= K s holds (the measured decay is
        # quadratic: the parity of the characteristic kills the odd terms)
        assert all(err <= 1.0 * s for err, s in zip(errs, (1e-3, 1e-4, 1e-5)))
        assert errs[2] < 1e-6

    def test_precondition(self):
        with pytest.raises(ValueError):
            blowup_FCs(0.5, 0.2, complex(0.5, 1.0))

    def test_admissible_everywhere_in_H(self):
        # tau - C never vanishes for real C, tau in H
        v = blowup_FCs(0.5, 1e-3, complex(0.5, 0.4))
        assert v == v  # finite


class TestBoundaryNonvanishing:
    def test_Zrs2_nonzero_on_boundary(self):
        heights = np.geomspace(0.15, 6.0, 8)
        pts = [complex(0.0, h) for h in heights]
        pts += [complex(1.0, h) for h in heights]
        pts += [0.5 + 0.5 * cmath.exp(1j * th) for th in np.linspace(0.4, PI - 0.4, 8)]
        for _ in range(20):
            while True:
                r = RNG.uniform(0.0, 1.0)
                s = RNG.uniform(0.0, 0.5)
                if min(abs(2 * r - round(2 * r)), abs(2 * s - round(2 * s))) > 0.04:
                    break
            assert min(abs(eval_Zrs2((r, s), p)) for p in pts) > 1e-6
