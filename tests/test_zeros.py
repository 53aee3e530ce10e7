"""Zero counting, Newton refinement, f_C, phi branches and tau(C)."""

import cmath
import math

import numpy as np
import pytest

from e2crit import (
    DEFAULT,
    BoundaryZero,
    BranchState,
    Contour,
    Diverged,
    PrecisionPolicy,
    count_zeros,
    count_zeros_info,
    eval_Zrs2,
    eval_eta1,
    eval_fC,
    eval_fC_prime,
    eval_invariants,
    eval_phi,
    f0_contour,
    newton_refine,
    rect_contour,
    solve_tauC,
    sqrt_g2_over_12,
)
from e2crit.moebius import DomainTag, classify_domain
from e2crit import zeros
from e2crit.zeros import _continue_to, _fc_parts, _outer_anchor, _winding, _zero_branch_anchor

PI = math.pi
RNG = np.random.default_rng(17)


class TestCountZeros:
    def test_single_simple_zero_in_rectangle(self):
        f = lambda t: t - complex(0.5, 1.0)
        assert count_zeros(f, rect_contour(0, 1, 0.5, 1.5)) == 1

    def test_no_zero(self):
        f = lambda t: t - complex(5.0, 1.0)
        assert count_zeros(f, rect_contour(0, 1, 0.5, 1.5)) == 0

    def test_multiplicity(self):
        f = lambda t: (t - complex(0.5, 1.0)) ** 3
        assert count_zeros(f, rect_contour(0, 1, 0.5, 1.5)) == 3

    def test_premodular_counts(self):
        cont = f0_contour()
        assert count_zeros(lambda t: eval_Zrs2((1 / 3, 1 / 3), t), cont) == 0
        assert count_zeros(lambda t: eval_fC(0.5, t), cont) == 1

    def test_f0_f1_have_no_zero(self):
        # f_0 and f_1 decay like exp(-2 pi/delta) at one cusp; the widest
        # admissible cut keeps them above the boundary floor
        wide = f0_contour(cusp_delta=0.2)
        assert count_zeros(lambda t: eval_fC(0.0, t), wide) == 0
        assert count_zeros(lambda t: eval_fC(1.0, t), wide) == 0

    def test_refinement_invariance(self):
        f = lambda t: eval_fC(0.25, t)
        coarse = count_zeros_info(f, f0_contour())
        fine = count_zeros_info(f, Contour(f0_contour().points, max_step=PI / 8))
        assert coarse[0] == fine[0] == 1
        assert fine[1] >= coarse[1]

    def test_vertex_doubling_invariance(self):
        # doubling the polyline sampling leaves the integer unchanged
        base = f0_contour().points
        doubled = []
        for p0, p1 in zip(base, base[1:]):
            doubled += [p0, 0.5 * (p0 + p1)]
        doubled.append(base[-1])
        for C in (0.5, -2.0):
            f = lambda t: eval_fC(C, t)
            assert count_zeros(f, Contour(tuple(doubled))) == count_zeros(f, f0_contour())

    def test_boundary_zero_detected(self):
        f = lambda t: t - complex(0.5, 0.5)  # zero on the contour
        with pytest.raises(BoundaryZero):
            count_zeros(f, rect_contour(0, 1, 0.5, 1.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_bounds_rejected(self, bad):
        with pytest.raises(ValueError, match="t_top"):
            f0_contour(bad)
        with pytest.raises(ValueError, match="cusp_delta"):
            f0_contour(6.0, bad)
        for i, name in enumerate(("re0", "re1", "im0", "im1")):
            bounds = [0.0, 1.0, 0.5, 1.5]
            bounds[i] = bad
            with pytest.raises(ValueError, match=name):
                rect_contour(*bounds)

    def test_count_zeros_info_is_a_pair(self):
        info = count_zeros_info(lambda t: eval_fC(0.5, t), f0_contour())
        assert isinstance(info, tuple) and len(info) == 2
        assert info[0] == 1


class TestZeroSum:
    """_winding's moment: the sum of the zeros inside the contour."""

    def test_one_zero(self):
        a = complex(0.5, 1.2)
        n, used, zsum = _winding(lambda t: (t - a) * (t + 3), f0_contour(), 1e-9, 1 << 18)
        assert n == 1 and used >= len(f0_contour().points)
        assert abs(zsum - a) < 1e-2

    def test_two_zeros_give_their_sum(self):
        a, b = complex(0.3, 0.9), complex(0.8, 2.5)
        n, _, zsum = _winding(lambda t: (t - a) * (t - b), f0_contour(), 1e-9, 1 << 18)
        assert n == 2
        assert abs(zsum - (a + b)) < 2e-2

    def test_no_zero_gives_zero(self):
        _, _, zsum = _winding(lambda t: t + 3, f0_contour(), 1e-9, 1 << 18)
        assert abs(zsum) < 1e-2


class TestNewton:
    def test_linear(self):
        root = newton_refine(lambda t: t - 1j, lambda t: 1.0, complex(0.1, 1.2), 1e-14)
        assert abs(root.z - 1j) < 1e-13

    def test_fc_root(self):
        f = lambda t: eval_fC(0.5, t)
        root = newton_refine(f, lambda t: eval_fC_prime(0.5, t), complex(0.5, 1.0), 1e-10)
        assert abs(f(root.z)) < 1e-10

    def test_zrs2_with_fd_derivative(self):
        f = lambda t: eval_Zrs2((1 / 6, 1 / 6), t)
        root = newton_refine(f, None, complex(0.7, 0.7), 1e-10)
        assert classify_domain(root) is DomainTag.F0_INTERIOR
        assert count_zeros(f, rect_contour(root.re - 0.1, root.re + 0.1,
                                           root.im - 0.1, root.im + 0.1)) == 1

    def test_divergence_reported(self):
        with pytest.raises(Diverged):
            newton_refine(lambda t: t * t + 1e6, lambda t: 2 * t, complex(0.0, 1.0), 1e-12, itmax=5)


class TestFC:
    def test_circle_identity(self):
        # f_{-1}(tau/(1-tau)) = (1-tau)^2 (12 eta1(tau)^2 - g2(tau)) on the arc
        for th in (0.4, 1.1, 2.2):
            t = 0.5 + 0.5 * cmath.exp(1j * th)
            lhs = eval_fC(-1.0, t / (1 - t))
            e1 = eval_eta1(t)
            g2v = eval_invariants(t)[0]
            rhs = (1 - t) ** 2 * (12 * e1**2 - g2v)
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))

    def test_scaling_identity(self):
        # f_{C'}(tau') = ((1-tau)^2/(1-C)^2) f_C(tau), tau' = 1/(1-tau)
        for _ in range(10):
            t = complex(RNG.uniform(0.05, 0.95), RNG.uniform(0.5, 2.0))
            C = RNG.uniform(-2, 0.9)
            lhs = eval_fC(1 / (1 - C), 1 / (1 - t))
            rhs = (1 - t) ** 2 / (1 - C) ** 2 * eval_fC(C, t)
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))

    def test_line_root_condition(self):
        # on Re tau = 1/2 the root satisfies eta1 + sqrt(g2/12) = 2 pi / b
        t = solve_tauC(0.5)
        e1 = eval_eta1(t).real
        g2v = eval_invariants(t)[0].real
        assert abs(e1 + math.sqrt(g2v / 12) - 2 * PI / t.im) < 1e-10

    def test_prime_finite_difference(self):
        h = 1e-6
        for _ in range(10):
            t = complex(RNG.uniform(0, 1), RNG.uniform(0.6, 2.0))
            C = RNG.uniform(-3, 3)
            fd = (eval_fC(C, t + h) - eval_fC(C, t - h)) / (2 * h)
            an = eval_fC_prime(C, t)
            assert abs(fd - an) <= 1e-6 * (1 + abs(an))

    def test_prime_nonzero_at_roots(self):
        for C in (-2.0, 0.3, 0.5, 2.0):
            t = solve_tauC(C)
            g2v = eval_invariants(t)[0]
            assert abs(eval_fC_prime(C, t)) > 1e-8 * (1 + abs(g2v))

    def test_prime_chain_rule_on_scaling(self):
        # derivative transforms consistently with the scaling identity
        t = complex(0.3, 1.2)
        C = 0.4
        tp = 1 / (1 - t)
        lhs = eval_fC_prime(1 / (1 - C), tp) / (1 - t) ** 2
        rhs = (-2 * (1 - t) * eval_fC(C, t) + (1 - t) ** 2 * eval_fC_prime(C, t)) / (1 - C) ** 2
        assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))


class TestEvalFCLean:
    def test_bitwise_equal_to_fc_parts(self):
        # eval_fC forms f without the derivatives, in _fc_parts' operations
        rng = np.random.default_rng(2024)
        n = 2000
        Cs = rng.uniform(-10.0, 10.0, n)
        res = rng.uniform(-3.0, 3.0, n)
        ims = np.exp(rng.uniform(math.log(0.02), math.log(3.0), n))
        for C, x, y in zip(Cs, res, ims):
            tau = complex(x, y)
            assert eval_fC(float(C), tau) == _fc_parts(float(C), tau, PrecisionPolicy())[0]


class TestPhi:
    def test_anchor_near_top(self):
        w = sqrt_g2_over_12(6j)
        assert abs(w - PI**2 / 3) < 1e-8

    def test_branch_jump_detected(self):
        from e2crit import BranchJump

        with pytest.raises(BranchJump):
            sqrt_g2_over_12(2j, anchor=1e6j)

    def test_branch_square_consistency(self):
        # continued branch always squares back to g2/12
        for t in (complex(0.4, 0.7), complex(0.5, 0.6), complex(0.52, 0.75), 2j):
            w = sqrt_g2_over_12(t)
            assert abs(w * w - eval_invariants(t)[0] / 12) < 1e-9

    def test_phi_minus_blowup_on_axis(self):
        # phi_-(iT) = iT + i e^{2 pi T}/(24 pi) + 7i/(4 pi) + O(q): purely
        # imaginary on the axis
        T = 3.0
        phi = eval_phi(BranchState(sign=-1), complex(0.0, T))
        assert abs(phi.real) < 1e-8
        expect = T + math.exp(2 * PI * T) / (24 * PI) + 7 / (4 * PI)
        assert abs(phi.imag - expect) < 1e-4 * expect

    def test_vanishing_at_roots(self):
        for C, sign in ((0.5, 1), (0.3, 1), (-2.0, -1), (3.0, -1)):
            t = solve_tauC(C)
            phi = eval_phi(BranchState(sign=sign), t)
            assert abs(phi.imag) < 1e-8
            assert abs(phi.real - C) < 1e-8


class TestSolveTauC:
    def test_half(self):
        t = solve_tauC(0.5, verify=True)
        assert abs(t.re - 0.5) < 1e-12
        assert math.sqrt(3) / 2 < t.im < 1.2

    def test_forbidden_values(self):
        with pytest.raises(ValueError):
            solve_tauC(0.0)
        with pytest.raises(ValueError):
            solve_tauC(1.0)

    def test_inversion_identity(self):
        t = solve_tauC(-2.0)
        t2 = solve_tauC(1 / (1 - (-2.0)))
        assert abs(t2.z - 1 / (1 - t.z)) < 1e-9

    def test_reflection_identity(self):
        t = solve_tauC(0.3)
        t2 = solve_tauC(0.7)
        assert abs(t2.z - (1 - t.z.conjugate())) < 1e-9

    def test_large_C(self):
        t = solve_tauC(1e3)
        assert abs(t.re - 0.25) < 0.02

    def test_residuals_and_interior(self):
        for C in (-5.0, -0.2, 0.1, 0.9, 1.2, 7.0):
            t = solve_tauC(C)
            assert abs(eval_fC(C, t)) < 1e-9
            assert classify_domain(t, tol=1e-9) is DomainTag.F0_INTERIOR

    def test_hint_used(self):
        exact = solve_tauC(0.4)
        hinted = solve_tauC(0.4, hint=exact.z + 1e-3)
        assert abs(hinted.z - exact.z) < 1e-11

    def test_zero_branch_anchor_once_per_policy(self):
        pp = PrecisionPolicy(eps=1e-11)
        misses = _zero_branch_anchor.cache_info().misses
        for C in (0.3, 0.6, 0.45):
            t = solve_tauC(C, pp)
            assert abs(eval_fC(C, t, pp)) < 1e-9
        assert _zero_branch_anchor.cache_info().misses == misses + 1

    def test_outer_anchors_once_per_policy(self):
        pp = PrecisionPolicy(eps=3e-12)
        misses = _outer_anchor.cache_info().misses
        for C in (-0.3, 1.4, -0.5, 1.2, -0.7):
            t = solve_tauC(C, pp)
            assert abs(eval_fC(C, t, pp)) < 1e-9
        assert _outer_anchor.cache_info().misses == misses + 2

    def test_warm_solve_work_bound(self, monkeypatch):
        # C = 1.5 continues from the C = 2 anchor; once that is cached, one
        # or two predictor steps and the residual check remain
        solve_tauC(1.5)
        calls = []
        fc_parts = zeros._fc_parts
        monkeypatch.setattr(zeros, "_fc_parts",
                            lambda *args: calls.append(args) or fc_parts(*args))
        solve_tauC(1.5)
        assert len(calls) <= 12

    def test_continuation_rejects_a_root_outside_F0(self, monkeypatch):
        # the first corrector lands on the mirror image -conj(tau) across
        # Re = 0, outside F0 and within the 0.2 jump limit: the step must be
        # halved, not accepted
        C_from, C_to = 0.002, 0.001
        start = solve_tauC(C_from).z
        root = (start, *_fc_parts(C_from, start, DEFAULT)[1:])
        newton = zeros._newton_fc
        offered = []

        def newton_once_outside(C, t, pp):
            got = newton(C, t, pp)
            if not offered and got is not None:
                offered.append(got[0])
                return (-got[0].conjugate(), *got[1:])
            return got

        monkeypatch.setattr(zeros, "_newton_fc", newton_once_outside)
        t = _continue_to(C_from, root, C_to, DEFAULT)[0]
        assert classify_domain(offered[0]) is DomainTag.F0_INTERIOR
        assert classify_domain(-offered[0].conjugate()) is DomainTag.OUTSIDE
        assert abs(-offered[0].conjugate() - start) < 0.2
        assert classify_domain(t, tol=1e-9) is DomainTag.F0_INTERIOR
        assert abs(t - solve_tauC(C_to).z) < 1e-12

    @pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_C(self, C):
        for call in (lambda: solve_tauC(C), lambda: eval_fC(C, 1j),
                     lambda: eval_fC_prime(C, 1j)):
            with pytest.raises(ValueError, match="finite"):
                call()


class TestBoundaryExclusion:
    def test_fC_nonzero_on_F0_boundary(self):
        heights = np.geomspace(0.15, 6.0, 10)
        pts = [complex(0.0, h) for h in heights]
        pts += [complex(1.0, h) for h in heights]
        pts += [0.5 + 0.5 * cmath.exp(1j * th) for th in np.linspace(0.3, PI - 0.3, 10)]
        for C in (-2.0, -0.5, 0.25, 0.5, 0.75, 2.0, 5.0):
            assert min(abs(eval_fC(C, p)) for p in pts) > 1e-7
