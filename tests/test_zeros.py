"""Zero counting, Newton refinement, f_C, phi branches and tau(C)."""

import cmath
import math
import random

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
    enumerate_gamma02,
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
from e2crit import qseries, zeros
from e2crit.premodular import _zrs2_parts
from e2crit.verify import _TRIANGLE_VERTICES, triangle_grid
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


# f_C over a low rectangle with a zero close to its bottom edge: the plain
# phase rule counts 4 at 24 points per side, the true count is 5
LOW_EDGE_C = -0.347830332744998
LOW_EDGE_BOX = (-0.2226198, 0.7623387, 0.0667083, 1.1358003)


def _fc_pair(C):
    return lambda t: _fc_parts(C, t, DEFAULT)[:2]


def _branch_C(rng):
    """A curve parameter on a random branch: (0.05, 0.95), or 0.2 to 10
    below 0 or above 1, log-spaced."""
    branch = rng.randrange(3)
    if branch == 1:
        return rng.uniform(0.05, 0.95)
    d = 10 ** rng.uniform(math.log10(0.2), 1.0)
    return -d if branch == 0 else 1 + d


class TestDerivativeGate:
    def test_low_edge_zero_counted(self):
        for n in (6, 12, 24):
            assert count_zeros(_fc_pair(LOW_EDGE_C), rect_contour(*LOW_EDGE_BOX, n=n)) == 5
        assert count_zeros(lambda t: eval_fC(LOW_EDGE_C, t), rect_contour(*LOW_EDGE_BOX, n=48)) == 5

    def test_low_rectangles_match_a_fine_count(self):
        # 200 rectangles with the bottom edge at Im 0.05 to 0.1: the gated
        # count at rect_contour's default 24 points per side equals the
        # plain count at 144 per side
        rng = random.Random(2026)
        for _ in range(200):
            C = _branch_C(rng)
            re0 = rng.uniform(-0.5, 0.3)
            box = (re0, re0 + rng.uniform(0.5, 1.0), rng.uniform(0.05, 0.1), rng.uniform(0.6, 1.4))
            gated = count_zeros(_fc_pair(C), rect_contour(*box))
            fine = count_zeros(lambda t: eval_fC(C, t), rect_contour(*box, n=144))
            assert gated == fine, (C, box)

    def test_gated_f0_counts_within_100_points(self):
        f0 = f0_contour()
        for f in (_fc_pair(0.5), lambda t: _zrs2_parts((1 / 6, 1 / 6), t, DEFAULT)):
            n, used = count_zeros_info(f, f0)
            assert n == 1 and used <= 100

    def test_opaque_callables_keep_the_phase_rule(self):
        # without derivatives no segment of the base is bisected here
        f0 = f0_contour()
        assert count_zeros_info(lambda t: eval_fC(0.5, t), f0) == (1, len(f0.points))

    def test_f0_base_phase_margin(self):
        # a guard for opaque callers: over Z2 characteristics inside each
        # triangle (barycentric weights >= 0.02, and the verification grid)
        # and f_C on all three branches and at every -d/c with c <= 16, no
        # base segment of f0_contour turns by more than pi/3, well inside
        # the pi/2 acceptance step
        pts = f0_contour().points
        rng = random.Random(12)
        funcs = []
        for name, (v0, v1, v2) in _TRIANGLE_VERTICES.items():
            chars = list(triangle_grid(name))
            while len(chars) < 40:
                x, y = rng.uniform(0.02, 0.96), rng.uniform(0.02, 0.96)
                if x + y <= 0.98:
                    chars.append((v0[0] + (v1[0] - v0[0]) * x + (v2[0] - v0[0]) * y,
                                  v0[1] + (v1[1] - v0[1]) * x + (v2[1] - v0[1]) * y))
            funcs += [lambda t, rs=rs: eval_Zrs2(rs, t) for rs in chars]
        Cs = [_branch_C(rng) for _ in range(60)] + [-g.d / g.c for g in enumerate_gamma02(16)]
        funcs += [lambda t, C=C: eval_fC(C, t) for C in Cs]
        worst = 0.0
        for f in funcs:
            vals = [f(p) for p in pts]
            worst = max(worst, max(abs(cmath.phase(b / a)) for a, b in zip(vals, vals[1:])))
        assert worst < PI / 3


class TestZeroSum:
    """_winding's moment: the sum of the zeros inside the contour.  Each
    polynomial comes with its derivative, as the library's counts pass it,
    so the walk is gated and adds the Hermite end correction."""

    def test_one_zero(self):
        a = complex(0.5, 1.2)
        f = lambda t: ((t - a) * (t + 3), 2 * t + 3 - a)
        n, used, zsum = _winding(f, f0_contour(), 1e-9, 1 << 18)
        assert n == 1 and used >= len(f0_contour().points)
        assert abs(zsum - a) < 1e-2

    def test_two_zeros_give_their_sum(self):
        a, b = complex(0.3, 0.9), complex(0.8, 2.5)
        f = lambda t: ((t - a) * (t - b), 2 * t - a - b)
        n, _, zsum = _winding(f, f0_contour(), 1e-9, 1 << 18)
        assert n == 2
        assert abs(zsum - (a + b)) < 2e-2

    def test_no_zero_gives_zero(self):
        _, _, zsum = _winding(lambda t: (t + 3, 1.0), f0_contour(), 1e-9, 1 << 18)
        assert abs(zsum) < 1e-2


class TestNewton:
    def test_linear(self):
        root = newton_refine(lambda t: (t - 1j, 1.0), complex(0.1, 1.2), 1e-14)
        assert abs(root.z - 1j) < 1e-13

    def test_fc_root(self):
        f = lambda t: eval_fC(0.5, t)
        root = newton_refine(lambda t: (f(t), eval_fC_prime(0.5, t)), complex(0.5, 1.0), 1e-10)
        assert abs(f(root.z)) < 1e-10

    def test_zrs2_with_closed_form_derivative(self):
        # Newton on the (Z2, dZ2/dtau) pair of the closed form, one series
        # evaluation per step, converges quadratically from a rough seed
        calls = []

        def f(t):
            calls.append(t)
            return _zrs2_parts((1 / 6, 1 / 6), t, DEFAULT)

        root = newton_refine(f, complex(0.7, 0.7), 1e-10)
        assert classify_domain(root) is DomainTag.F0_INTERIOR
        assert abs(eval_Zrs2((1 / 6, 1 / 6), root)) < 1e-10
        assert len(calls) <= 8
        # the converged root is the only zero near it, by a plain count
        assert count_zeros(lambda t: eval_Zrs2((1 / 6, 1 / 6), t),
                           rect_contour(root.re - 0.1, root.re + 0.1,
                                        root.im - 0.1, root.im + 0.1)) == 1

    def test_step_tolerance_with_small_derivative(self):
        # f' = 1e-9 near the root: |f| < tol already 0.05 away from it, where
        # a bound on |f| would stop; the Newton step measures the distance
        a = complex(0.3, 1.0)
        f = lambda t: (1e-9 * (t - a) * (1 + (t - a)), 1e-9 * (1 + 2 * (t - a)))
        root = newton_refine(f, a + 0.05, 1e-10)
        assert abs(root.z - a) < 1e-14

    def test_returns_the_stepped_iterate(self):
        # the last step, below tol, is taken: the linear root is exact
        calls = []

        def f(t):
            calls.append(t)
            return t - 1j, 1.0

        root = newton_refine(f, complex(0.1, 1.2), 1e-14)
        assert root.z == 1j
        assert len(calls) == 2

    def test_divergence_reported(self):
        with pytest.raises(Diverged):
            newton_refine(lambda t: (t * t + 1e6, 2 * t), complex(0.0, 1.0), 1e-12, itmax=5)


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


class TestFCPartsBitwise:
    def test_equal_to_the_full_derivative_triple(self):
        # _fc_parts forms eta1' and g2' alone; they are _derivs' first two
        # values, so every output matches the formulation through _derivs
        rng = random.Random(11)
        pp = PrecisionPolicy()
        for _ in range(1000):
            tau = complex(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(0.003), math.log(4))))
            C = rng.uniform(-3, 4)
            e1, g2v, g3v = qseries._basic(tau, pp)
            lin = C * e1 - (tau * e1 - 2j * PI)
            d = C - tau
            e1p, g2p, _ = qseries._derivs(e1, g2v, g3v)
            want = (12 * lin * lin - g2v * (d * d),
                    24 * lin * (C * e1p - (e1 + tau * e1p)) - g2p * (d * d) + 2 * g2v * d,
                    24 * lin * e1 - 2 * g2v * d)
            assert _fc_parts(C, tau, pp) == want, (C, tau)


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
