"""Zero counting, Newton refinement, f_C, phi branches and tau(C)."""

import cmath
import math
import random
import re
import sys

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
    find_zero_in_F0,
    newton_refine,
    rect_contour,
    solve_tauC,
    sqrt_g2_over_12,
    trace_curve,
)
from e2crit.errors import DomainEscape, PhaseStepFailure
from e2crit.moebius import DomainTag, classify_domain
from e2crit import qseries, zeros
from e2crit.premodular import _zrs2_parts
from e2crit.verify import _TRIANGLE_VERTICES, triangle_grid
from tests_helpers import BSTAR_CHARS, float_bits
from e2crit.zeros import _fc_parts, _tau_table, _winding

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

    @pytest.mark.parametrize("bad", [complex(0.5, math.nan), complex(math.inf, 1.0),
                                     complex(0.5, math.inf)])
    def test_non_finite_vertex_rejected(self, bad):
        # a NaN vertex used to pass construction, and a plain-callable count
        # then spent the whole subdivision budget before failing
        with pytest.raises(ValueError, match="finite"):
            Contour((1j, 1 + 1j, bad, 1j))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rect_contour_needs_a_point_per_side(self, n):
        # n = 0 used to escape as IndexError from the empty polyline
        with pytest.raises(ValueError, match="points per side"):
            rect_contour(0.0, 1.0, 0.5, 1.5, n=n)

    @pytest.mark.parametrize("max_step", [math.nan, 0.0, -1.0, math.inf])
    def test_max_step_must_be_finite_and_positive(self, max_step):
        # no phase step passes abs(dphi) < max_step for NaN, 0 or a negative
        # step, and a count over such a contour used to end in a misleading
        # PhaseStepFailure("phase step 0.000 irreducible ...")
        with pytest.raises(ValueError, match="max_step"):
            Contour(rect_contour(0, 1, 0.5, 1.5).points, max_step=max_step)

    @pytest.mark.parametrize("min_abs", [0.0, -1.0, -0.0, math.nan, math.inf])
    def test_min_abs_must_be_finite_and_positive(self, min_abs):
        # an exact zero at a contour point once escaped as ZeroDivisionError
        # with min_abs = 0; the floor is now checked before f is called
        calls = []
        f = lambda t: calls.append(t) or t - complex(0.5, 1.5)
        for count in (count_zeros_info, count_zeros):
            with pytest.raises(ValueError, match="min_abs"):
                count(f, rect_contour(0, 1, 0.5, 1.5), min_abs=min_abs)
        assert not calls

    def test_count_zeros_info_is_a_pair(self):
        info = count_zeros_info(lambda t: eval_fC(0.5, t), f0_contour())
        assert isinstance(info, tuple) and len(info) == 2
        assert info[0] == 1

    def test_closing_point_evaluated_once(self):
        # a plain callable with one zero inside and no bisection: each
        # contour point but the closing one is evaluated, and the closing
        # one is still counted among the points used
        contour = f0_contour()
        calls = []
        info = count_zeros_info(lambda t: calls.append(t) or t - complex(0.5, 1.0), contour)
        assert info == (1, len(contour.points))
        assert calls == list(contour.points[:-1])

    def test_closing_point_evaluated_once_with_pairs(self):
        # a gated walk starts on every COARSE-th point and evaluates no
        # point twice; the closing one is counted but not evaluated
        contour = rect_contour(-1.0, 2.0, 0.5, 2.0)
        calls = []
        n, used = count_zeros_info(lambda t: calls.append(t) or (t - complex(0.5, 1.0), 1.0), contour)
        assert n == 1 and used == len(calls) + 1 < len(contour.points)
        assert len(set(calls)) == len(calls)
        assert set(calls) <= set(contour.points[:-1])
        starts = contour.points[:-1:zeros.COARSE]
        assert calls[:len(starts)] == list(starts)

    def test_short_polyline_keeps_three_segments(self):
        # on a triangle a stride of COARSE would leave the one segment
        # p0 -> p0, accepted with a phase step of 0
        contour = Contour((0.2 + 0.5j, 0.8 + 0.5j, 0.5 + 1.2j, 0.2 + 0.5j))
        a = 0.5 + 0.7j
        assert count_zeros(lambda t: (t - a, 1.0), contour) == 1
        assert count_zeros(lambda t: t - a, contour) == 1

    def test_chord_does_not_cut_off_a_spike(self):
        # the chord p0 -> p4 (length 0.04) passes the phase rule and the
        # gate, as |f/f'| is about 0.5 at both ends, but skips the spike up
        # to 0.5+3i around the zero: it is split because p2 lies farther
        # than its length from both ends
        contour = Contour((0.52 + 2j, 0.51 + 2.9j, 0.5 + 3j, 0.49 + 2.9j, 0.48 + 2j, 0.48 + 1.5j,
                           0.48 + 1j, 0.5 + 1j, 0.52 + 1j, 0.52 + 1.25j, 0.52 + 1.5j, 0.52 + 1.75j,
                           0.52 + 2j))
        a = 0.5 + 2.5j
        assert count_zeros(lambda t: (t - a, 1.0), contour) == 1
        assert count_zeros(lambda t: t - a, contour) == 1


# f_C over a low rectangle with a zero close to its bottom edge: the plain
# phase rule counts 4 at 24 points per side, the true count is 5
LOW_EDGE_C = -0.347830332744998
LOW_EDGE_BOX = (-0.2226198, 0.7623387, 0.0667083, 1.1358003)


def _fc_pair(C):
    return lambda t: _fc_parts(C, t, DEFAULT)


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

    def test_seed_near_the_arc(self):
        # the zero sum seeds find_zero_in_F0, so a walk that forms it starts
        # on every contour point: for this zero, 0.077 from the arc of the
        # thin polyline, the seed is the reference walk's, 3.3e-4 off
        rs, contour = (0.3388, 0.1587), f0_contour(8.0, 0.04)
        f = lambda t: _zrs2_parts(rs, t)
        got = _winding(f, contour, 1e-9, 1 << 18)
        assert float_bits(got) == float_bits(_old_winding(f, contour, 1e-9, 1 << 18))
        root = find_zero_in_F0(rs, t_top=8.0, cusp_delta=0.04)
        assert abs(got[2] - root.z) < 1e-3 * abs(root.z)


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
                    24 * lin * (C * e1p - (e1 + tau * e1p)) - g2p * (d * d) + 2 * g2v * d)
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

    @pytest.mark.parametrize("anchored", [False, True], ids=["walk", "anchored"])
    def test_eval_phi_reads_eta1_with_the_root(self, anchored, monkeypatch):
        # eval_phi makes no series evaluation beyond its square root's: the
        # anchored root's one (eta1, g2) evaluation at tau, or the walk's,
        # whose last step is at tau; the value is that of eta1 and the root
        # read apart, bit for bit
        t = complex(0.31, 0.83)
        anchor = sqrt_g2_over_12(t) if anchored else None
        sums = []
        for name in ("horner", "eta1_g2_sums", "eisenstein_sums"):
            kernel = getattr(qseries, name)
            monkeypatch.setattr(qseries, name,
                                lambda *a, _k=kernel, _n=name: sums.append(_n) or _k(*a))
        w = sqrt_g2_over_12(t, DEFAULT, anchor)
        root_sums = list(sums)
        assert root_sums == ["eta1_g2_sums"] * (1 if anchored else len(root_sums))
        for sign in (1, -1):
            sums.clear()
            phi = eval_phi(BranchState(sign=sign, anchor=anchor), t)
            assert sums == root_sums
            assert phi == t - 2j * PI / (qseries._eta1(t, DEFAULT) + sign * w)

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

    @pytest.mark.parametrize("C", [-0.5, 5.0, -2.0, 1.5])
    def test_coarse_eps_root_passes(self, C):
        # at eps 1e-6, f_C's truncation dwarfs its rounding: the residual
        # exceeds max(1e-9, 1e-13 fc_scale), and the test admits it by its
        # truncation term
        pp = PrecisionPolicy(eps=1e-6)
        t = solve_tauC(C, pp, verify=True).z
        assert abs(eval_fC(C, t, pp)) > max(1e-9, 1e-13 * zeros.fc_scale(C, t, pp))

    def test_coarse_eps_seeded(self):
        rng = random.Random(404)
        Cs = []
        for _ in range(150):
            x = 10 ** rng.uniform(-12, 14)
            Cs += [rng.choice([x, -x, 1 + x, 1 - x if x < 1 else -x]), rng.uniform(-3, 4)]
        for eps in (1e-6, 1e-7, 1e-8, 1e-10):
            pp = PrecisionPolicy(eps=eps)
            for C in Cs:
                t = solve_tauC(C, pp)
                assert classify_domain(t, tol=1e-9) is DomainTag.F0_INTERIOR, (eps, C)

    def test_residual_decisions_at_default_eps_unchanged(self):
        # at the default eps the truncation term moves the bound by under 3%:
        # at points off the root where |f_C| is 0.5 to 2 times
        # max(1e-9, 1e-13 fc_scale), the test decides as that bound alone
        decided = []
        for C in _table_Cs(60, 5) + [-1e5, 2e6, 1.000000001, 1e-12, -1e-12]:
            t = solve_tauC(C).z
            fp = _fc_parts(C, t, DEFAULT)[1]
            bound = max(1e-9, 1e-13 * zeros.fc_scale(C, t))
            for k in (0.5, 0.9, 1.1, 2.0):
                tk = t + k * bound / fp
                f, scale = zeros._fc_value(C, tk, DEFAULT)
                old = abs(f) <= max(1e-9, 1e-13 * scale)
                try:
                    zeros._checked(C, tk, DEFAULT)
                except Diverged:
                    new = False
                else:
                    new = True
                assert new == old, (C, k)
                decided.append(old)
        assert decided.count(True) > 100 and decided.count(False) > 100

    def test_zero_branch_anchor_once_per_policy(self):
        # the zero branch is solved on C* >= 2: 0.3 folds onto C* = 1/0.3
        # in the table interval C* - 1 in [2, 4], 0.6 and 0.45 onto
        # 1/(1 - 0.6) and 1/0.45 in [1, 2]; two tables, each built once
        pp = PrecisionPolicy(eps=1e-11)
        tables = _tau_table.cache_info().misses
        for _ in range(2):
            for C in (0.3, 0.6, 0.45):
                t = solve_tauC(C, pp)
                assert abs(eval_fC(C, t, pp)) < 1e-9
        assert _tau_table.cache_info().misses == tables + 2

    def test_outer_anchors_once_per_policy(self):
        # -0.3, 1.4, -0.5, 1.2 and -0.7 fold onto C* = 1 + 1/0.3, 1.4/0.4,
        # 3, 1.2/0.2 and 1 + 1/0.7, in the table intervals C* - 1 in [2, 4]
        # (three of them), [4, 8] and [1, 2]: three tables, each built once
        pp = PrecisionPolicy(eps=3e-12)
        tables = _tau_table.cache_info().misses
        for _ in range(2):
            for C in (-0.3, 1.4, -0.5, 1.2, -0.7):
                t = solve_tauC(C, pp)
                assert abs(eval_fC(C, t, pp)) < 1e-9
        assert _tau_table.cache_info().misses == tables + 3

    def test_warm_solve_work_bound(self, monkeypatch):
        # C = 1.55 folds onto C* = 1.55/0.55 in the table interval
        # C* - 1 in [1, 2]; once it is built, Newton's first step from the
        # table's value is its last, and f_C in its own form is not summed
        solve_tauC(1.55)
        calls = _count_calls(monkeypatch, "_g_parts")
        fc_calls = _count_calls(monkeypatch, "_fc_parts")
        solve_tauC(1.55)
        assert len(calls) == 1
        assert not fc_calls

    @pytest.mark.parametrize("C", [1e308, -1e308, 1e200, -1e200])
    def test_huge_C_diverges(self, C):
        # the root is found, but fc_scale = 1 + |g2| |C - tau|^2 is past the
        # float range, so the residual test cannot be read: Diverged names
        # C and the scale, and no bare OverflowError escapes
        with pytest.raises(Diverged, match=r"fc_scale .* past the float range"):
            solve_tauC(C)

    @pytest.mark.parametrize("C", [5e-324, -5e-324, 5e-309])
    def test_tiny_C_diverges(self, C):
        # 1/C overflows, so the fold's C* is inf: Diverged names C, where
        # the asymptotic seed at inf would be NaN
        with pytest.raises(Diverged, match=rf"C = {re.escape(repr(C))}: its fold C\* is past the float range"):
            solve_tauC(C)

    def test_smallest_C_within_the_float_range(self):
        # 1/C is finite at 1e-308, and tau(C) lies inside F0 near the cusp 0
        for C in (1e-308, -1e-308):
            t = solve_tauC(C)
            assert classify_domain(t, tol=1e-9) is DomainTag.F0_INTERIOR
            assert 0 < t.z.imag < 0.01

    def test_fc_scale_past_the_float_range(self):
        # the scale reads inf past the float range, and fc_scale raises
        # Diverged naming C and |C - tau|; finite scales keep their bits
        from e2crit.zeros import _fc_value, fc_scale
        assert _fc_value(1e200, 1j, DEFAULT)[1] == math.inf
        with pytest.raises(Diverged, match=r"fc_scale .* past the float range at C = 1e\+200, .*"
                                           r"\|C - tau\| = 1\.000e\+200"):
            fc_scale(1e200, 1j)
        g2v = eval_invariants(0.3 + 1j)[0]
        assert fc_scale(1e150, 0.3 + 1j) == 1.0 + abs(g2v) * abs(1e150 - (0.3 + 1j)) ** 2

    def test_largest_C_within_the_float_range(self):
        # below |C| of about 1e153 fc_scale is finite and the residual test
        # reads it
        for C in (1e150, -1e150):
            t = solve_tauC(C)
            assert t.im > 50
            assert abs(t.re - (0.25 if C > 0 else 0.75)) < 1e-12

    @pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_C(self, C):
        for call in (lambda: solve_tauC(C), lambda: eval_fC(C, 1j),
                     lambda: eval_fC_prime(C, 1j)):
            with pytest.raises(ValueError, match="finite"):
                call()


def _count_calls(monkeypatch, name):
    """The argument tuples of every call to zeros.<name>, from now on."""
    calls = []
    fn = getattr(zeros, name)
    monkeypatch.setattr(zeros, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def _fold_Cs(n, seed, lo=1e-12, hi=1e14):
    """n seeded C in each of the six fold intervals, |C| or |C - 1|
    log-uniform in [lo, hi] as far as the interval reaches."""
    rng = random.Random(seed)

    def lu(a, b):
        a, b = max(a, lo), min(b, hi)
        return math.exp(rng.uniform(math.log(a), math.log(b)))

    Cs = []
    for _ in range(n):
        Cs += [1 + lu(1, hi), -lu(1, hi), -lu(lo, 1), lu(lo, 0.5), 1 - lu(lo, 0.5), 1 + lu(lo, 1)]
    return Cs


def _table_Cs(n, seed):
    """Seeded C in (-0.8, 1.8), at least 0.05 from 0 and 1: all of them
    fold onto C* in the table's reach [2, 33]."""
    rng = random.Random(seed)
    Cs = []
    while len(Cs) < n:
        C = rng.uniform(-0.8, 1.8)
        if min(abs(C), abs(C - 1)) >= 0.05:
            Cs.append(C)
    return Cs


class TestAnchorLadder:
    """Cold solves through the fold onto C* >= 2: history independence,
    the work a solve does, and the seed it starts from."""

    def test_history_independence(self):
        Cs = _fold_Cs(10, 41) + _table_Cs(30, 41)
        _tau_table.cache_clear()
        forward = [solve_tauC(C).z for C in Cs]
        _tau_table.cache_clear()
        backward = [solve_tauC(C).z for C in reversed(Cs)]
        assert forward == backward[::-1]
        # an int C is the float C
        for C in (-3, -1, 2, 5):
            assert solve_tauC(C).z == solve_tauC(float(C)).z
        assert trace_curve("minus", -8, -1, 5) == trace_curve("minus", -8.0, -1.0, 5)

    def test_fold(self, monkeypatch):
        # each C is solved at C* >= 2 as the fold table of zeros._solve
        # gives it, and tau(C*) is mapped back by the matching map
        seen = _count_calls(monkeypatch, "_plus_root")
        for C in _fold_Cs(5, 61) + [2.0, -1.0, 0.5, -0.5, 1.5, 0.75]:
            seen.clear()
            t = solve_tauC(C).z
            ((C_star, _),) = seen
            assert C_star >= 2, C
            ts = zeros._plus_root(C_star, DEFAULT)
            if C >= 2:
                want = (C, ts)
            elif C <= -1:
                want = (1 - C, 1 - ts.conjugate())
            elif C < 0:
                want = (1 - 1 / C, 1 / (1 - ts))
            elif C <= 0.5:
                want = (1 / C, 1 / ts.conjugate())
            elif C < 1:
                want = (1 / (1 - C), 1 - 1 / ts)
            else:
                want = (C / (C - 1), 1 - (1 / (1 - ts)).conjugate())
            assert (C_star, t) == want, C

    def test_cold_solve_work_bound(self, monkeypatch):
        # once the tables are built, Newton's first step from the table's
        # value is its last: one g evaluation each
        Cs = _table_Cs(300, 43)
        for C in Cs:
            solve_tauC(C)
        calls = _count_calls(monkeypatch, "_g_parts")
        for C in Cs:
            calls.clear()
            solve_tauC(C)
            assert len(calls) == 1, C

    def test_table_root_matches_the_continued_root(self):
        # Newton's root on g from the table's value against Newton's root on
        # f_C in its own form, from tau at the nearest C = j/8: an
        # independent check of the cold root.  Both stop after a step below
        # 1e-13 |tau|, so they differ by rounding only: f_C loses about
        # |C| eps, and here |C| < 2
        ranges = {"minus": (-8, -1), "zero": (1, 7), "plus": (9, 16)}
        for C in _table_Cs(200, 47):
            lo, hi = ranges[zeros.branch_of(C)]
            j = round(min(hi, max(lo, 8 * C)))
            continued = zeros._newton(lambda z: _fc_parts(C, z, DEFAULT), solve_tauC(j / 8).z,
                                      1e-13, 60)
            assert abs(solve_tauC(C).z - continued) <= 4e-15 * abs(continued), C

    def test_nodes_built_once_per_policy(self, monkeypatch):
        # each table solves its 16 Chebyshev nodes once per policy: the
        # first solve in an interval makes those 16 Newton solves and its
        # own, every later one its own alone
        pp = PrecisionPolicy(eps=2.5e-12)
        solves = _count_calls(monkeypatch, "_newton_g")
        counts = []
        for C in (4.2, 4.7, 0.3, 4.2):   # C* - 1 in [2, 4] each, 0.3 by 1/C
            solves.clear()
            t = solve_tauC(C, pp)
            assert abs(eval_fC(C, t, pp)) < 1e-9
            counts.append(len(solves))
        assert counts == [17, 1, 1, 1]

    def test_off_the_nodes_the_table_or_the_cold_path(self, monkeypatch):
        # Newton starts from the table's value where C* <= 33, its top end
        # included, and from the asymptotic seed past it; the dyadics k/64
        # and C just past the table's end in each fold interval included
        Cs = [k / 64 for k in range(-65, 131, 2)] + [-32.0, -32.01, 33.0, 33.01, 1 / 32, 1 / 34,
                                                    1 - 1 / 32, 1 - 1 / 34, 33 / 32, 35 / 34,
                                                    -1 / 32, -1 / 32.01]
        for C in Cs:
            solve_tauC(C)   # builds the tables
        seeds = _count_calls(monkeypatch, "_newton_g")
        past = []
        for C in Cs:
            seeds.clear()
            solve_tauC(C)
            ((C_star, seed, _),) = seeds
            if C_star <= 33:
                assert seed == zeros._table_guess(C_star, DEFAULT), C
            else:
                past.append(C)
                assert seed == zeros._asymptotic_seed(C_star), C
        assert past == [-1 / 64, 1 / 64, 63 / 64, 65 / 64, -32.01, 33.01, 1 / 34, 1 - 1 / 34,
                        35 / 34, -1 / 32.01]

    def test_asymptotic_seed_on_its_range(self):
        # the seed serves C >= 2 alone, up to the largest float, and lands
        # where tau(C) lies for such C: Re in [0.25, 0.356] and Im from
        # 0.815 up, as measured
        rng = random.Random(2027)
        Cs = [2.0, math.nextafter(2.0, 3.0), 33.0, sys.float_info.max]
        Cs += [math.exp(rng.uniform(math.log(2.0), math.log(1.7e308))) for _ in range(2000)]
        for C in Cs:
            seed = zeros._asymptotic_seed(C)
            assert type(seed) is complex and cmath.isfinite(seed), C
            assert 0.25 <= seed.real <= 0.36 and seed.imag >= 0.8, (C, seed)


# the table's five intervals, in C*: C* - 1 in [2^(e-1), 2^e], e = 1..5
TABLE = [(1 + 2.0 ** (e - 1), 1 + 2.0 ** e) for e in range(1, 6)]


def _table_exponents(monkeypatch):
    """The exponents e of the table intervals zeros._table_guess reads,
    from now on."""
    asked = []
    table = zeros._tau_table
    monkeypatch.setattr(zeros, "_tau_table", lambda e, eps: asked.append(e) or table(e, eps))
    return asked


class TestTauTable:
    def test_intervals(self, monkeypatch):
        asked = _table_exponents(monkeypatch)
        for e, (lo, hi) in enumerate(TABLE, 1):
            mid = 0.5 * (lo + hi)
            for C in (mid, math.nextafter(hi, mid), math.nextafter(lo, mid)):
                asked.clear()
                zeros._table_guess(C, DEFAULT)
                assert asked == [e], C
        # the table's ends belong to it
        for C, e in ((2.0, 1), (33.0, 5)):
            asked.clear()
            zeros._table_guess(C, DEFAULT)
            assert asked == [e], C

    def test_both_sides_of_every_edge(self, monkeypatch):
        # where two intervals share an end, C* - 1 = 2^(e-1) starts the
        # interval above it, the longer one; on both sides of every edge
        # the table's value holds the root
        asked = _table_exponents(monkeypatch)
        for e in range(2, 6):
            E = 1 + 2.0 ** (e - 1)
            for C, want in ((math.nextafter(E, -math.inf), e - 1), (E, e),
                            (math.nextafter(E, math.inf), e)):
                asked.clear()
                guess = zeros._table_guess(C, DEFAULT)
                assert asked == [want], C
                root = zeros._plus_root(C, DEFAULT)
                assert abs(guess - root) <= 1e-13 * abs(root), C

    def test_table_matches_cold_roots(self):
        # seeded C* in every interval and both its ends, against the root
        # solved without the table, by Newton on g from the asymptotic seed
        rng = random.Random(53)
        for lo, hi in TABLE:
            for C in [lo, hi] + [rng.uniform(lo, hi) for _ in range(6)]:
                guess = zeros._table_guess(C, DEFAULT)
                cold = zeros._newton_g(C, zeros._asymptotic_seed(C), DEFAULT)
                assert abs(guess - cold) <= 1e-13 * abs(cold), C

    def test_one_fc_evaluation_per_cold_solve(self, monkeypatch):
        # in the table's reach (C* <= 33) a solve evaluates f_C once, in
        # the form g = f_C / (12 (C* - tau)), whatever the fold interval
        rng = random.Random(59)
        Cs = [rng.uniform(lo, hi) for lo, hi in ((-32.0, -1.0), (-1.0, -1 / 32), (1 / 33, 0.5),
                                                 (0.5, 1 - 1 / 33), (33 / 32, 2.0), (2.0, 33.0))
              for _ in range(50)]
        Cs += [lo for lo, _ in TABLE] + [hi for _, hi in TABLE]
        for C in Cs:
            solve_tauC(C)
        calls = _count_calls(monkeypatch, "_g_parts")
        for C in Cs:
            calls.clear()
            solve_tauC(C)
            assert len(calls) == 1, C

    def test_tables_built_once_per_policy(self):
        # the tables are keyed on eps: a second policy object equal to the
        # first finds them built
        misses = _tau_table.cache_info().misses
        Cs = [lo + 0.3 * (hi - lo) for lo, hi in TABLE]
        for pp in (PrecisionPolicy(eps=4e-12), PrecisionPolicy(eps=4e-12)):
            for C in Cs:
                solve_tauC(C, pp)
        assert _tau_table.cache_info().misses == misses + len(TABLE)

    def test_root_on_the_F0_boundary_escapes(self, monkeypatch):
        # tau(-0.05) lies 0.12 inside the arc |tau - 1/2| = 1/2.  tau(C*),
        # C* = 21, moved so that its map back lies on the arc, fails the
        # interior test; the residual test is lifted, so the F0 test alone
        # decides
        C = -0.05
        t = solve_tauC(C).z
        arc = 0.5 + 0.5 * (t - 0.5) / abs(t - 0.5)
        monkeypatch.setattr(zeros, "_plus_root", lambda C, pp: 1 - 1 / arc)
        monkeypatch.setattr(zeros, "_fc_value", lambda C, t, pp: (0j, 1.0))
        with pytest.raises(DomainEscape, match=r"not interior to F0 \(F0_boundary\)"):
            solve_tauC(C)

    def test_root_outside_F0_refused(self, monkeypatch):
        # tau(C*) is offered as its mirror image 2 - conj tau(C*) across
        # Re = 1, another tile's zero.  The fold's maps keep F0, so its map
        # back lies outside F0 in every fold interval; with the residual
        # test lifted the F0 test alone must refuse it, naming its tag
        plus = zeros._plus_root
        monkeypatch.setattr(zeros, "_plus_root", lambda C, pp: 2 - plus(C, pp).conjugate())
        monkeypatch.setattr(zeros, "_fc_value", lambda C, t, pp: (0j, 1.0))
        for C in (-20.0, -1.5, -0.3, 0.1, 0.7, 1.2, 2.5, 30.0):
            with pytest.raises(DomainEscape, match=r"not interior to F0 \(outside\)"):
                solve_tauC(C)


class TestBoundaryExclusion:
    def test_fC_nonzero_on_F0_boundary(self):
        heights = np.geomspace(0.15, 6.0, 10)
        pts = [complex(0.0, h) for h in heights]
        pts += [complex(1.0, h) for h in heights]
        pts += [0.5 + 0.5 * cmath.exp(1j * th) for th in np.linspace(0.3, PI - 0.3, 10)]
        for C in (-2.0, -0.5, 0.25, 0.5, 0.75, 2.0, 5.0):
            assert min(abs(eval_fC(C, p)) for p in pts) > 1e-7


def _old_winding(f, contour, min_abs, max_points):
    """The walk as it was when every walk formed the zero sum: the reference
    for _winding's counts, points, exceptions and zero sum."""
    def node(p, out):
        v = out[0] if gated else out
        if abs(v) < min_abs:
            raise BoundaryZero(f"|f| = {abs(v):.2e} < {min_abs:.0e} at contour point {p}")
        if not gated:
            return p, v, None, None
        g = out[1] / v
        return p, v, g, abs(g)

    pts = contour.points
    first = f(pts[0])
    gated = type(first) is tuple
    nodes = [node(pts[0], first)] + [node(p, f(p)) for p in pts[1:-1]]
    nodes.append(nodes[0])
    used = len(pts)
    budget = max_points - used
    max_step = contour.max_step
    total = 0.0
    moment = 0j
    for i in range(len(nodes) - 1):
        stack = [(nodes[i], nodes[i + 1])]
        while stack:
            a, b = stack.pop()
            p0, v0, g0, r0 = a
            p1, v1, g1, r1 = b
            dlog = cmath.log(v1 / v0)
            dphi = dlog.imag
            if abs(dphi) < max_step:
                if not gated:
                    total += dphi
                    moment += (p0 + p1) * dlog
                    continue
                h = p1 - p0
                if abs(h) * max(r0, r1) < 1.0:
                    total += dphi
                    moment += (p0 + p1) * dlog + h * h * (g1 - g0) / 6
                    continue
            if budget <= 0:
                raise PhaseStepFailure("adaptive subdivision budget exhausted")
            if abs(p1 - p0) < 1e-14:
                raise PhaseStepFailure(f"phase step {dphi:.3f} irreducible near {p0}")
            mid = 0.5 * (p0 + p1)
            m = node(mid, f(mid))
            used += 1
            budget -= 1
            stack.append((m, b))
            stack.append((a, m))
    n = total / (2 * PI)
    if abs(n - round(n)) > 1e-3:
        raise PhaseStepFailure(f"winding number {n} not close to an integer")
    return int(round(n)), used, moment / (4j * PI)


def _walk_outcome(call):
    """The value of call(), or the type and message of the walk exception it raises."""
    try:
        return call()
    except (BoundaryZero, PhaseStepFailure) as exc:
        return type(exc), str(exc)


EXHAUSTED = (PhaseStepFailure, "adaptive subdivision budget exhausted")


def _recorded(f):
    """f, and the list of the points it is called at."""
    calls = []
    return (lambda t: calls.append(t) or f(t)), calls


class TestWalkParity:
    """_winding against the walk it replaced.  A plain walk, and a gated
    one that forms the zero sum, keep their count, points, bisection order,
    zero sum and exceptions; a gated count, which goes coarse to fine,
    keeps its count from no more points and evaluates none twice."""

    @staticmethod
    def cases():
        rng = random.Random(2718)
        f0 = f0_contour()
        rects = [rect_contour(re0, re0 + rng.uniform(0.5, 1.0), rng.uniform(0.05, 0.1), rng.uniform(0.6, 1.4),
                              n=rng.choice((24, 48)))
                 for re0 in (rng.uniform(-0.5, 0.3) for _ in range(6))]
        out = []
        for name, (v0, v1, v2) in _TRIANGLE_VERTICES.items():
            x, y = rng.uniform(0.1, 0.45), rng.uniform(0.1, 0.45)
            rs = (v0[0] + (v1[0] - v0[0]) * x + (v2[0] - v0[0]) * y,
                  v0[1] + (v1[1] - v0[1]) * x + (v2[1] - v0[1]) * y)
            out.append((lambda t, rs=rs: eval_Zrs2(rs, t), lambda t, rs=rs: _zrs2_parts(rs, t), f0))
        for C in (rng.uniform(-3, -0.2), rng.uniform(0.1, 0.9), rng.uniform(1.2, 4)):
            out.append((lambda t, C=C: eval_fC(C, t), lambda t, C=C: _fc_parts(C, t, DEFAULT), f0))
        for box in rects:
            C = rng.uniform(-1, 2)
            out.append((lambda t, C=C: eval_fC(C, t), lambda t, C=C: _fc_parts(C, t, DEFAULT), box))
        return out

    def test_counts_points_and_zero_sums(self):
        bisected = 0
        for plain, paired, contour in self.cases():
            f, calls = _recorded(plain)
            ref, ref_calls = _recorded(plain)
            want = _old_winding(ref, contour, 1e-9, 1 << 18)
            assert count_zeros_info(f, contour) == want[:2]
            assert calls == ref_calls
            bisected += want[1] > len(contour.points)
            f, calls = _recorded(paired)
            ref, ref_calls = _recorded(paired)
            want = _old_winding(ref, contour, 1e-9, 1 << 18)
            assert float_bits(_winding(f, contour, 1e-9, 1 << 18)) == float_bits(want)
            assert calls == ref_calls
            bisected += want[1] > len(contour.points)
            # a count evaluates the first point first, and neither it (as
            # the closing point) nor any other again
            f, calls = _recorded(paired)
            n, used = count_zeros_info(f, contour)
            assert n == want[0] and used <= want[1]
            assert calls[0] == contour.points[0]
            assert used == len(calls) + 1 and len(set(calls)) == len(calls)
        assert bisected >= 6

    def test_exceptions(self):
        exhausted = 0
        for plain, paired, contour in self.cases():
            # a plain count and a gated walk that forms the zero sum
            for f, walk, keep in ((plain, count_zeros_info, 2), (paired, _winding, 3)):
                used = _old_winding(f, contour, 1e-9, 1 << 18)[1]
                for max_points in (len(contour.points), (len(contour.points) + used) // 2):
                    want = _walk_outcome(lambda: _old_winding(f, contour, 1e-9, max_points)[:keep])
                    assert _walk_outcome(lambda: walk(f, contour, 1e-9, max_points)) == want
                    exhausted += want == EXHAUSTED
            # a gated count stops exactly when it needs more than max_points
            info = count_zeros_info(paired, contour)
            for max_points in (len(contour.points), info[1], info[1] - 1):
                want = info if max_points >= info[1] else EXHAUSTED
                assert _walk_outcome(lambda: count_zeros_info(paired, contour, 1e-9, max_points)) == want
        assert exhausted >= 6
        # f_0 vanishes at the cusps below the boundary-zero floor; a gated
        # walk meets the first such point among its starting points
        plain, paired = lambda t: eval_fC(0.0, t), lambda t: _fc_parts(0.0, t, DEFAULT)
        want = _walk_outcome(lambda: _old_winding(plain, f0_contour(), 1e-9, 1 << 18))
        assert want[0] is BoundaryZero
        assert _walk_outcome(lambda: count_zeros_info(plain, f0_contour())) == want
        assert _walk_outcome(lambda: count_zeros_info(paired, f0_contour()))[0] is BoundaryZero
        # a zero on the left edge, off every dyadic midpoint, with the floor
        # at 1e-300: bisection runs down to the irreducible step
        a = complex(0.0, 0.5 + 1 / 7)
        contour = rect_contour(0, 1, 0.5, 1.5, n=3)
        for f in (lambda t: t - a, lambda t: (t - a, 1.0)):
            want = _walk_outcome(lambda: _old_winding(f, contour, 1e-300, 1 << 18))
            assert want[0] is PhaseStepFailure and "irreducible" in want[1]
            assert _walk_outcome(lambda: count_zeros_info(f, contour, 1e-300)) == want
            assert _walk_outcome(lambda: _winding(f, contour, 1e-300, 1 << 18)) == want


def _suite_walks():
    """The gated walks of verify --suite all, as (f, contour): criterion 3's
    44 counts and criterion 7's 10, and appendix_bstar's 3 zero-sum walks."""
    f0, wide = f0_contour(6.0, 0.08), f0_contour(6.0, 0.2)
    z2 = lambda rs: (lambda t: _zrs2_parts(rs, t, DEFAULT))
    counts = [(z2((1 / 3, 1 / 3)), f0)]
    counts += [(z2(rs), f0) for name in ("T0", "T1", "T2", "T3") for rs in triangle_grid(name)]
    counts += [(_fc_pair(C), f0) for C in (-2.0, 0.25, 0.5, 0.75, 2.0)]
    counts += [(_fc_pair(C), wide) for C in (0.0, 1.0)]
    counts += [(_fc_pair(-g.d / g.c), f0) for g in enumerate_gamma02(8)]
    sums = [(z2(((2 - s) / 2, s)), f0) for s in (4e-3, 2e-3, 1e-3)]
    return counts, sums


# the points each of the counts of _suite_walks evaluates
SUITE_COUNTS_USED = [58, 58, 55, 58, 54, 59, 57, 60, 56, 60, 59, 59, 59, 59, 60, 59, 59, 61, 62, 63, 61, 59,
                     62, 59, 59, 62, 63, 59, 61, 61, 59, 61, 59, 57, 63, 60, 59, 69, 63, 61, 62, 65, 112, 112,
                     61, 65, 63, 66, 60, 64, 61, 59, 62, 65]


class TestSuiteWalks:
    """_winding on the walks of verify --suite all against the reference
    walk: a zero-sum walk keeps the reference's count, points, evaluation
    order, zero sum and exceptions bit for bit, and a count keeps its count
    from the points it has always taken, none twice."""

    @staticmethod
    def same_walk(f, contour):
        """The zero-sum walk of f against the reference, at the full budget
        and at two smaller ones; the reference's (count, used, zero sum)."""
        ref, ref_calls = _recorded(f)
        want = _old_winding(ref, contour, 1e-9, 1 << 18)
        g, calls = _recorded(f)
        assert float_bits(_winding(g, contour, 1e-9, 1 << 18)) == float_bits(want)
        assert calls == ref_calls
        for max_points in (len(contour.points), (len(contour.points) + want[1]) // 2):
            assert (_walk_outcome(lambda: _winding(f, contour, 1e-9, max_points))
                    == _walk_outcome(lambda: _old_winding(f, contour, 1e-9, max_points)))
        return want

    def test_counts(self):
        counts = _suite_walks()[0]
        assert len(counts) == 54
        used = []
        for f, contour in counts:
            want = self.same_walk(f, contour)
            g, calls = _recorded(f)
            n, u = count_zeros_info(g, contour)
            assert n == want[0] and u <= want[1]
            assert u == len(calls) + 1 and len(set(calls)) == len(calls)
            used.append(u)
            for max_points in (u - 1, u):
                got = _walk_outcome(lambda: count_zeros_info(f, contour, 1e-9, max_points))
                assert got == ((n, u) if max_points == u else EXHAUSTED)
        assert used == SUITE_COUNTS_USED

    def test_zero_sums(self):
        for (f, contour), s in zip(_suite_walks()[1], (4e-3, 2e-3, 1e-3)):
            n, _, seed = self.same_walk(f, contour)
            root = find_zero_in_F0(((2 - s) / 2, s))
            assert n == 1 and abs(seed - root.z) < 1e-3


def _sweep_chars(rng, n):
    """n characteristics: a quarter within 3e-3 of the lattice points 0 and
    1, the rest in a random triangle with one barycentric weight 0.003."""
    names = list(_TRIANGLE_VERTICES)
    out = []
    for k in range(n):
        u, v = rng.uniform(3e-4, 3e-3), rng.uniform(3e-4, 3e-3)
        if k % 4 == 3:
            out.append(rng.choice(((u, v), (1 - u, v))))
            continue
        v0, v1, v2 = _TRIANGLE_VERTICES[rng.choice(names)]
        w = [rng.uniform(0.003, 1.0) for _ in range(3)]
        w[rng.randrange(3)] = 0.0
        x, y = (0.003 + wi * 0.991 / sum(w) for wi in w[1:])
        out.append((v0[0] + (v1[0] - v0[0]) * x + (v2[0] - v0[0]) * y,
                    v0[1] + (v1[1] - v0[1]) * x + (v2[1] - v0[1]) * y))
    return out


def _sweep_Cs(rng, n):
    """n curve parameters: |C| log-uniform in [1e-3, 1e4] of either sign,
    within 1e-3 to 0.1 of 1, and in (0, 1)."""
    out = []
    for k in range(n):
        out.append((10 ** rng.uniform(-3, 4), -10 ** rng.uniform(-3, 4),
                    1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-3, -1), rng.uniform(1e-3, 1 - 1e-3))[k % 4])
    return out


class TestCoarseWalkSweep:
    """Seeded gated counts against the reference walk, near where a coarse
    chord could cut a zero off: Z2 near the triangle edges and the lattice
    and f_C from |C| = 1e-3 to 1e4 and near 1, over four F0 polylines, and
    f_C over low rectangles at 6 to 48 points per side."""

    def test_f0_polylines(self):
        rng = random.Random(2020)
        old = new = 0
        for contour in (f0_contour(), f0_contour(cusp_delta=0.2), f0_contour(3.0), f0_contour(8.0, 0.04)):
            fs = [lambda t, rs=rs: _zrs2_parts(rs, t) for rs in _sweep_chars(rng, 60)]
            fs += [_fc_pair(C) for C in _sweep_Cs(rng, 60)]
            for f in fs:
                want = _old_winding(f, contour, 1e-9, 1 << 18)
                got = count_zeros_info(f, contour)
                assert got[0] == want[0], (want, got)
                old, new = old + want[1], new + got[1]
        # at least a quarter fewer points per count
        assert new <= 0.75 * old

    def test_rectangles(self):
        rng = random.Random(2021)
        for _ in range(100):
            C = _branch_C(rng)
            re0 = rng.uniform(-0.5, 0.3)
            box = (re0, re0 + rng.uniform(0.5, 1.0), rng.uniform(0.05, 0.1), rng.uniform(0.6, 1.4))
            contour = rect_contour(*box, n=rng.choice((6, 12, 24, 25, 48)))
            want = _old_winding(_fc_pair(C), contour, 1e-9, 1 << 18)
            got = count_zeros_info(_fc_pair(C), contour)
            assert got[0] == want[0] and got[1] <= want[1], (C, box, want, got)


def _kept_and_plain(shape):
    """A fresh f0_contour polyline, whose midpoint table is empty, and its
    plain copy, which keeps none."""
    kept = zeros._f0_polyline.__wrapped__(*shape)
    return kept, Contour(tuple(complex(p) for p in kept.points))


class TestKeptMidpoints:
    """The bisection midpoints a polyline of LatticePoints keeps for its
    gated walks (Contour._midpoints) change no count, point count, zero
    sum or root: each is the plain midpoint carrying its lattice data."""

    @staticmethod
    def walks(pp):
        """(polyline shape, [(name, f)]): Z2 at the verification grid and
        appendix_bstar's characteristics, and f_C at criterion_3's and
        criterion_7's C, over f0_contour(); f_0 and f_1 over the wide cut."""
        chars = [rs for name in _TRIANGLE_VERTICES for rs in triangle_grid(name)] + list(BSTAR_CHARS)
        Cs = [-2.0, 0.25, 0.5, 0.75, 2.0] + [-g.d / g.c for g in enumerate_gamma02(8)]
        base = [(("Z2", rs), lambda t, rs=rs: _zrs2_parts(rs, t, pp)) for rs in chars]
        base += [(("fC", C), lambda t, C=C: _fc_parts(C, t, pp)) for C in Cs]
        wide = [(("fC", C), lambda t, C=C: _fc_parts(C, t, pp)) for C in (0.0, 1.0)]
        return [((6.0, 0.08), base), ((6.0, 0.2), wide)]

    @staticmethod
    def results(f, contour):
        """The count and points used, and the zero-sum walk's triple."""
        return float_bits((count_zeros_info(f, contour),
                           _winding(f, contour, zeros.BOUNDARY_ZERO_TOL, zeros.MAX_CONTOUR_POINTS, True)))

    @pytest.mark.parametrize("eps", [1e-12, 1e-10])
    def test_counts_and_sums_cold_and_warm(self, eps):
        pp = PrecisionPolicy(eps)
        for shape, funcs in self.walks(pp):
            kept, plain = _kept_and_plain(shape)
            want = {key: self.results(f, plain) for key, f in funcs}
            assert plain._midpoints is None and kept._midpoints == {}
            for _ in ("cold", "warm"):
                assert {key: self.results(f, kept) for key, f in funcs} == want
            assert kept._midpoints
            assert all(type(p) is zeros.LatticePoint and p == m for m, p in kept._midpoints.items())

    @pytest.mark.parametrize("eps", [1e-12, 1e-10])
    def test_roots_cold_and_warm(self, eps, monkeypatch):
        from e2crit import premodular
        pp = PrecisionPolicy(eps)
        chars = [rs for name in ("T1", "T2", "T3") for rs in triangle_grid(name)] + list(BSTAR_CHARS)
        kept, plain = _kept_and_plain((6.0, 0.08))
        roots = []
        for contour in (plain, kept, kept):
            monkeypatch.setattr(premodular, "f0_contour", lambda *shape: contour)
            roots.append([float_bits(find_zero_in_F0(rs, pp).z) for rs in chars])
        assert roots[1] == roots[0] and roots[2] == roots[0] and kept._midpoints

    def test_second_count_makes_no_pullback(self, monkeypatch):
        reduce = qseries._reduce
        calls = []

        def counted(tau, height):
            calls.append(tau)
            return reduce(tau, height)

        monkeypatch.setattr(qseries, "_reduce", counted)
        for f in (lambda t: _zrs2_parts((0.075, 0.075), t, DEFAULT), _fc_pair(0.25)):
            kept, _ = _kept_and_plain((6.0, 0.08))
            calls.clear()
            first = count_zeros_info(f, kept)
            # the first count forms the pull-backs of the midpoints it keeps
            assert calls and len(kept._midpoints) > 0
            size = len(kept._midpoints)
            calls.clear()
            assert count_zeros_info(f, kept) == first
            assert calls == [] and len(kept._midpoints) == size

    def test_walk_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(zeros, "MIDPOINTS_KEPT", 3)
        kept, plain = _kept_and_plain((6.0, 0.08))
        plain_mids = []

        def on_kept(rs):
            # every point of kept is a LatticePoint: a plain one is a midpoint
            def parts(t):
                if type(t) is not zeros.LatticePoint:
                    plain_mids.append(t)
                return _zrs2_parts(rs, t, DEFAULT)
            return parts

        chars = [(0.075, 0.075), (1 / 6, 1 / 6), (0.7, 0.2)]
        for _ in ("cold", "warm"):
            for rs in chars:
                want = count_zeros_info(lambda t: _zrs2_parts(rs, t, DEFAULT), plain)
                assert count_zeros_info(on_kept(rs), kept) == want
                assert len(kept._midpoints) == 3
        assert plain_mids and not set(plain_mids) & set(kept._midpoints)

    def test_other_walks_keep_plain_midpoints(self):
        assert rect_contour(0.0, 1.0, 0.1, 1.0)._midpoints is None
        kept, _ = _kept_and_plain((6.0, 0.08))
        mixed = Contour((*kept.points[:-1], complex(kept.points[-1])))
        assert mixed._midpoints is None
        # the plain walk, of a bare callable, bisects without the table
        fine = Contour(kept.points, max_step=0.3)
        n, used = count_zeros_info(lambda t: eval_Zrs2((0.075, 0.075), t), fine)
        assert n == 1 and used > len(fine.points) and fine._midpoints == {}

    def test_zero_of_the_other_sign_stays_plain(self):
        m = complex(0.0, 0.5)
        mids = {m: qseries.lattice_point(m)}
        other = complex(-0.0, 0.5)
        assert zeros._kept_midpoint(mids, m) is mids[m]
        got = zeros._kept_midpoint(mids, other)
        assert type(got) is complex and math.copysign(1.0, got.real) < 0
