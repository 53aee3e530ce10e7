"""Curve tracing, special points, Hessian determinant, critical points."""

import math
import random

import numpy as np
import pytest

from e2crit import (
    BranchState,
    ExcludedPoint,
    appendix_bstar,
    appendix_tau_s,
    branch_of,
    critical_points_E2,
    detect_phi_sign,
    eval_derivatives,
    eval_phi,
    hessian_detG2,
    solve_tauC,
    special_b0,
    special_tau_half,
    special_tau_minus,
    theta_pair,
    trace_curve,
    verify_symmetries,
)
from e2crit import curves, zeros
from e2crit.moebius import DomainTag, classify_domain

PI = math.pi
SQRT3_2 = math.sqrt(3) / 2

# frozen one-dimensional solver outputs (oracle: the bisections themselves)
B_HAT = 1.0371518450840542
B_MINUS = 0.6780065725236852
B_ZERO = 0.24104474304794526


class TestThetaPair:
    def test_at_half(self):
        th, th1 = theta_pair(0.5)
        assert abs(th - 0.5) < 1e-12
        assert 0 < th1 < 0.5

    def test_at_corner(self):
        th, th1 = theta_pair(SQRT3_2)
        assert abs(th - 0.5) < 1e-10
        assert abs(th1 - 1.0) < 1e-9

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            theta_pair(1.5)


class TestSpecialPoints:
    def test_tau_half(self):
        t = special_tau_half()
        assert t.re == 0.5
        assert SQRT3_2 < t.im < 1.2
        assert abs(t.im - B_HAT) < 1e-11
        # independent 2-D solver agrees
        assert abs(solve_tauC(0.5).z - t.z) < 1e-9

    def test_tau_minus(self):
        t = special_tau_minus()
        assert 0.5 < t.im < SQRT3_2
        assert abs(t.im - B_MINUS) < 1e-11
        th, th1 = theta_pair(t.im)
        assert abs(th - th1) < 1e-11

    def test_tau_minus_on_both_outer_branches(self):
        # the same point solves f_C for one C < 0 and one C > 1
        from e2crit import eval_eta1, eval_fC, eval_invariants

        t = special_tau_minus()
        e1 = eval_eta1(t).real
        g2v = eval_invariants(t)[0].real
        disc = e1 * e1 - g2v / 12
        spread = 2 * math.pi * math.sqrt(-g2v / 12) / disc
        c_minus, c_plus = 0.5 - spread, 0.5 + spread
        assert c_minus < 0 < 1 < c_plus
        assert abs(eval_fC(c_minus, t)) < 1e-8
        assert abs(eval_fC(c_plus, t)) < 1e-8

    def test_b0(self):
        b0 = special_b0()
        assert 5 / 24 < b0 < 1 / (2 * math.sqrt(3))
        assert abs(b0 - B_ZERO) < 1e-11
        assert abs(b0 * special_tau_half().im - 0.25) < 1e-10

    def test_b0_is_derivative_sign_change(self):
        def d_eta1_db(b):
            return (1j * eval_derivatives(complex(0.5, b))[0]).real

        b0 = special_b0()
        assert d_eta1_db(b0 - 0.02) > 0 > d_eta1_db(b0 + 0.02)


class TestTrace:
    def test_zero_branch_symmetric(self):
        samples = trace_curve("zero", 0.1, 0.9, 11)
        assert [s.C for s in samples] == sorted(s.C for s in samples)
        assert len(samples) == 11
        for s in samples:
            assert s.branch == "zero"
            assert s.residual < 1e-9
            assert classify_domain(s.tau, tol=1e-9) is DomainTag.F0_INTERIOR
            mirror = solve_tauC(1 - s.C, hint=1 - s.tau.z.conjugate())
            assert abs(mirror.z - (1 - s.tau.z.conjugate())) < 1e-8

    def test_minus_branch_heads_to_three_quarters(self):
        samples = trace_curve("minus", -50.0, -0.5, 12)
        assert samples[0].C == -50.0
        assert abs(samples[0].tau.re - 0.75) < abs(samples[-1].tau.re - 0.75)
        assert samples[0].tau.re > 0.70

    def test_endpoint_trend_toward_cusp(self):
        samples = trace_curve("zero", 0.02, 0.5, 8)
        ims = [s.tau.im for s in samples]
        assert ims[0] < ims[-1]  # Im decreases toward the cusp at C -> 0

    @staticmethod
    def segments():
        """The three branches end to end (|C| up to 1e4, 2e-4 from 0 and 1)
        and seeded segments inside each."""
        rng = random.Random(31)
        out = [("minus", -1e4, -2e-4, 41), ("plus", 1.0002, 1e4, 41),
               ("zero", 2e-4, 0.9998, 41)]
        for _ in range(4):
            lo = -(10 ** rng.uniform(-3.5, 4))
            out.append(("minus", lo, min(-2e-4, lo * rng.uniform(0.05, 0.6)), 9))
            lo = rng.uniform(2e-4, 0.7)
            out.append(("zero", lo, rng.uniform(lo + 0.05, 0.9998), 9))
            lo = 1 + 10 ** rng.uniform(-3.5, 3.5)
            out.append(("plus", lo, min(1e4, lo * rng.uniform(1.2, 20.0)), 9))
        return out

    def test_samples_equal_cold_solves(self):
        for branch, lo, hi, steps in self.segments():
            for s in trace_curve(branch, lo, hi, steps):
                cold = solve_tauC(s.C).z
                assert abs(s.tau.z - cold) <= 1e-12 * abs(cold), (branch, s.C)
                assert classify_domain(s.tau, tol=1e-9) is DomainTag.F0_INTERIOR

    def test_work_bound(self, monkeypatch):
        # one predictor step between neighbouring samples, its Jacobian
        # carried from Newton's last iterate: about six f_C evaluations a
        # sample (four forced sub-steps a sample took 158 in all)
        calls = []
        fc_parts = zeros._fc_parts

        def counted(*args):
            calls.append(args)
            return fc_parts(*args)

        monkeypatch.setattr(zeros, "_fc_parts", counted)
        monkeypatch.setattr(curves, "_fc_parts", counted)
        trace_curve("zero", 0.1, 0.9, 9)
        assert len(calls) <= 80

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            trace_curve("zero", -0.5, 0.5, 5)
        with pytest.raises(ValueError):
            trace_curve("plus", 1.0, 2.0, 5)  # touches the endpoint
        with pytest.raises(ValueError):
            trace_curve("nope", 0.1, 0.2, 5)

    def test_branch_of(self):
        assert branch_of(-3.0) == "minus"
        assert branch_of(0.3) == "zero"
        assert branch_of(4.0) == "plus"
        with pytest.raises(ValueError):
            branch_of(1.0)


class TestPhiSignLock:
    def test_branch_assignment(self):
        assert detect_phi_sign(solve_tauC(0.5)) == 1
        assert detect_phi_sign(solve_tauC(-2.0)) == -1
        assert detect_phi_sign(solve_tauC(3.0)) == -1


class TestHessian:
    def test_excluded_corner(self):
        with pytest.raises(ExcludedPoint):
            hessian_detG2("plus", complex(0.5, SQRT3_2))

    def test_nonzero_off_curves(self):
        assert abs(hessian_detG2("plus", 2j)) > 1e-4
        assert abs(hessian_detG2("minus", 2j)) > 1e-4

    def test_vanishes_on_middle_curve(self):
        t = solve_tauC(0.3)
        det = hessian_detG2("plus", t)
        assert abs(det) < 1e-7
        up = hessian_detG2("plus", t.z + 0.01j)
        down = hessian_detG2("plus", t.z - 0.01j)
        assert up * down < 0

    def test_sign_argument_forms(self):
        t = 2j
        assert hessian_detG2("plus", t) == hessian_detG2(1, t)
        with pytest.raises(ValueError):
            hessian_detG2("up", t)


class TestCriticalPoints:
    def test_small_enumeration(self):
        pts = critical_points_E2(4)
        assert len(pts) == 4  # c = 2: d in {-1, 1}; c = 4: d in {-1, 1}
        for p in pts:
            assert p.residual < 1e-8
        special = [p for p in pts
                   if (p.gamma.a, p.gamma.b, p.gamma.c, p.gamma.d) == (1, -1, 2, -1)]
        assert len(special) == 1
        p = special[0]
        assert abs(p.tau_star.re - 0.5) < 1e-9
        assert 5 / 24 < p.tau_star.im < 1 / (2 * math.sqrt(3))
        assert abs(p.tau_star.im - 1 / (4 * B_HAT)) < 1e-9

    def test_high_tiles(self):
        # E2' at gamma(tau) carries (c tau + d)^4, so the raw residual grows
        # with c while the scaled one stays at rounding level
        pts = critical_points_E2(32)
        assert len(pts) == 112
        assert len({p.gamma for p in pts}) == 112
        assert max(p.residual for p in pts) > 1e-8

    def test_raw_residual_of_the_benchmark_check(self):
        # perfbench's continuation workload fails an op when a point of
        # critical_points_E2(16) has raw |E2'| >= 1e-8; the largest is
        # 2.7e-9, at the tile (3,1;14,5), so a change to the root's last
        # bits (such as stopping Newton one step early) can cross it
        pts = critical_points_E2(16)
        assert len(pts) == 32
        for p in pts:
            assert abs(3 / PI**2 * eval_derivatives(p.tau_star)[0]) < 1e-8, p.gamma

    def test_no_critical_points_in_c0_tiles(self):
        # |E2'| stays away from zero on a grid over F0 + m; heights stay
        # moderate because eta1' itself decays like q toward the cusp
        for m in (0, 1, -1):
            for re in np.linspace(0.05, 0.95, 7):
                for im in np.geomspace(0.3, 2.0, 7):
                    t = complex(re + m, im)
                    if abs(complex(re, im) - 0.5) <= 0.52:
                        continue
                    e2p = 3 / PI**2 * eval_derivatives(t)[0]
                    assert abs(e2p) > 1e-4


class TestAppendix:
    def test_on_symmetry_line(self):
        t = appendix_tau_s(0.1)
        assert abs(t.re - 0.5) < 1e-8

    def test_small_s_limit(self):
        t = appendix_tau_s(0.01)
        assert abs(t.im - B_HAT) < 0.05

    def test_monotone_trend(self):
        assert appendix_tau_s(0.45).im > appendix_tau_s(0.1).im

    def test_bstar(self):
        bstar = appendix_bstar()
        assert SQRT3_2 < bstar < 1.2
        assert abs(bstar - B_HAT) < 1e-6

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            appendix_tau_s(0.6)


class TestSymmetries:
    def test_report(self):
        samples = trace_curve("zero", 0.2, 0.8, 5)
        rep = verify_symmetries(samples)
        assert rep.n_pairs == 5
        assert rep.max_reflection < 1e-8
        assert rep.max_inversion < 1e-8

    def test_fixed_point(self):
        # C = 1/2 is fixed under C -> 1-C, forcing Re tau = 1/2
        t = solve_tauC(0.5)
        assert abs(t.z - (1 - t.z.conjugate())) < 1e-9

    def test_zero_plus_pairing(self):
        # C = 0.4 on the middle branch pairs with 1/0.6 on the plus branch
        t = solve_tauC(0.4)
        t2 = solve_tauC(1 / 0.6)
        assert branch_of(1 / 0.6) == "plus"
        assert abs(t2.z - 1 / (1 - t.z)) < 1e-9


class TestCurveMembership:
    def test_im_phi_vanishes_along_traces(self):
        for branch, lo, hi in (("minus", -5.0, -0.5), ("zero", 0.15, 0.85),
                               ("plus", 1.5, 6.0)):
            samples = trace_curve(branch, lo, hi, 8)
            sign = detect_phi_sign(samples[0].tau)
            state = BranchState(sign=sign)
            for s in samples:
                phi = eval_phi(state, s.tau)
                assert abs(phi.imag) < 1e-8 * (1 + abs(s.tau.z))
                assert abs(phi.real - s.C) < 1e-7
