"""Curve tracing, special points, Hessian determinant, critical points."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from e2crit import (
    DEFAULT,
    BranchJump,
    BranchState,
    ExcludedPoint,
    appendix_bstar,
    appendix_tau_s,
    branch_of,
    critical_points_E2,
    detect_phi_sign,
    eval_derivatives,
    eval_fC,
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
from e2crit import curves, qseries, zeros
from e2crit.moebius import DomainTag, classify_domain
from tests_helpers import float_bits

PI = math.pi
SQRT3_2 = math.sqrt(3) / 2

# frozen one-dimensional solver outputs (oracle: the root finder itself;
# TestSpecialPointsToTheLastBit checks them against 40-digit roots)
B_HAT = 1.0371518450840878
B_MINUS = 0.6780065725236851
B_ZERO = 0.24104474304794885


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


def _line_eta1_g2(b):
    """(eta1, g2) at tau = 1/2 + i b to the working precision, from the
    q-series of E2 and E4 at q = -exp(-2 pi b): eta1 = (pi^2/3) E2 and
    g2 = (4 pi^4/3) E4."""
    q = -mp.exp(-2 * mp.pi * b)
    cut = mp.mpf(10) ** (-mp.mp.dps - 5)
    s1 = s3 = mp.mpf(0)
    qn, n = mp.mpf(1), 0
    while True:
        n += 1
        qn *= q
        if abs(qn) * n**4 < cut:
            break
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        s1 += sum(divisors) * qn
        s3 += sum(d**3 for d in divisors) * qn
    return mp.pi**2 / 3 * (1 - 24 * s1), 4 * mp.pi**4 / 3 * (1 + 240 * s3)


def _ulps(x, ref):
    return float(abs(mp.mpf(x) - ref) / math.ulp(float(ref)))


class TestSpecialPointsToTheLastBit:
    """The special points on Re tau = 1/2 against 40-digit roots of the same
    line equations.  The bounds are fixed from rounding: the line roots run
    to float adjacency on functions good to a few eps, and solve_tauC(1/2)
    is Newton's root of f_C, so each is within 2 ulps.  b* extrapolates
    (64 b1 - 20 b2 + b4)/45 over three Z2 roots that scatter over up to 71
    ulps with Newton's seed, which the weights enlarge by at most 85/45:
    150 ulps."""

    @pytest.fixture(scope="class")
    def refs(self):
        def half(b):
            e1, g2 = _line_eta1_g2(b)
            return e1 + mp.sqrt(g2 / 12) - 2 * mp.pi / b

        def zero(b):
            e1, g2 = _line_eta1_g2(b)
            return e1 * e1 - g2 / 12

        def minus(b):
            e1, g2 = _line_eta1_g2(b)
            return b * e1 / (2 * mp.pi) - e1 * e1 / (e1 * e1 - g2 / 12)

        with mp.workdps(40):
            return {"half": mp.findroot(half, mp.mpf("1.037")),
                    "b0": mp.findroot(zero, mp.mpf("0.241")),
                    "minus": mp.findroot(minus, mp.mpf("0.678"))}

    def test_references(self, refs):
        # b0 = 1/(4 Im tau(1/2)), and the digits ROADMAP quotes
        with mp.workdps(40):
            assert abs(refs["b0"] - 1 / (4 * refs["half"])) < mp.mpf("1e-35")
            assert mp.nstr(refs["half"], 20) == "1.0371518450840878214"
            assert mp.nstr(refs["b0"], 19) == "0.2410447430479488495"
            assert mp.nstr(refs["minus"], 19) == "0.6780065725236851167"

    def test_line_roots(self, refs):
        assert _ulps(special_tau_half().im, refs["half"]) <= 2
        assert _ulps(special_b0(), refs["b0"]) <= 2
        assert _ulps(special_tau_minus().im, refs["minus"]) <= 2

    def test_b_star_is_im_tau_half(self, refs):
        assert _ulps(solve_tauC(0.5).im, refs["half"]) <= 2
        bstar = appendix_bstar()
        assert _ulps(bstar, refs["half"]) <= 150
        assert abs(bstar - solve_tauC(0.5).im) <= 152 * math.ulp(bstar)


class TestTrace:
    def test_zero_branch_symmetric(self):
        samples = trace_curve("zero", 0.1, 0.9, 11)
        assert [s.C for s in samples] == sorted(s.C for s in samples)
        assert len(samples) == 11
        for s in samples:
            assert s.branch == "zero"
            assert s.residual < 1e-9
            assert classify_domain(s.tau, tol=1e-9) is DomainTag.F0_INTERIOR
            mirror = solve_tauC(1 - s.C)
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
        # each sample is a cold solve, bit for bit, with the residual the
        # solve's test reads
        for branch, lo, hi, steps in self.segments():
            for s in trace_curve(branch, lo, hi, steps):
                assert s.tau.z == solve_tauC(s.C).z, (branch, s.C)
                assert s.residual == abs(eval_fC(s.C, s.tau))
                assert classify_domain(s.tau, tol=1e-9) is DomainTag.F0_INTERIOR

    def test_self_intersection_checked(self, monkeypatch):
        # the samples no longer continue each other, and the check still runs
        seen = []
        monkeypatch.setattr(curves, "_check_no_self_intersection", seen.append)
        samples = trace_curve("plus", 1.2, 6.0, 9)
        assert seen == [samples]

    def test_work_bound(self, monkeypatch):
        # every sample a cold solve: one Newton step on g from the table's
        # value of tau(C*), and the residual the solve reads from one
        # (eta1, g2) evaluation.  Once the tables are built, the three
        # traces make 27 g evaluations and 27 (eta1, g2) ones, and sum f_C
        # in its own form nowhere
        segments = [("minus", -3.0, -0.5), ("zero", 0.1, 0.9), ("plus", 1.2, 6.0)]
        for branch, lo, hi in segments:
            trace_curve(branch, lo, hi, 9)
        g_calls, fc_calls, eta1_g2_calls = [], [], []
        g_parts, fc_parts, eta1_g2 = zeros._g_parts, zeros._fc_parts, zeros._eta1_g2
        monkeypatch.setattr(zeros, "_g_parts",
                            lambda *args: g_calls.append(args) or g_parts(*args))
        monkeypatch.setattr(zeros, "_fc_parts",
                            lambda *args: fc_calls.append(args) or fc_parts(*args))
        monkeypatch.setattr(zeros, "_eta1_g2",
                            lambda *args: eta1_g2_calls.append(args) or eta1_g2(*args))
        for branch, lo, hi in segments:
            trace_curve(branch, lo, hi, 9)
        assert len(g_calls) == 27
        assert not fc_calls
        assert len(eta1_g2_calls) == 27

    def test_samples_from_the_table(self, monkeypatch):
        # a sample whose C folds onto C* <= 33 starts Newton from the
        # table's value of tau(C*); past it, as within 1/32 of C = 0 or 1
        # and beyond |C| = 32, from the asymptotic seed
        segments = (("minus", -25.0, -1.2), ("zero", 0.04, 0.96), ("plus", 1.04, 28.0),
                    ("minus", -40.0, -32.5), ("zero", 0.001, 0.03), ("plus", 1.001, 1.03))
        for branch, lo, hi in segments:
            trace_curve(branch, lo, hi, 9)   # builds the tables
        seeds = []
        newton_g = zeros._newton_g
        monkeypatch.setattr(zeros, "_newton_g",
                            lambda *args: seeds.append(args[:2]) or newton_g(*args))
        for k, (branch, lo, hi) in enumerate(segments):
            seeds.clear()
            trace_curve(branch, lo, hi, 9)
            assert len(seeds) == 9
            for C_star, seed in seeds:
                if k < 3:
                    assert C_star <= 33 and seed == zeros._table_guess(C_star, DEFAULT), C_star
                else:
                    assert C_star > 33 and seed == zeros._asymptotic_seed(C_star), C_star

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
        for C in (0.0, 1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                branch_of(C)


class TestPhiSignLock:
    def test_branch_assignment(self):
        assert detect_phi_sign(solve_tauC(0.5)) == 1
        assert detect_phi_sign(solve_tauC(-2.0)) == -1
        assert detect_phi_sign(solve_tauC(3.0)) == -1

    def test_one_walk_for_both_signs(self, monkeypatch):
        # the sign is that of the smaller |Im phi| from two eval_phi calls,
        # each with its own square-root walk; detect_phi_sign walks once
        calls = []
        series = zeros._eta1_g2
        monkeypatch.setattr(zeros, "_eta1_g2", lambda *a: calls.append(a) or series(*a))
        for C in (0.3, 0.5, -0.4, -2.0, 1.3, 3.0):
            t = solve_tauC(C)
            calls.clear()
            sign = detect_phi_sign(t)
            one_walk = len(calls)
            calls.clear()
            vals = {s: abs(eval_phi(BranchState(sign=s), t).imag) for s in (1, -1)}
            assert sign == min(vals, key=vals.get)
            assert one_walk == len(calls) // 2

    def test_eta1_from_the_walk(self, monkeypatch):
        # the square-root walk's last step reads (eta1, g2) at t itself, so
        # detect_phi_sign sums no series beyond the walk's
        expect = {0.3: 1, -2.0: -1, 3.0: -1}
        taus = {C: solve_tauC(C).z for C in expect}
        sums = []
        for name in ("horner", "eta1_g2_sums", "eisenstein_sums"):
            kernel = getattr(qseries, name)
            monkeypatch.setattr(qseries, name,
                                lambda *a, _k=kernel, _n=name: sums.append(_n) or _k(*a))
        for C, sign in expect.items():
            sums.clear()
            zeros.sqrt_g2_over_12(taus[C])
            walk = list(sums)
            sums.clear()
            assert detect_phi_sign(taus[C]) == sign
            assert sums == walk == ["eta1_g2_sums"] * len(walk)

    def test_eval_phi_reads_eta1_alone(self):
        # bit for bit the value with eta1 taken from (eta1, g2, g3)
        rng = random.Random(29)
        for _ in range(200):
            t = complex(rng.uniform(-1.0, 2.0), math.exp(rng.uniform(math.log(0.05), math.log(3.0))))
            for sign in (1, -1):
                w = zeros.sqrt_g2_over_12(t)
                e1 = zeros._basic(t, DEFAULT)[0]
                assert eval_phi(BranchState(sign=sign), t) == t - 2j * PI / (e1 + sign * w)


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


def _old_hessian_detG2(sign, tau, pp=DEFAULT, branch=None):
    """hessian_detG2 as it was, with three series evaluations at tau: the
    reference for its values, errors and branch anchors."""
    from e2crit.domain import as_tau
    from e2crit.qseries import _eta1_g2
    sgn = {"plus": 1, "minus": -1, 1: 1, -1: -1}.get(sign)
    if sgn is None:
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    t = as_tau(tau)
    if abs(t - curves.RHO) < 1e-8:
        raise ExcludedPoint("both trivial critical points degenerate at e^{i pi/3}")
    e1, g2v = _eta1_g2(t, pp)
    if branch is None:
        branch = BranchState(sign=sgn, anchor=zeros.sqrt_g2_over_12(t, pp))
    else:
        branch.sign = sgn
    phi = eval_phi(branch, t, pp)
    w = branch.anchor
    return (3 * abs(g2v) / (4 * PI**4 * t.imag)) * abs(e1 + sgn * w) ** 2 * phi.imag


class TestHessianParity:
    """One (eta1, g2) evaluation gives what three gave: the same values,
    errors and branch anchors."""

    @staticmethod
    def outcome(fn, sign, t, branch):
        try:
            value = fn(sign, t, DEFAULT, branch)
        except Exception as exc:  # compared, not hidden: both sides must agree
            value = (type(exc), str(exc))
        return value, None if branch is None else (branch.sign, branch.anchor)

    def test_against_three_evaluations(self):
        rng = random.Random(4242)
        jumps = 0
        for _ in range(150):
            t = complex(rng.uniform(-1, 2), math.exp(rng.uniform(math.log(0.05), math.log(4))))
            w = zeros.sqrt_g2_over_12(t)
            for sign in ("plus", "minus"):
                # no state, a state without an anchor, and anchors near either
                # root or far from both in size, where the root jumps
                anchors = [None, w * rng.uniform(0.8, 1.2), -w * rng.uniform(0.8, 1.2),
                           w * complex(0, rng.choice((0.05, 20.0)))]
                for anchor in anchors:
                    old = self.outcome(_old_hessian_detG2, sign, t, BranchState(1, anchor))
                    assert self.outcome(hessian_detG2, sign, t, BranchState(1, anchor)) == old
                    jumps += type(old[0]) is tuple and old[0][0] is BranchJump
                assert self.outcome(hessian_detG2, sign, t, None) == self.outcome(_old_hessian_detG2, sign, t, None)
        assert jumps >= 100
        t = complex(0.5, SQRT3_2)
        for fn in (_old_hessian_detG2, hessian_detG2):
            assert self.outcome(fn, "plus", t, None)[0][0] is ExcludedPoint

    def test_branch_root_bit_for_bit(self):
        # hessian_detG2 and eval_phi read (eta1, g2, sqrt(g2/12)) through
        # one helper; without an anchor the walk's last step lands on tau
        # itself, so its (eta1, g2) are the ones read at tau, bit for bit
        rng = random.Random(29)
        for _ in range(100):
            t = complex(rng.uniform(-1, 2), math.exp(rng.uniform(math.log(0.05), math.log(4))))
            e1, g2v = qseries._eta1_g2(t, DEFAULT)
            walked = zeros.sqrt_g2_over_12(t)
            for sign in (1, -1):
                for anchor in (None, walked * rng.uniform(0.8, 1.2), -walked * rng.uniform(0.8, 1.2)):
                    w = walked if anchor is None else zeros._root_near(g2v, anchor, t)
                    phi = zeros._phi(t, e1, w, sign)
                    det = (3 * abs(g2v) / (4 * PI**4 * t.imag)) * abs(e1 + sign * w) ** 2 * phi.imag
                    branch = BranchState(sign, anchor)
                    assert float_bits(hessian_detG2(sign, t, DEFAULT, branch)) == float_bits(det)
                    assert float_bits(branch.anchor) == float_bits(w)
                    branch = BranchState(sign, anchor)
                    assert float_bits(eval_phi(branch, t)) == float_bits(phi)
                    assert float_bits(branch.anchor) == float_bits(w)


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
        # critical_points_E2(16) has raw |E2'| >= 1e-8 as the library reads
        # it.  The check sits at its rounding floor: at the tile (7,3;16,7)
        # the true |E2'| at the point is 1.11e-8 (50-digit mpmath through
        # the exact pull-back of the float), which the library reads as
        # 7.7e-10; the largest reading, 1.90e-9, is at (5,2;12,5), for a
        # true 1.28e-9.  Moving each tau(C) by up to 3 ulps in Re and by 0
        # or 3 ulps in Im (672 starts) takes the reading to 1e-8 or more at
        # 22 starts by gamma(tau) alone and at 7 after the Newton step on
        # E2' (worst 3.3e-8), and a second step leaves 7.  So any change to
        # the cold roots' last bits can cross it
        pts = critical_points_E2(16)
        assert len(pts) == 32
        for p in pts:
            assert abs(3 / PI**2 * eval_derivatives(p.tau_star)[0]) < 1e-8, p.gamma

    def test_history_independent(self):
        # each point is placed from its own tile's cold root, so the points
        # of the tiles with c <= 16 do not depend on how many are listed
        small = critical_points_E2(16)
        large = {p.gamma: p for p in critical_points_E2(64)}
        assert len(small) == 32
        for p in small:
            q = large[p.gamma]
            assert float_bits((q.tau_star.z, q.residual, q.scaled_residual)) == \
                float_bits((p.tau_star.z, p.residual, p.scaled_residual)), p.gamma

    def test_one_path(self):
        # each point is Newton on E2' itself, by (eta1', eta1''), from the
        # image of solve_tauC's root, and its raw residual reads eta1' there
        pair = lambda t: curves._eta1_prime_pair(t, DEFAULT)
        for p in critical_points_E2(32):
            g = p.gamma
            want = zeros._newton(pair, g(solve_tauC(-g.d / g.c).z), 1e-13, 60)
            assert float_bits(p.tau_star.z) == float_bits(want), g
            assert p.residual == abs(3 / PI**2 * eval_derivatives(want)[0]), g

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

    def test_inversion_and_mirror_on_cold_solves(self):
        # |C| log-uniform in [1e-2, 30], both signs: the inversion
        # tau(1/(1 - C)) = 1/(1 - tau(C)), which folds the outer branches
        # onto the middle one, and the mirror tau(1 - C) = 1 - conj tau(C),
        # each side a cold solve, to ROUNDINGS units of 2^-52 relative
        # (6.5 at most measured, at C = 0.0112, where tau(C) nears the cusp)
        ROUNDINGS = 16
        rng = random.Random(61)
        for _ in range(40):
            C = rng.choice((-1, 1)) * 10 ** rng.uniform(-2, math.log10(30))
            t = solve_tauC(C).z
            inv, mir = 1 / (1 - t), 1 - t.conjugate()
            assert abs(solve_tauC(1 / (1 - C)).z - inv) <= ROUNDINGS * 2**-52 * abs(inv), C
            assert abs(solve_tauC(1 - C).z - mir) <= ROUNDINGS * 2**-52 * abs(mir), C


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
