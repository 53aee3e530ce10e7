"""Numbered verification suites.

Each criterion function returns a list of CheckResult; the CLI `verify`
command and tests/test_acceptance.py both consume them.  Tolerances are
fixed here, not configurable: they are part of the package's contract.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from .curves import (
    RHO,
    SQRT3_2,
    appendix_bstar,
    critical_points_E2,
    detect_phi_sign,
    hessian_detG2,
    special_b0,
    special_tau_half,
    special_tau_minus,
    special_tau_minus_C,
    trace_curve,
    verify_symmetries,
)
from .domain import DEFAULT, PrecisionPolicy
from .errors import E2CritError
from .moebius import (
    S_INVERT,
    MoebiusMap,
    enumerate_gamma02,
    reduce_to_F0,
    transform_char,
)
from .premodular import _zrs2_parts, blowup_FCs, cusp_value, eval_Zrs, eval_Zrs2
from .qseries import (
    PI,
    TWO_PI_I,
    eval_E2,
    eval_derivatives,
    eval_ek,
    eval_eta1,
    eval_eta2,
    eval_invariants,
    eval_weierstrass,
    lattice_point,
    transform_quasi,
)
from .zeros import BranchState, _fc_parts, count_zeros, eval_fC, f0_contour, solve_tauC


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, value, bound) -> CheckResult:
    return CheckResult(name, value <= bound, f"{value:.3e} (bound {bound:.0e})")


def _interval(name, value, lo, hi) -> CheckResult:
    return CheckResult(name, lo < value < hi, f"{value!r} in ({lo:.6f}, {hi:.6f})")


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _geomspace(lo, hi, n):
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def _random_taus(rng, n, im_lo=0.4, im_hi=5.0):
    return [complex(rng.uniform(-1.0, 2.0), rng.uniform(im_lo, im_hi)) for _ in range(n)]


# the generator words T, T^-1 and S as integer tuples (a, b, c, d), and
# the word lengths drawn
_WORDS = ((1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0))
_WORD_LENGTHS = range(1, 9)


def _random_sl2z(rng, n, max_entry=10):
    """Deterministic sample of n distinct SL(2,Z) matrices with entries bounded
    by max_entry, built from random generator words.  A word is multiplied
    out in plain integers and signed as MoebiusMap signs it once, at the
    end: the product of the signed factors differs from it by sign alone.
    Each draw is a choice, which calls rng._randbelow as randrange(1, 9)
    and randrange(0, 3) do, so the sample and rng's state after it are
    those of the randrange draws, at less cost a draw."""
    out = []
    seen = set()
    choice = rng.choice
    while len(out) < n:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(choice(_WORD_LENGTHS)):
            wa, wb, wc, wd = choice(_WORDS)
            a, b, c, d = a * wa + b * wc, a * wb + b * wd, c * wa + d * wc, c * wb + d * wd
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        key = (a, b, c, d)
        if max(abs(a), abs(b), abs(c), abs(d)) <= max_entry and key not in seen:
            seen.add(key)
            out.append(MoebiusMap(a, b, c, d))
    return out


# ---------------------------------------------------------------------------

def criterion_1(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    """Exact special values on the imaginary axis, at the corner point
    e^{i pi/3} and on the rhombus line."""
    half_half = complex(0.5, 0.5)
    return [
        _check("eta1(i) = pi", abs(eval_eta1(1j, pp) - PI), 1e-10),
        _check("eta1(e^{i pi/3}) = 2 pi/sqrt(3)", abs(eval_eta1(RHO, pp) - 2 * PI / math.sqrt(3)), 1e-10),
        _check("eta1(1/2 + i/2) = 2 pi", abs(eval_eta1(half_half, pp) - 2 * PI), 1e-10),
        _check("g2(e^{i pi/3}) = 0", abs(eval_invariants(RHO, pp)[0]), 1e-8),
        _check("e1(1/2 + i/2) = 0", abs(eval_ek(1, half_half, pp)), 1e-8),
    ]


def criterion_2(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    """Identity suite over 200 random tau with Im in [0.4, 5]."""
    rng = random.Random(20260809)
    # each tau is evaluated by several functions: as LatticePoints they
    # share one pull-back and one series sum per floor
    taus = [lattice_point(t) for t in _random_taus(rng, 200)]
    tol = 1e-9

    # independent oracle: term-by-term derivative of the eta1 q-series, the
    # weights k sigma_1(k) on a running power of q
    weights = [k * sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, 64)]

    def eta1_prime_series(t):
        q = cmath.exp(TWO_PI_I * t)
        total = 0j
        qk = 1
        for w in weights:
            qk *= q
            total += w * qk
        return -8 * PI**2 * TWO_PI_I * total

    worst_leg = 0.0
    worst_de = 0.0
    worst_d1 = 0.0
    for t in taus:
        zeta_half = eval_weierstrass((0.0, 0.5), t, pp)[2]
        worst_leg = max(worst_leg, abs(eval_eta2(t, pp) - 2 * zeta_half))
        r, s = rng.uniform(0.1, 0.42), rng.uniform(0.1, 0.42)
        wp, wpp, _ = eval_weierstrass((r, s), t, pp)
        g2v, g3v = eval_invariants(t, pp)
        worst_de = max(worst_de, abs(wpp**2 - (4 * wp**3 - g2v * wp - g3v)))
        worst_d1 = max(worst_d1, abs(eta1_prime_series(t) - eval_derivatives(t, pp)[0]))

    worst_e2 = 0.0
    for gam in _random_sl2z(rng, 50):
        t = taus[rng.randrange(0, len(taus))]
        mu = gam.mu(t)
        lhs = eval_E2(gam(t), pp) / mu**2
        rhs = eval_E2(t, pp) - 6j * gam.c / (PI * mu)
        worst_e2 = max(worst_e2, abs(lhs - rhs))

    worst_p1 = 0.0
    worst_p2 = 0.0
    for gam in _random_sl2z(rng, 25):
        t = taus[rng.randrange(0, len(taus))]
        r, s = rng.uniform(0.08, 0.45), rng.uniform(0.08, 0.45)
        z2 = eval_Zrs2((r, s), t, pp)
        worst_p1 = max(
            worst_p1,
            abs(eval_Zrs2((r + 1, s), t, pp) - z2),
            abs(eval_Zrs2((-r, -s), t, pp) + z2),
            abs(eval_Zrs((r + 1, s), t, pp) - eval_Zrs((r, s), t, pp)),
        )
        rs2 = transform_char(gam, (r, s))
        mu = gam.mu(t)
        worst_p2 = max(
            worst_p2,
            abs(eval_Zrs(rs2, gam(t), pp) / mu - eval_Zrs((r, s), t, pp)),
            abs(eval_Zrs2(rs2, gam(t), pp) / mu**3 - z2),
        )

    return [
        _check("Legendre vs 2 zeta(tau/2)", worst_leg, tol),
        _check("wp'^2 = 4 wp^3 - g2 wp - g3", worst_de, tol),
        _check("eta1' identity vs differentiated series", worst_d1, tol),
        _check("E2 transformation law", worst_e2, tol),
        _check("Z, Z2 translation/parity", worst_p1, tol),
        _check("Z, Z2 modular property", worst_p2, tol),
    ]


_TRIANGLE_VERTICES = {
    "T0": ((0.5, 0.5), (0.5, 0.0), (0.0, 0.5)),
    "T1": ((1.0, 0.0), (1.0, 0.5), (0.5, 0.5)),
    "T2": ((0.5, 0.0), (1.0, 0.0), (0.5, 0.5)),
    "T3": ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5)),
}
_BARY_GRID = (
    (0.25, 0.25), (0.5, 0.25), (0.25, 0.5),
    (0.6, 0.2), (0.2, 0.6), (0.4, 0.4),
    (0.15, 0.15), (0.7, 0.15), (0.15, 0.7),
)


def triangle_grid(name: str):
    """Nine interior characteristics of the named triangle."""
    v0, v1, v2 = _TRIANGLE_VERTICES[name]
    pts = []
    for x, y in _BARY_GRID:
        pts.append((v0[0] + (v1[0] - v0[0]) * x + (v2[0] - v0[0]) * y,
                    v0[1] + (v1[1] - v0[1]) * x + (v2[1] - v0[1]) * y))
    return pts


def criterion_3(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    """Argument-principle zero counts over the truncated F0, each walk
    gated by the tau-derivative."""
    out = []
    contour = f0_contour(6.0, 0.08)
    n = count_zeros(lambda t: _zrs2_parts((1 / 3, 1 / 3), t, pp), contour)
    out.append(CheckResult("count Z2_(1/3,1/3) = 0", n == 0, f"count = {n}"))
    expected = {"T0": 0, "T1": 1, "T2": 1, "T3": 1}
    for name, want in expected.items():
        counts = [count_zeros(lambda t, rs=rs: _zrs2_parts(rs, t, pp), contour)
                  for rs in triangle_grid(name)]
        ok = all(c == want for c in counts)
        out.append(CheckResult(f"grid counts in {name} all {want}", ok, f"{counts}"))
    for C in (-2.0, 0.25, 0.5, 0.75, 2.0):
        n = count_zeros(lambda t: _fc_parts(C, t, pp), contour)
        out.append(CheckResult(f"count f_{C} = 1", n == 1, f"count = {n}"))
    # f_0 and f_1 vanish at a cusp like exp(-2 pi / delta): the widest
    # admissible horocircle cut keeps |f| above the boundary-zero floor
    wide = f0_contour(6.0, 0.2)
    for C in (0.0, 1.0):
        n = count_zeros(lambda t: _fc_parts(C, t, pp), wide)
        out.append(CheckResult(f"count f_{C} = 0", n == 0, f"count = {n}"))
    return out


def criterion_4(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    """Cusp asymptotics at i*infinity against the closed forms."""
    out = []
    # finite limit for s in (0, 1/2): q-corrections at Im = 8 sit near 1e-4
    # relative, so the limit is recovered by one x-elimination step between
    # heights 8 and 9 (x = e^{2 pi i (r + s tau)})
    r, s = 0.3, 0.2
    limit = cusp_value((r, s), "infinity").value
    expect = 4j * PI**3 * 0.2 * 0.8 * (-0.6)
    out.append(_check("cusp-inf closed form", abs(limit - expect), 1e-12))
    v8 = eval_Zrs2((r, s), 8j, pp)
    v9 = eval_Zrs2((r, s), 9j, pp)
    x8 = math.exp(-2 * PI * s * 8)
    x9 = math.exp(-2 * PI * s * 9)
    extrap = (v8 * x9 - v9 * x8) / (x9 - x8)
    out.append(_check("Z2(iT) -> limit (extrapolated at T=8,9)",
                      abs(extrap - limit) / abs(limit), 1e-6))
    out.append(_check("Z2(8i) near limit (single point)",
                      abs(v8 - limit) / abs(limit), 5e-4))
    # leading coefficients: heights chosen so that the next-order term and
    # the double-precision cancellation floor both sit below 1e-6 relative
    c_q = cusp_value((0.3, 0.0), "infinity")
    got = eval_Zrs2((0.3, 0.0), 3j, pp) / cmath.exp(TWO_PI_I * 3j)
    out.append(_check("s = 0 leading q-coefficient",
                      abs(got - c_q.value) / abs(c_q.value), 1e-6))
    c_h = cusp_value((0.3, 0.5), "infinity")
    got = eval_Zrs2((0.3, 0.5), 5j, pp) / cmath.exp(TWO_PI_I * 2.5j)
    out.append(_check("s = 1/2 leading q^{1/2}-coefficient",
                      abs(got - c_h.value) / abs(c_h.value), 1e-6))
    return out


def criterion_5(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    """Interval bounds for the special points on Re tau = 1/2."""
    b_hat = special_tau_half(pp).im
    b0 = special_b0(pp)
    b_minus = special_tau_minus(pp).im
    bstar = appendix_bstar(pp)
    return [
        _interval("Im tau(1/2) in (sqrt3/2, 6/5)", b_hat, SQRT3_2, 1.2),
        _interval("b0 in (5/24, 1/(2 sqrt3))", b0, 5 / 24, 1 / (2 * math.sqrt(3))),
        _check("b0 = 1/(4 Im tau(1/2))", abs(b0 - 1 / (4 * b_hat)), 1e-10),
        _interval("Im tau_- in (1/2, sqrt3/2)", b_minus, 0.5, SQRT3_2),
        _interval("b* in (sqrt3/2, 6/5)", bstar, SQRT3_2, 1.2),
        _check("b* near Im tau(1/2)", abs(bstar - b_hat), 0.05),
    ]


def criterion_6(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    """Reflection and inversion identities over 30 paired samples, each side
    a cold solve.  Cold solves fold C onto C* >= 2 by these identities, so
    the residuals measure the rounding of the map back to C (bound 1e-8);
    tests/test_oracle.py checks the identities against mpmath roots."""
    samples = []
    samples += trace_curve("zero", 0.08, 0.92, 10, pp)
    samples += trace_curve("minus", -8.0, -0.3, 10, pp)
    samples += trace_curve("plus", 1.3, 9.0, 10, pp)
    rep = verify_symmetries(samples, pp)
    return [
        _check("tau(1-C) = 1 - conj tau(C)", rep.max_reflection, 1e-8),
        _check("tau(1/(1-C)) = 1/(1 - tau(C))", rep.max_inversion, 1e-8),
        CheckResult("30 pairs per identity", rep.n_pairs == 30, f"{rep.n_pairs} pairs"),
    ]


def criterion_7(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    """Critical-point enumeration over tiles with c <= 8."""
    pts = critical_points_E2(8, pp)
    out = [CheckResult(f"{len(pts)} tiles enumerated", len(pts) > 0, f"max_c = 8")]
    worst = max(p.residual for p in pts)
    out.append(_check("max |E2'| over the set", worst, 1e-8))
    special = [p for p in pts if (p.gamma.a, p.gamma.b, p.gamma.c, p.gamma.d) == (1, -1, 2, -1)]
    ok = bool(special)
    detail = "matrix (1,-1;2,-1) missing"
    if special:
        p = special[0]
        ok = abs(p.tau_star.re - 0.5) < 1e-9 and 5 / 24 < p.tau_star.im < 1 / (2 * math.sqrt(3))
        detail = f"tau* = {p.tau_star.re:.6f} + {p.tau_star.im:.6f}i"
    out.append(CheckResult("tile (1,-1;2,-1) point on Re = 1/2 in (5/24, 1/(2 sqrt3))", ok, detail))
    dmin = min(abs(p.tau_star.z - q.tau_star.z)
               for i, p in enumerate(pts) for q in pts[i + 1:])
    out.append(CheckResult("points pairwise distinct", dmin > 1e-6, f"min dist {dmin:.3e}"))
    contour = f0_contour(6.0, 0.08)
    counts = []
    for gam in enumerate_gamma02(8):
        C = -gam.d / gam.c
        counts.append(count_zeros(lambda t: _fc_parts(C, t, pp), contour))
    out.append(CheckResult("f_{-d/c} count over F0 is 1 per tile",
                           all(c == 1 for c in counts), f"{counts}"))
    return out


def criterion_8(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    """Blow-up convergence of F_{1/2,s} to f_{1/2} at tau = 1/2 + i.

    With w = tau - C the characteristic (-Cs, s) gives z = s w, so
    Z = zeta(s w) - s (eta2 - C eta1) holds only odd powers of s, and so
    does Z2 = Z^3 - 3 wp Z - wp' (wp is even in z, wp' odd): this is the
    parity Z2_{-r,-s} = -Z2_{r,s}.  Hence F_{C,s} = (4 w / s) Z2_{-Cs,s} is
    even in s and F_{C,s} - f_C = a(tau) s^2 + O(s^4).  The error ratio
    between s = 1e-3 and s = 1e-4 is therefore 100 (1 + O(s^2)), and the
    window is (1e-3 / 1e-4)^2 x [0.8, 1.2] = [80, 120].  A ratio near 10
    (linear decay) would mean a parity fault; one near 1e4 would mean a
    vanishing s^2 term.
    """
    tau = complex(0.5, 1.0)
    f = eval_fC(0.5, tau, pp)
    err3 = abs(blowup_FCs(0.5, 1e-3, tau, pp) - f)
    err4 = abs(blowup_FCs(0.5, 1e-4, tau, pp) - f)
    ratio = err3 / err4
    return [
        CheckResult("errors decrease with s", err4 < err3 < 1e-2,
                    f"err(1e-3) = {err3:.3e}, err(1e-4) = {err4:.3e}"),
        CheckResult("error ratio in [80, 120] (quadratic decay)", 80.0 <= ratio <= 120.0,
                    f"measured ratio {ratio:.2f}"),
    ]


def criterion_9(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    """Signed Hessian determinant vanishes on the traced curves and changes
    sign across them."""
    out = []
    windows = {"minus": (-20.0, -0.35), "zero": (0.1, 0.9), "plus": (1.35, 20.0)}
    for branch, (lo, hi) in windows.items():
        samples = trace_curve(branch, lo, hi, 30, pp)
        sign = detect_phi_sign(samples[0].tau, pp)
        state = BranchState(sign=sign)
        worst_det = 0.0
        flips_ok = True
        for s in samples:
            # the determinant and g2 read one series sum at the sample
            t = lattice_point(s.tau.z)
            det = hessian_detG2(sign, t, pp, branch=state)
            scale = (1 + abs(t)) * 3 * abs(eval_invariants(t, pp)[0]) / (4 * PI**4 * t.imag)
            worst_det = max(worst_det, abs(det) / scale)
            up = hessian_detG2(sign, t + 0.01j, pp, branch=BranchState(sign, state.anchor))
            dn = hessian_detG2(sign, t - 0.01j, pp, branch=BranchState(sign, state.anchor))
            if up * dn >= 0:
                flips_ok = False
        out.append(_check(f"{branch}: det vanishes on curve (scaled)", worst_det, 1e-8))
        out.append(CheckResult(f"{branch}: straddle sign flip at +-0.01i", flips_ok,
                               f"phi sign {sign:+d}"))
    det_p = hessian_detG2("plus", 2j, pp)
    det_m = hessian_detG2("minus", 2j, pp)
    out.append(CheckResult("both determinants nonzero at 2i",
                           abs(det_p) > 1e-4 and abs(det_m) > 1e-4,
                           f"{det_p:.3e}, {det_m:.3e}"))
    return out


def criterion_10(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    """Asymptotic direction of the curve ends."""
    out = []
    ims = {}
    for C, target in ((1e3, 0.25), (1e4, 0.25), (-1e3, 0.75), (-1e4, 0.75)):
        t = solve_tauC(C, pp)
        ims[C] = t.im
        out.append(_check(f"Re tau({C:g}) near {target}", abs(t.re - target), 0.02))
    out.append(CheckResult("Im increasing toward the cusp at infinity",
                           ims[1e4] > ims[1e3] and ims[-1e4] > ims[-1e3],
                           f"{ims[1e3]:.4f} -> {ims[1e4]:.4f}"))
    return out


# ---------------------------------------------------------------------------
# extra library-level suites (not numbered acceptance criteria)

def modular_checks(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    rng = random.Random(7)
    worst_assoc = 0.0
    for _ in range(20):
        g1 = _random_sl2z(rng, 1, max_entry=50)[0]
        g2 = _random_sl2z(rng, 1, max_entry=50)[0]
        t = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        worst_assoc = max(worst_assoc, abs((g1 @ g2)(t) - g1(g2(t))))
    worst_rt = 0.0
    for _ in range(200):
        t = complex(rng.uniform(-2, 2), rng.uniform(0.05, 10.0))
        t0, gam = reduce_to_F0(t)
        worst_rt = max(worst_rt, abs(gam(t0.z) - t))
    tiling_ok = True
    for gam in enumerate_gamma02(6):
        for p in (complex(0.3, 0.9), complex(0.5, 1.3), complex(0.77, 1.1)):
            _, owner = reduce_to_F0(gam(p))
            if owner != gam:
                tiling_ok = False
    worst_tq = 0.0
    for gam in _random_sl2z(rng, 30):
        t = complex(rng.uniform(-1, 2), rng.uniform(0.4, 5.0))
        e1_t, g2_t = transform_quasi(gam, t, pp)
        mu = abs(gam.mu(t))
        worst_tq = max(worst_tq,
                       abs(e1_t - eval_eta1(gam(t), pp)) / (10 * pp.eps * (1 + mu**4)),
                       abs(g2_t - eval_invariants(gam(t), pp)[0]) / (10 * pp.eps * (1 + mu**4)))
    t = complex(0.3, 1.3)
    eta_s = transform_quasi(S_INVERT, t, pp)[0]
    return [
        _check("group action associativity", worst_assoc, 1e-13),
        _check("F0 reduction round trip", worst_rt, 1e-12),
        CheckResult("tiling ownership (c <= 6)", tiling_ok, "interior samples"),
        _check("transform_quasi vs direct (scaled)", worst_tq, 1.0),
        _check("eta1(-1/tau) = tau eta2(tau)", abs(eta_s - t * eval_eta2(t, pp)), 1e-9),
    ]


def premodular_checks(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    rng = random.Random(11)
    contour_pts = []
    heights = _geomspace(0.15, 6.0, 12)
    contour_pts += [complex(0.0, h) for h in heights]
    contour_pts += [complex(1.0, h) for h in heights]
    contour_pts += [0.5 + 0.5 * cmath.exp(1j * th) for th in _linspace(0.3, PI - 0.3, 12)]
    # each point is evaluated for 20 characteristics: one pull-back each
    contour_pts = [lattice_point(p) for p in contour_pts]
    worst = math.inf
    for _ in range(20):
        while True:
            r = rng.uniform(0.0, 1.0)
            s = rng.uniform(0.0, 0.5)
            if min(abs(2 * r - round(2 * r)), abs(2 * s - round(2 * s))) > 0.04:
                break
        for p in contour_pts:
            worst = min(worst, abs(eval_Zrs2((r, s), p, pp)))
    line_ok = 0.0
    for s in (0.1, 0.25, 0.4):
        r = (2 - s) / 2
        for t in (complex(0.3, 1.1), complex(0.62, 0.88)):
            lhs = eval_Zrs2((r, s), t, pp).conjugate()
            rhs = -eval_Zrs2((r, s), 1 - t.conjugate(), pp)
            line_ok = max(line_ok, abs(lhs - rhs))
    return [
        CheckResult("Z2 nonzero on boundary of F0", worst > 1e-6, f"min |Z2| = {worst:.3e}"),
        _check("conjugation symmetry on the 2r+s=2 line", line_ok, 50 * pp.eps * 100),
    ]


def curve_extra_checks(pp: PrecisionPolicy = DEFAULT) -> list[CheckResult]:
    out = []
    b0 = special_b0(pp)
    grid_lo = _linspace(0.05, b0 - 0.01, 20)
    grid_hi = _linspace(b0 + 0.01, 3.0, 20)

    def d_eta1_db(b):
        e1p = eval_derivatives(complex(0.5, b), pp)[0]
        return (1j * e1p).real

    inc_ok = all(d_eta1_db(b) > 0 for b in grid_lo)
    dec_ok = all(d_eta1_db(b) < 0 for b in grid_hi)
    out.append(CheckResult("eta1 increasing below b0, decreasing above", inc_ok and dec_ok,
                           f"b0 = {b0:.12f}"))
    for branch, lo, hi in (("minus", -6.0, -0.4), ("plus", 1.4, 7.0)):
        samples = trace_curve(branch, lo, hi, 12, pp)
        ray_ok = all(abs(s.tau.re - 0.5) > 1e-6 or s.tau.im < SQRT3_2 for s in samples)
        out.append(CheckResult(f"{branch} avoids the ray Re = 1/2, Im >= sqrt3/2",
                               ray_ok, f"{len(samples)} samples"))
    # 1/(1 - tau_-) must lie on the middle curve: it solves f_C for the C
    # paired with tau_- under the inversion identity
    tau_m, c_minus = special_tau_minus_C(pp)
    t_link = 1 / (1 - tau_m.z)
    c_image = 1 / (1 - c_minus)
    out.append(_check("1/(1 - tau_-) lies on the middle curve",
                      abs(solve_tauC(c_image, pp).z - t_link), 1e-8))
    return out


CRITERIA = {
    1: ("special values", criterion_1),
    2: ("identity suite", criterion_2),
    3: ("zero-count table", criterion_3),
    4: ("cusp asymptotics", criterion_4),
    5: ("interval bounds", criterion_5),
    6: ("symmetry residuals", criterion_6),
    7: ("critical-point enumeration", criterion_7),
    8: ("blow-up convergence", criterion_8),
    9: ("degeneracy-curve identity", criterion_9),
    10: ("asymptotic direction", criterion_10),
}

SUITES = {
    "functions": [1, 2, 4, 8],
    "modular": ["modular"],
    "premodular": [3, "premodular"],
    "curves": [6, 9, 10, "curves-extra"],
    "special": [5, 7],
    "all": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, "modular", "premodular", "curves-extra"],
}

_EXTRA = {
    "modular": ("modular action", modular_checks),
    "premodular": ("premodular properties", premodular_checks),
    "curves-extra": ("curve geometry", curve_extra_checks),
}


def run_suite(name: str, pp: PrecisionPolicy = DEFAULT):
    """Run a named suite; returns (rows, all_passed) where rows are
    (section, CheckResult) pairs."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    rows = []
    ok = True
    for key in SUITES[name]:
        title, fn = CRITERIA[key] if isinstance(key, int) else _EXTRA[key]
        label = f"criterion {key}: {title}" if isinstance(key, int) else title
        try:
            results = fn(pp)
        except (E2CritError, ValueError, ArithmeticError) as exc:
            results = [CheckResult("execution", False, f"{type(exc).__name__}: {exc}")]
        for res in results:
            rows.append((label, res))
            ok = ok and res.passed
    return rows, ok
