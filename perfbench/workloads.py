"""The benchmark's workloads: seeded inputs, the library calls of each pass,
and the check applied to every result.

The timed loop repeats passes; pass p draws fresh inputs from (seed, p)
alone, so no input repeats between passes and a memo keyed on the inputs
does not turn a workload into a cache test.  The exceptions have no inputs
to vary: the Z2 counts at the 36 grid characteristics of
verify.triangle_grid (pass 0 only), critical_points_E2(16) (once a pass)
and the verify sections.

Every call resolves its function through `e2crit` (or `e2crit.verify`) when
it runs, so the tracer can wrap it.  Inputs are handed to the library as
plain numbers.
"""

import cmath
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import e2crit
import e2crit.verify
import e2crit.zeros
from e2crit.domain import DEFAULT

# the four triangles of the (r, s) square; Z2_{r,s} has no zero in F0 for a
# characteristic inside T0 and exactly one inside T1, T2 or T3
TRIANGLES = {
    "T0": (((0.5, 0.5), (0.5, 0.0), (0.0, 0.5)), 0),
    "T1": (((1.0, 0.0), (1.0, 0.5), (0.5, 0.5)), 1),
    "T2": (((0.5, 0.0), (1.0, 0.0), (0.5, 0.5)), 1),
    "T3": (((0.0, 0.0), (0.5, 0.0), (0.0, 0.5)), 1),
}
BRANCHES = ("minus", "zero", "plus")
POINTWISE_FUNCTIONS = ("eval_invariants", "eval_weierstrass", "eval_Zrs2", "eval_fC", "eval_E2")
POINTWISE_PER_FUNCTION = 64   # in each pass
CRITICAL_MAX_C = 16
# points per side of the timed rectangle counts and of the reference count
# they are checked against.  rect_contour's default of 24 miscounts some of
# these low rectangles (a phase step that wraps by 2 pi passes unnoticed);
# the traced run reports how many as zeros.rect_default_miscounts.
RECT_N = 48
RECT_REF_N = 144
# error ratio of the blow-up convergence check: about 100 by the parity of
# Z2, so it fails by design and is the one row a pass may fail
KNOWN_FAILING_ROW = "error ratio in [8, 12]"


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    # returns None when the result is correct, else what is wrong with it;
    # run on every result, after the pass
    check: Callable[[object], str | None]
    # the same, but too costly for every result: run on a sample of them
    audit: Callable[[object], str | None] | None = None


@dataclass
class Workload:
    make_pass: Callable[[int], list]   # the ops of pass p
    warmup: list         # run once before timing and in the set-up probe
    trace_passes: int    # passes in the traced run
    entries: list = field(default_factory=list)   # (module, name) called directly
    # audit errors against the reference, at direct and pulled-back points
    oracle_errors: dict = field(default_factory=lambda: {"direct": [], "pulled_back": []})


def _warmup(ops: list, kinds) -> list:
    return [next(op for op in ops if op.kind == kind) for kind in kinds]


def _stratified(rng: random.Random, n: int) -> list:
    """n numbers in [0, 1), one in each of n equal strata, in random order:
    every seed then covers the whole range evenly."""
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def _branch_C(branch: str, u: float) -> float:
    """Curve parameter at position u in [0, 1) of the branch's sampled range,
    clear of the excluded values 0 and 1.

    On the outer branches u < 1/2 maps to distances 0.2 to 0.8 from 0 or 1,
    where solve_tauC continues from an anchor, and u >= 1/2 to distances 0.8
    to 10, where it starts from the asymptotic seed; both log-spaced.  With
    an even number of strata every seed has as many of each."""
    if branch == "zero":
        return 0.05 + 0.9 * u
    if u < 0.5:
        d = 10 ** (math.log10(0.2) + math.log10(4) * 2 * u)
    else:
        d = 10 ** (math.log10(0.8) + math.log10(12.5) * (2 * u - 1))
    return -d if branch == "minus" else 1 + d


def _branch_Cs(rng: random.Random, counts: dict) -> list:
    """counts[branch] stratified parameters for each branch."""
    return [_branch_C(branch, u) for branch, n in counts.items()
            for u in _stratified(rng, n)]


def _segment(rng: random.Random, branch: str, u: float) -> tuple[float, float]:
    """A parameter interval inside the branch, its lower end at position u."""
    if branch == "minus":
        lo = -(10 ** u)
        return lo, lo * rng.uniform(0.2, 0.6)
    if branch == "zero":
        lo = 0.05 + 0.4 * u
        return lo, lo + rng.uniform(0.2, 0.45)
    lo = 1 + 10 ** (-0.7 + u)
    return lo, lo * rng.uniform(1.5, 4.0)


def _in_triangle(rng: random.Random, vertices, margin: float = 0.12):
    """A characteristic with every barycentric coordinate at least margin."""
    while True:
        x = rng.uniform(margin, 1 - 2 * margin)
        y = rng.uniform(margin, 1 - 2 * margin)
        if x + y <= 1 - margin:
            break
    (r0, s0), (r1, s1), (r2, s2) = vertices
    return (r0 + (r1 - r0) * x + (r2 - r0) * y, s0 + (s1 - s0) * x + (s2 - s0) * y)


def _count_is(want: int):
    def check(result):
        return None if result[0] == want else f"count {result[0]} != {want}"
    return check


def _f0_interior(t: complex) -> bool:
    return 1e-9 < t.real < 1 - 1e-9 and abs(t - 0.5) > 0.5 + 1e-9


def _tau_C_problem(C: float, tau) -> str | None:
    """None when tau solves f_C within the bound solve_tauC applies and is
    interior to F0."""
    t = complex(tau)
    residual = abs(e2crit.eval_fC(C, t))
    bound = max(e2crit.zeros.ROOT_RESIDUAL, 1e-13 * e2crit.zeros.fc_scale(C, t))
    if residual > bound:
        return f"|f_C(tau({C}))| = {residual:.2e} > {bound:.2e}"
    if not _f0_interior(t):
        return f"tau({C}) = {t} is not interior to F0"
    return None


def contour_rectangles(rng: random.Random) -> list:
    """(C, box) pairs: f_C over rectangles whose bottom edge lies at Im 0.05
    to 0.1, below the pull-back threshold."""
    out = []
    for C, u in zip(_branch_Cs(rng, {"minus": 4, "zero": 2, "plus": 4}), _stratified(rng, 10)):
        re0 = rng.uniform(-0.5, 0.3)
        out.append((C, (re0, re0 + rng.uniform(0.5, 1.0), 0.05 + 0.05 * u, rng.uniform(0.6, 1.4))))
    return out


def rect_count(C: float, box: tuple, n: int | None = None):
    """count_zeros_info of f_C over the rectangle, n points per side
    (rect_contour's default when None)."""
    contour = e2crit.rect_contour(*box) if n is None else e2crit.rect_contour(*box, n=n)
    return e2crit.count_zeros_info(lambda t: e2crit.eval_fC(C, t), contour)


def rect_default_miscounts() -> int:
    """Of the 200 rectangles of the contour workload at seeds 1 to 20, those
    whose count on rect_contour's default polyline differs from the
    reference count; a fixed sample, so the figure depends on the library
    alone."""
    return sum(rect_count(C, box)[0] != rect_count(C, box, RECT_REF_N)[0]
               for seed in range(1, 21)
               for C, box in contour_rectangles(random.Random(f"contour-rectangles:{seed}")))


# ---------------------------------------------------------------------------

def contour(seed: int) -> Workload:
    """Argument-principle counts: Z2 and f_C over the truncated F0, f_C over
    rectangles reaching down to Im 0.05.  Each pass has 12 Z2 counts in each
    triangle (in pass 0 nine of them at the grid characteristics), 6 f_C
    counts over F0 and 10 rectangle counts."""
    f0 = e2crit.f0_contour()

    def z2_op(rs, want):
        return Op("z2_f0", lambda: e2crit.count_zeros_info(
            lambda t: e2crit.eval_Zrs2(rs, t), f0), _count_is(want))

    def make_pass(p):
        rng = random.Random(f"contour:{seed}:{p}")
        ops = []
        for name, (vertices, want) in TRIANGLES.items():
            grid = e2crit.verify.triangle_grid(name) if p == 0 else []
            ops += [z2_op(rs, want) for rs in grid]
            ops += [z2_op(_in_triangle(rng, vertices), want) for _ in range(12 - len(grid))]
        for C in _branch_Cs(rng, {"minus": 2, "zero": 2, "plus": 2}):
            ops.append(Op("fc_f0", lambda C=C: e2crit.count_zeros_info(
                lambda t: e2crit.eval_fC(C, t), f0), _count_is(1)))
        for C, box in contour_rectangles(rng):
            ops.append(Op("fc_rect", lambda C=C, box=box: rect_count(C, box, RECT_N),
                          lambda result, C=C, box=box:
                              _count_is(rect_count(C, box, RECT_REF_N)[0])(result)))
        rng.shuffle(ops)
        return ops

    warmup = _warmup(make_pass(-1), ("z2_f0", "fc_f0", "fc_rect"))
    return Workload(make_pass, warmup, trace_passes=1)


def continuation(seed: int) -> Workload:
    """Cold tau(C) solves and curve segments on all three branches, and the
    critical points of E2 for c <= 16.  Each pass has 96 solves, 24
    segments and one critical_points_E2."""

    def trace_check(samples, branch, lo, hi):
        if len(samples) != 9 or samples[0].C != lo or samples[-1].C != hi:
            return f"{len(samples)} samples from C = {samples[0].C} to {samples[-1].C}"
        for s in samples:
            if s.branch != branch:
                return f"sample at C = {s.C} on branch {s.branch}"
            problem = _tau_C_problem(s.C, s.tau)
            if problem:
                return problem
        return None

    def critical_check(points):
        want = len(e2crit.enumerate_gamma02(CRITICAL_MAX_C))
        if len(points) != want:
            return f"{len(points)} critical points, {want} tiles"
        for p in points:
            residual = abs(3 / math.pi**2 * e2crit.eval_derivatives(p.tau_star)[0])
            if residual >= 1e-8:
                return f"|E2'| = {residual:.2e} at {p.tau_star}"
        if len({p.gamma for p in points}) != want:
            return "tiles repeat"
        return None

    def make_pass(p):
        rng = random.Random(f"continuation:{seed}:{p}")
        ops = []
        # the middle branch twice over: the median solve then falls inside
        # its cluster of latencies, not in a gap between clusters
        for C in _branch_Cs(rng, {"minus": 24, "zero": 48, "plus": 24}):
            ops.append(Op("solve", lambda C=C: e2crit.solve_tauC(C),
                          lambda tau, C=C: _tau_C_problem(C, tau)))
        for branch, u in [(b, u) for b in BRANCHES for u in _stratified(rng, 8)]:
            lo, hi = _segment(rng, branch, u)
            ops.append(Op("trace", lambda b=branch, lo=lo, hi=hi: e2crit.trace_curve(b, lo, hi, 9),
                          lambda samples, b=branch, lo=lo, hi=hi: trace_check(samples, b, lo, hi)))
        ops.append(Op("critical", lambda: e2crit.critical_points_E2(CRITICAL_MAX_C),
                      critical_check))
        rng.shuffle(ops)
        return ops

    warmup = _warmup(make_pass(-1), ("solve", "trace", "critical"))
    return Workload(make_pass, warmup, trace_passes=3)


def pointwise_inputs(rng: random.Random) -> list:
    """(function name, args) pairs; Re tau in [-2, 3], Im tau log-uniform in
    [0.03, 3] and stratified, so each function sees the whole range."""
    lo, hi = math.log(0.03), math.log(3.0)
    columns = []
    for fn in POINTWISE_FUNCTIONS:
        column = []
        for u in _stratified(rng, POINTWISE_PER_FUNCTION):
            tau = complex(rng.uniform(-2.0, 3.0), math.exp(lo + (hi - lo) * u))
            if fn in ("eval_weierstrass", "eval_Zrs2"):
                args = ((rng.uniform(0.05, 0.95), rng.uniform(-0.45, 0.45)), tau)
            elif fn == "eval_fC":
                args = (rng.uniform(-3.0, 4.0), tau)
            else:
                args = (tau,)
            column.append((fn, args))
        columns.append(column)
    return [call for row in zip(*columns) for call in row]


def _finite(value) -> str | None:
    values = value if isinstance(value, tuple) else (value,)
    ok = all(isinstance(v, complex) and cmath.isfinite(v) for v in values)
    return None if ok else f"not a finite complex value: {value!r}"


def pointwise(seed: int) -> Workload:
    """Independent single evaluations, 64 of each function a pass.  Every
    result must be a finite complex number; a sample of them is audited
    against the 30-digit q-series reference."""
    errors = {"direct": [], "pulled_back": []}

    def op(fn, args):
        def audit(value):
            import oracle  # here, not above: mpmath is not part of the set-up

            err = oracle.error(fn, args, value, DEFAULT.eps)
            pulled_back = args[-1].imag < DEFAULT.min_im_direct
            errors["pulled_back" if pulled_back else "direct"].append(err)
            return None if err <= oracle.TOL else f"{fn}{args}: error/scale {err:.2e}"
        return Op(fn, lambda: getattr(e2crit, fn)(*args), _finite, audit)

    def make_pass(p):
        return [op(fn, args) for fn, args in
                pointwise_inputs(random.Random(f"pointwise:{seed}:{p}"))]

    warmup = make_pass(-1)[:len(POINTWISE_FUNCTIONS)]
    return Workload(make_pass, warmup, trace_passes=20, oracle_errors=errors)


_EXTRA_SECTIONS = {"modular": "modular_checks", "premodular": "premodular_checks",
                   "curves-extra": "curve_extra_checks"}


def verify_all(seed: int) -> Workload:
    """The sections of run_suite("all"), one op each, in a seeded order."""
    names = [f"criterion_{k}" if isinstance(k, int) else _EXTRA_SECTIONS[k]
             for k in e2crit.verify.SUITES["all"]]

    def check(rows):
        bad = [r.name for r in rows if not r.passed and r.name != KNOWN_FAILING_ROW]
        return f"failed rows: {bad}" if bad else None

    def section(name):
        return Op(name, lambda: getattr(e2crit.verify, name)(), check)

    def make_pass(p):
        ops = [section(n) for n in names]
        random.Random(f"verify_all:{seed}:{p}").shuffle(ops)
        return ops

    return Workload(make_pass, [section(names[0])], trace_passes=1,
                    entries=[("e2crit.verify", n) for n in names])


MAKERS = {"contour": contour, "continuation": continuation,
          "pointwise": pointwise, "verify_all": verify_all}
