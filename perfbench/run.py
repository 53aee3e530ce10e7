"""e2crit benchmark.

    python3 perfbench/run.py --workload contour --seed 1 --seconds 20 --trace 0

runs one workload, checks every result and prints its metrics, the last line
being one JSON object.  With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json: set-up time (median over fresh interpreters of the CPU
time to import e2crit, generate the inputs and warm up, each scaled by a
calibration loop timed in the same interpreter), operations per
second and the median and 90th-percentile latency of a closed loop of one
client running passes of the workload, each with fresh inputs, for
--seconds (each the median over the passes of the pass's figure), and the
loop's peak RSS.  The loop's time figures are scaled to
a reference speed of the machine, measured by a calibration loop timed
between passes; the unscaled set-up times and ops_per_s are printed above
the JSON line.  With --trace 1 they are the per-layer ones, from a
fixed number of passes run once untraced and once with the tracer
installed, plus untimed probes of known limits: the largest max_c for which
critical_points_E2 completes, the low rectangles that rect_contour's
default polyline miscounts, the error against the mpmath reference, and
the per-call time of the two kernels.

Without --workload it runs every workload untraced and traced and prints a
table; --self-test checks that two traced runs with one seed do the same
work.  The exit code is 0 only if every op returned a correct result.

The library is imported from src/ beside this directory and nowhere else.
"""

import argparse
import cmath
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread: numpy's BLAS would otherwise start a thread per CPU, whose
# start-up runs alongside the import or not, as the machine's load allows
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
MIN_OPS = 100
# results audited against the reference (pointwise), and in the traced run
# of another workload
AUDIT_SAMPLE = 320
PROBE_AUDIT_SAMPLE = 40
LADDER = (16, 20, 32)
# the loop's times are scaled to the speed at which calibration_loop takes
# CAL_REF_S; it is timed every CAL_EVERY_S between passes, and each stretch
# of the loop is scaled by the median of the latest CAL_WINDOW times.  Each
# set-up probe is scaled by the median of CAL_WINDOW CPU times of the loop
CAL_REF_S = 0.5e-3
CAL_EVERY_S = 0.1
CAL_WINDOW = 5


def calibration_loop() -> float:
    """Fixed Python work with the mix of the library's inner loops (a Horner
    sum over a numpy array, complex arithmetic and exponentials, small
    tuples) that shares no code with the library.  On a shared machine the
    speed given to this process drifts by tens of percent over minutes; the
    time of this loop drifts with it, so dividing it out leaves the
    library's own speed."""
    import numpy as np

    coeffs = np.arange(65.0)
    q = complex(0.1, 0.2)
    acc = 0j
    for _ in range(6):
        for k in range(64, 0, -1):
            acc = (acc + coeffs[k]) * q
    z = complex(0.3, 0.7)
    points = []
    for k in range(1, 400):
        w = cmath.exp(2j * math.pi * z * k / 400)
        acc = acc * 0.5 + w / (1 - 0.5 * w)
        points.append((acc.real, abs(acc)))
    return sum(p[1] for p in points)


def time_calibration(clock=time.perf_counter) -> float:
    """Seconds for one calibration_loop on the clock, with the garbage
    collector held off so that a collection of the library's objects is not
    charged to it."""
    gc.disable()
    try:
        t0 = clock()
        calibration_loop()
        return clock() - t0
    finally:
        gc.enable()


def _import_library():
    """Import e2crit from the checkout's src/, or exit without a result."""
    if not (ROOT / "src" / "e2crit" / "__init__.py").is_file():
        sys.exit(f"no library source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import e2crit

    if not Path(e2crit.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"e2crit imported from {e2crit.__file__}, not from {ROOT / 'src'}")
    return e2crit


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(e2crit) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "backend": e2crit.backend_name(),
            "commit": _git_commit()}


class Raised:
    """The exception an op raised, kept in place of its result."""

    def __init__(self, exc: Exception):
        self.exc = exc


def _problem(check, result) -> str | None:
    try:
        return check(result)
    except Exception as exc:  # a check that cannot run fails the op
        return f"check raised {type(exc).__name__}: {exc}"


class Results:
    """Outcome of every op: exceptions and results that fail their check.
    Of the results of ops with an audit, a sample of audit_size, drawn
    evenly from all of them with a seeded generator, is kept for audit()."""

    def __init__(self, seed: int, audit_size: int = AUDIT_SAMPLE):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.sample = []
        self._audit_size = audit_size
        self._offered = 0
        self._rng = random.Random(f"audit:{seed}")

    def _fail(self, op, what):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{op.kind}: {what}")

    def check(self, ops, out):
        """Check the results of one pass."""
        for op, result in zip(ops, out, strict=True):
            self.attempted += 1
            if isinstance(result, Raised):
                self._fail(op, f"{type(result.exc).__name__}: {result.exc}")
                continue
            problem = _problem(op.check, result)
            if problem:
                self._fail(op, problem)
            elif op.audit is not None:
                # reservoir sampling
                if len(self.sample) < self._audit_size:
                    self.sample.append((op, result))
                else:
                    j = self._rng.randrange(self._offered + 1)
                    if j < self._audit_size:
                        self.sample[j] = (op, result)
                self._offered += 1

    def audit(self):
        for op, result in self.sample:
            problem = _problem(op.audit, result)
            if problem:
                self._fail(op, problem)
        self.sample = []


def run_passes(wl, results, first=0, passes=None, seconds=None, calibration=None):
    """Closed loop over passes first, first + 1, ... of the workload, for a
    number of passes or until the time is up and MIN_OPS ops are done.
    Each pass's inputs are made before it and its results checked after it,
    both untimed but within the time.  Returns, for each pass, its seconds,
    the same scaled, and the median and 90th-percentile latency of its ops,
    scaled.

    Given a list holding one calibration time, calibration gets another
    every CAL_EVERY_S, taken between passes, and the scaled timings are the
    raw ones times CAL_REF_S over the median of the latest CAL_WINDOW
    calibration times, so that each stretch of the run is scaled by the
    speed the machine gave it.  Without calibration they are the raw ones.

    The loop keeps one pass's latencies at a time, so its memory does not
    grow with the number of ops a faster library completes."""
    raw_seconds, pass_seconds, p50, p90 = [], [], [], []
    perf = time.perf_counter
    scale = 1.0
    count = 0
    p = first
    start = last_calibration = perf()
    while True:
        ops = wl.make_pass(p)
        p += 1
        if calibration:
            if perf() - last_calibration >= CAL_EVERY_S:
                calibration.append(time_calibration())
                last_calibration = perf()
            scale = CAL_REF_S / statistics.median(calibration[-CAL_WINDOW:])
        out = [None] * len(ops)
        latencies = [0.0] * len(ops)
        pass_start = perf()
        for i, op in enumerate(ops):
            t0 = perf()
            try:
                out[i] = op.call()
            except Exception as exc:  # a raising op is a failed op; the loop goes on
                out[i] = Raised(exc)
            latencies[i] = perf() - t0
        dt = perf() - pass_start
        count += len(ops)
        raw_seconds.append(dt)
        pass_seconds.append(dt * scale)
        deciles = statistics.quantiles(latencies, n=10)
        p50.append(deciles[4] * scale)
        p90.append(deciles[8] * scale)
        results.check(ops, out)
        if passes is not None and len(pass_seconds) >= passes:
            break
        if seconds is not None and perf() - start >= seconds and count >= MIN_OPS:
            break
    return raw_seconds, pass_seconds, p50, p90


def prepare(name: str, seed: int):
    """Generate the workload's inputs and warm up: the measured set-up."""
    import workloads

    wl = workloads.MAKERS[name](seed)
    for op in wl.warmup:
        op.call()
    return wl


def setup_probe(name: str, seed: int, c0: float, t0: float):
    """The set-up, in a fresh interpreter that started its clocks at c0
    (CPU) and t0 (wall) before importing e2crit: prints its CPU time, wall
    time and the CPU time of the calibration loop run right after it."""
    prepare(name, seed)
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    calibration = statistics.median(time_calibration(time.process_time)
                                    for _ in range(CAL_WINDOW))
    print(cpu, wall, calibration)


def setup_seconds(name: str, seed: int) -> tuple[float, float, float]:
    """Median, over fresh interpreters, of the CPU time each takes to import
    e2crit, generate the inputs and warm up, scaled by the CPU time of the
    calibration loop in the same interpreter; and the unscaled medians of
    that CPU time and of the wall time.  Timed inside the interpreter, so
    the start-up of Python itself is left out.  CPU time leaves out waits
    for a CPU and for the disk; the scaling divides out the speed the
    machine gives the process, which drifts by tens of percent over
    minutes."""
    scaled, cpu, wall = [], [], []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run([sys.executable, __file__, "--setup-probe", "--workload", name,
                                "--seed", str(seed)], check=True, capture_output=True,
                               text=True, cwd=ROOT)
        c, w, calibration = map(float, probe.stdout.split())
        scaled.append(c * CAL_REF_S / calibration)
        cpu.append(c)
        wall.append(w)
    return tuple(map(statistics.median, (scaled, cpu, wall)))


def end_to_end(name: str, seed: int, seconds: float):
    setup, setup_cpu, setup_wall = setup_seconds(name, seed)
    wl = prepare(name, seed)
    results = Results(seed)
    calibration = [time_calibration()]
    raw_seconds, pass_seconds, p50, p90 = run_passes(wl, results, seconds=seconds,
                                                     calibration=calibration)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results.audit()
    pass_ops = results.attempted / len(pass_seconds)
    print(f"passes {len(pass_seconds)}, calibration loop median "
          f"{statistics.median(calibration) * 1e3:.4f} ms over {len(calibration)} samples "
          f"(reference {CAL_REF_S * 1e3} ms)")
    print(f"unscaled setup CPU time {setup_cpu:.6g} s, wall time {setup_wall:.6g} s, "
          f"unscaled ops_per_s {pass_ops / statistics.median(raw_seconds):.6g}")
    # the median pass: a burst of load moves a few passes, not the figure;
    # so do the latencies, where it would move the 90th percentile of all ops
    return results, {"setup_s": setup, "peak_rss_mb": rss_mb,
                     "ops_per_s": pass_ops / statistics.median(pass_seconds),
                     "latency_p50_ms": statistics.median(p50) * 1e3,
                     "latency_p90_ms": statistics.median(p90) * 1e3}


def kernel_rows() -> dict:
    """Per-call time of the two series kernels at fixed sizes."""
    import numpy as np
    from e2crit import _kernels_py as k

    sigma3 = np.zeros(65)
    for d in range(1, 65):
        sigma3[d::d] += float(d) ** 3
    q = cmath.exp(2j * math.pi * complex(0.3, 0.9))
    x = cmath.exp(2j * math.pi * complex(0.13, 0.27 * 0.9))
    rows = {}
    for key, call in (("kernels.horner_n40_us", lambda: k.horner(sigma3, q, 40)),
                      ("kernels.wp_sums_n30_us", lambda: k.wp_sums(x, q, 30))):
        reps = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(1000):
                call()
            reps.append((time.perf_counter() - t0) / 1000 * 1e6)
        rows[key] = statistics.median(reps)
    return rows


def max_c_ladder(e2crit) -> int:
    """Largest max_c in LADDER for which critical_points_E2 completes; each
    failure is reported."""
    ok = 0
    for max_c in LADDER:
        try:
            e2crit.critical_points_E2(max_c)
            ok = max_c
        except e2crit.E2CritError as exc:
            print(f"critical_points_E2({max_c}) failed: {type(exc).__name__}: {exc}")
    return ok


def per_layer(e2crit, name: str, seed: int):
    """The traced run and the probes.  The untraced passes that the traced
    ones are compared with follow them in the sequence of passes."""
    import workloads
    from tracer import Tracer

    wl = prepare(name, seed)
    results = Results(seed)
    n = wl.trace_passes
    untraced = run_passes(wl, results, first=n, passes=n)[0]
    tracer = Tracer(wl.entries)
    tracer.install()
    try:
        traced = run_passes(wl, results, first=0, passes=n)[0]
    finally:
        tracer.uninstall()
    results.audit()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    metrics["curves.critical.max_c_ok"] = max_c_ladder(e2crit)
    metrics["zeros.rect_default_miscounts"] = workloads.rect_default_miscounts()
    metrics.update(kernel_rows())
    errors = wl.oracle_errors
    if not errors["direct"] + errors["pulled_back"]:
        # other workloads make no reference comparison: audit a sample of
        # one pointwise pass, untimed
        probe = workloads.pointwise(seed)
        sample = Results(seed, audit_size=PROBE_AUDIT_SAMPLE)
        run_passes(probe, sample, passes=1)
        sample.audit()
        results.failed += sample.failed
        results.problems += sample.problems
        errors = probe.oracle_errors
    metrics["qseries.oracle_err_max"] = max(errors["direct"] + errors["pulled_back"])
    metrics["qseries.oracle_err_pullback_max"] = max(errors["pulled_back"], default=0.0)
    return results, metrics


def run_one(args, spec: dict) -> int:
    c0, t0 = time.process_time(), time.perf_counter()
    e2crit = _import_library()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, c0, t0)
        return 0
    print(f"env {json.dumps(environment(e2crit))}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        results, values = per_layer(e2crit, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        results, values = end_to_end(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    for problem in results.problems:
        print(f"failed {problem}")
    print(f"ops {results.attempted} failed {results.failed} "
          f"failed_ratio {results.failed / results.attempted:.6f}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<32} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": results.failed == 0, "attempted": results.attempted,
                      "failed": results.failed, "metrics": metrics}))
    return 0 if results.failed == 0 else 1


def _child(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in its own process; (exit code, result or None,
    the lines reporting failures)."""
    proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    notes = [line for line in lines[:-1] if line.startswith(("failed ", "critical_points_E2"))]
    try:
        return proc.returncode, json.loads(lines[-1]), notes
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return proc.returncode or 1, None, notes


def run_all(args, spec: dict) -> int:
    """Every workload untraced and traced, as one table."""
    status = 0
    print(f"{'workload':<13} {'run':<7} {'metric':<32} {'value':>14} unit")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, run in ((0, "e2e"), (1, "traced")):
            code, out, notes = _child(workload, args.seed, args.seconds, trace)
            status = status or code
            head = f"{workload:<13} {run:<7}"
            for note in notes:
                print(f"{head} {note}")
            if out is None:
                print(f"{head} run failed with exit code {code}")
                continue
            print(f"{head} {'ops (failed)':<32} {out['attempted']:>14} ({out['failed']})")
            for key, m in out["metrics"].items():
                print(f"{head} {key:<32} {m['value']:>14.6g} {m['unit']}")
    return status


def self_test(args, spec: dict) -> int:
    """Two traced runs with one seed must do identical work."""
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_child(workload, args.seed, args.seconds, 1)[1] for _ in range(2)]
        if None in runs:
            print(f"{workload}: traced run failed")
            status = 1
            continue
        a, b = (r["metrics"] for r in runs)
        keys = [k for k in a if k.endswith(".calls") or k in ("kernels.terms", "zeros.contour_points")]
        differ = [k for k in keys if a[k]["value"] != b[k]["value"]]
        print(f"{workload}: {len(keys)} work counts, {'differ: ' + str(differ) if differ else 'identical'}")
        status = status or int(bool(differ))
    return status


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.self_test:
        return self_test(args, spec)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
