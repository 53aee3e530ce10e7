"""Command-line surface: evaluation, root solving, curve tracing, zero
counting, critical-point enumeration and the verification suites.

Output is deterministic: identical invocations produce byte-identical files.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
failure (error class on stderr), 4 requested tau(C) for C in {0, 1}.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .curves import branch_of, critical_points_E2, trace_curve
from .domain import DEFAULT, PrecisionPolicy
from .errors import E2CritError
from .premodular import _zrs2_parts, _zrs_parts, eval_Zrs, eval_Zrs2
from .qseries import (
    eval_E2,
    eval_ek,
    eval_eta1,
    eval_invariants,
    eval_weierstrass,
)
from .verify import SUITES, run_suite
from .zeros import (
    F0_CUSP_DELTA,
    F0_TOP,
    BranchState,
    _check_f0,
    _fc_parts,
    count_zeros_info,
    eval_fC,
    eval_phi,
    f0_contour,
    fc_scale,
    rect_contour,
    solve_tauC,
)

_COMPLEX_RE = re.compile(
    r"^([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"([+-](?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)?)i$"
)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' (no spaces); a bare sign before i means +-1."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"expected a+bi, got {text!r}")
    re_part = float(m.group(1))
    im_text = m.group(2)
    im_part = float(im_text if len(im_text) > 1 else im_text + "1")
    return complex(re_part, im_part)


def parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected r,s got {text!r}")
    return float(parts[0]), float(parts[1])


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _usage(message: str) -> int:
    """Report a usage error on stderr; its exit code, 2."""
    sys.stderr.write(message + "\n")
    return 2


def _policy(args) -> PrecisionPolicy:
    """The run's policy, once the settings pass their checks: eps in
    (0, 1e-6], and a truncated F0 that f0_contour admits; ValueError
    otherwise."""
    if not (0 < args.eps <= 1e-6):
        raise ValueError(f"eps must lie in (0, 1e-6], got {args.eps}")
    _check_f0(args.t_top, args.cusp_delta)
    return PrecisionPolicy(eps=args.eps)


def _emit(records: list[dict], columns: list[str], args) -> None:
    """Write records as CSV (fixed column order) or a JSON array."""
    if args.format == "json":
        payload = [{k: rec[k] for k in columns} for rec in records]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        for rec in records:
            lines.append(",".join(
                _fmt(rec[k]) if isinstance(rec[k], float) else str(rec[k])
                for k in columns))
        text = "\n".join(lines) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    """Write text to --out, or to stdout when no path is given."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

# the flag each --fn of eval and count reads beyond --tau or --region
_FN_FLAG = {"wp": "rs", "zeta": "rs", "zrs": "rs", "zrs2": "rs", "fc": "C", "ek": "k"}
# the (value, tau-derivative) pair each --fn of count walks
_COUNT_PARTS = {"zrs": _zrs_parts, "zrs2": _zrs2_parts, "fc": _fc_parts}


def _missing_flag(args) -> str | None:
    """The usage error for an --fn whose flag is absent, else None."""
    flag = _FN_FLAG.get(args.fn)
    if flag and getattr(args, flag) is None:
        return f"--{flag} is required for --fn {args.fn}"
    return None


def cmd_eval(args, pp: PrecisionPolicy) -> int:
    fn, tau = args.fn, args.tau
    missing = _missing_flag(args)
    if missing:
        return _usage(missing)
    eps = pp.eps
    if fn == "eta1":
        value, bound = eval_eta1(tau, pp), eps
    elif fn == "e2":
        value, bound = eval_E2(tau, pp), 2 * eps
    elif fn == "g2":
        value, bound = eval_invariants(tau, pp)[0], eps
    elif fn == "g3":
        value, bound = eval_invariants(tau, pp)[1], eps
    elif fn == "ek":
        value, bound = eval_ek(args.k, tau, pp), eps
    elif fn == "wp":
        value = eval_weierstrass(args.rs, tau, pp)[0]
        bound = eps * max(1.0, abs(value))
    elif fn == "zeta":
        value = eval_weierstrass(args.rs, tau, pp)[2]
        bound = eps * max(1.0, abs(value))
    elif fn == "zrs":
        value, bound = eval_Zrs(args.rs, tau, pp), 5 * eps
    elif fn == "zrs2":
        value = eval_Zrs2(args.rs, tau, pp)
        z = eval_Zrs(args.rs, tau, pp)
        bound = 20 * eps * (1 + abs(z) ** 3)
    elif fn == "fc":
        value = eval_fC(args.C, tau, pp)
        bound = 50 * eps * fc_scale(args.C, tau, pp)
    else:  # phi, the last of argparse's choices
        sign = 1 if args.sign == "plus" else -1
        value = eval_phi(BranchState(sign=sign), tau, pp)
        bound = eps * (1 + abs(value))
    rec = {"fn": fn, "re": float(value.real), "im": float(value.imag),
           "err_bound": float(bound)}
    _emit([rec], ["fn", "re", "im", "err_bound"], args)
    return 0


def cmd_find_tau(args, pp: PrecisionPolicy) -> int:
    if args.C in (0.0, 1.0):
        sys.stderr.write(f"no zero exists for C = {args.C:g}\n")
        return 4
    t = solve_tauC(args.C, pp, verify=True, t_top=args.t_top,
                   cusp_delta=args.cusp_delta)
    residual = abs(eval_fC(args.C, t, pp))
    rec = {"C": args.C, "re": t.re, "im": t.im, "residual": residual,
           "branch_sign": branch_of(args.C)}
    _emit([rec], ["C", "re", "im", "residual", "branch_sign"], args)
    return 0


def cmd_trace(args, pp: PrecisionPolicy) -> int:
    samples = trace_curve(args.branch, args.clo, args.chi, args.steps, pp)
    records = [{"C": s.C, "re_tau": s.tau.re, "im_tau": s.tau.im,
                "residual": s.residual, "branch": s.branch} for s in samples]
    _emit(records, ["C", "re_tau", "im_tau", "residual", "branch"], args)
    return 0


def cmd_count(args, pp: PrecisionPolicy) -> int:
    if args.region == "F0":
        contour = f0_contour(args.t_top, args.cusp_delta)
    else:
        try:
            re0, re1, im0, im1 = (float(v) for v in args.region.split(","))
        except ValueError:
            return _usage(f"region must be F0 or re0,re1,im0,im1, got {args.region!r}")
        contour = rect_contour(re0, re1, im0, im1)
    missing = _missing_flag(args)
    if missing:
        return _usage(missing)
    parts, arg = _COUNT_PARTS[args.fn], getattr(args, _FN_FLAG[args.fn])
    n, used = count_zeros_info(lambda t: parts(arg, t, pp), contour)
    _emit([{"count": n, "contour_points_used": used}],
          ["count", "contour_points_used"], args)
    return 0


def cmd_critical(args, pp: PrecisionPolicy) -> int:
    pts = critical_points_E2(args.max_c, pp)
    records = [{"a": p.gamma.a, "b": p.gamma.b, "c": p.gamma.c, "d": p.gamma.d,
                "re_tau": p.tau_star.re, "im_tau": p.tau_star.im,
                "residual_E2prime": p.residual, "residual_scaled": p.scaled_residual}
               for p in pts]
    _emit(records, ["a", "b", "c", "d", "re_tau", "im_tau", "residual_E2prime",
                    "residual_scaled"], args)
    return 0


def cmd_verify(args, pp: PrecisionPolicy) -> int:
    rows, ok = run_suite(args.suite, pp)
    if args.format == "json":
        payload = [{"section": sec, "check": r.name, "passed": r.passed,
                    "detail": r.detail} for sec, r in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        width = max(len(r.name) for _, r in rows)
        lines = []
        section = None
        for sec, r in rows:
            if sec != section:
                section = sec
                lines.append(f"-- {sec}")
            flag = "PASS" if r.passed else "FAIL"
            lines.append(f"  [{flag}] {r.name:<{width}}  {r.detail}")
        lines.append("suite result: " + ("PASS" if ok else "FAIL"))
        text = "\n".join(lines) + "\n"
    _write(text, args)
    if not ok:
        failed = [r.name for _, r in rows if not r.passed]
        sys.stderr.write("failed checks: " + "; ".join(failed) + "\n")
    return 0 if ok else 1


def _add_common(parser, top: bool) -> None:
    # the same options are accepted before and after the subcommand; the
    # top-level copies hold the library's defaults, and the subparser copies
    # use SUPPRESS so an absent flag keeps the earlier value
    def default(value):
        return value if top else argparse.SUPPRESS
    parser.add_argument("--eps", type=float, default=default(DEFAULT.eps),
                        help=f"absolute tolerance (default {DEFAULT.eps:g})")
    parser.add_argument("--t-top", dest="t_top", type=float, default=default(F0_TOP),
                        help=f"top edge of the truncated F0 contour (default {F0_TOP:g})")
    parser.add_argument("--cusp-delta", dest="cusp_delta", type=float, default=default(F0_CUSP_DELTA),
                        help=f"horocircle diameter of the cusp cuts (default {F0_CUSP_DELTA:g})")
    parser.add_argument("--format", choices=("csv", "json"), default=default("csv"))
    parser.add_argument("--out", default=default(None), help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e2crit",
        description="Elliptic/modular special functions and critical points "
                    "of the weight-2 Eisenstein series.")
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a special function")
    _add_common(p, top=False)
    p.add_argument("--fn", required=True,
                   choices=("eta1", "e2", "g2", "g3", "ek", "wp", "zeta",
                            "zrs", "zrs2", "fc", "phi"))
    p.add_argument("--tau", type=parse_complex, required=True, metavar="a+bi")
    p.add_argument("--rs", type=parse_pair, default=None, metavar="r,s")
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--k", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("find-tau", help="solve for the unique tau(C) in F0")
    _add_common(p, top=False)
    p.add_argument("--C", type=float, required=True)
    p.set_defaults(handler=cmd_find_tau)

    p = sub.add_parser("trace", help="trace a degeneracy curve")
    _add_common(p, top=False)
    p.add_argument("--branch", choices=("minus", "zero", "plus"), required=True)
    p.add_argument("--clo", type=float, required=True)
    p.add_argument("--chi", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("count", help="argument-principle zero count")
    _add_common(p, top=False)
    p.add_argument("--fn", choices=("zrs", "zrs2", "fc"), required=True)
    p.add_argument("--rs", type=parse_pair, default=None, metavar="r,s")
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--region", required=True,
                   help="'F0' or a rectangle re0,re1,im0,im1")
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("critical", help="enumerate critical points of E2")
    _add_common(p, top=False)
    p.add_argument("--max-c", dest="max_c", type=int, required=True)
    p.set_defaults(handler=cmd_critical)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p, top=False)
    p.add_argument("--suite", choices=tuple(sorted(SUITES)), required=True)
    p.set_defaults(handler=cmd_verify)
    return parser


# argparse reads a token that starts with '-' as an option unless it looks
# like a plain negative number (-3, -0.5).  No option here starts with a
# digit, so a token such as -1e-3, -0.5+1i or -0.25,0.5 is a value: it is
# attached to its option (--C=-1e-3) before parsing
_NEGATIVE_VALUE_RE = re.compile(r"^-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_VALUE_RE.match(arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        pp = _policy(args)
    except ValueError as exc:
        return _usage(f"configuration error: {exc}")
    try:
        return args.handler(args, pp)
    except ValueError as exc:
        return _usage(f"ValueError: {exc}")
    except (E2CritError, ArithmeticError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 3
    except OSError as exc:
        return _usage(f"cannot write output: {exc}")


if __name__ == "__main__":
    sys.exit(main())
