"""Per-layer tracing by wrapping the library's module bindings.

A layer is a module of the library.  The tracer replaces, for the length of
one traced pass, every name through which one layer calls another (the
binding in the importing module's namespace, such as `zeros._basic` or
`premodular._wp_family`) and the public `e2crit.*` names the benchmark
calls, with a wrapper that records a span.  A few functions whose calls are
counted are also wrapped in their own module, so that calls from inside
their layer are counted too.  The kernels are reached through a module
attribute (`_backend.kernels`) read on every call; every attribute bound to
the kernel module is replaced by a namespace of wrapped kernels.

Spans are kept as a stack.  A layer's self time is the time of its spans
minus the time of the spans they enclose; its calls and inclusive time
count only entries from another layer (or from the benchmark), so nested
spans of one layer are not counted twice.
"""

import sys
import time
import types
from collections import Counter

LAYERS = {
    "e2crit._kernels_py": "kernels",
    "e2crit.qseries": "qseries",
    "e2crit.moebius": "moebius",
    "e2crit.premodular": "premodular",
    "e2crit.zeros": "zeros",
    "e2crit.curves": "curves",
    "e2crit.verify": "verify",
}

# functions whose calls are counted, wherever the call comes from
COUNTED = {
    ("e2crit.qseries", "_basic"): "qseries.basic",
    ("e2crit.qseries", "_basic_direct"): "qseries.basic_direct",
    ("e2crit.qseries", "_wp_family"): "qseries.wp_family",
    ("e2crit.moebius", "reduce_to_F"): "moebius.reduce_to_F",
    ("e2crit.premodular", "eval_Zrs2"): "premodular.eval_Zrs2",
    ("e2crit.zeros", "_fc_parts"): "zeros.fc_parts",
    ("e2crit.zeros", "solve_tauC"): "zeros.solve_tauC",
    ("e2crit.zeros", "count_zeros_info"): "zeros.count_zeros_info",
}


class Tracer:
    """Collects spans and work counts while installed."""

    def __init__(self, entries=()):
        """entries: (module, name) pairs the benchmark calls through their
        own module, wrapped there as well."""
        self.own = set(COUNTED) | set(entries)
        self.stack = []
        self.calls = Counter()
        self.incl_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._restore = []

    def _wrap(self, fn, layer, key):
        stack, perf = self.stack, time.perf_counter
        calls, incl_s, self_s, counts = self.calls, self.incl_s, self.self_s, self.counts

        def traced(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            span = [layer, perf(), 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - span[1]
                stack.pop()
                self_s[layer] += dur - span[2]
                if stack:
                    stack[-1][2] += dur
                if outer:
                    calls[layer] += 1
                    incl_s[layer] += dur
            if key is not None:
                counts[key + ".calls"] += 1
            if layer == "kernels":
                counts["kernels.terms"] += args[2]
            elif key == "zeros.count_zeros_info":
                contour = args[1] if len(args) > 1 else kwargs["contour"]
                counts["zeros.contour_points"] += result[1]
                counts["zeros.bisections"] += result[1] - len(contour.points)
            return result

        return traced

    def _replace(self, namespace, name, value):
        self._restore.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, value)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "e2crit" or n.startswith("e2crit.")]
        kernels = sys.modules["e2crit._kernels_py"]
        proxy = types.SimpleNamespace(
            __name__=kernels.__name__,
            horner=self._wrap(kernels.horner, "kernels", None),
            wp_sums=self._wrap(kernels.wp_sums, "kernels", None),
        )
        for module in modules:
            for name, obj in list(vars(module).items()):
                if obj is kernels:
                    # a module the series code reaches the kernels through,
                    # such as _backend.kernels
                    self._replace(module, name, proxy)
                if not isinstance(obj, types.FunctionType) or obj.__module__ not in LAYERS:
                    continue
                own = obj.__module__ == module.__name__
                if own and (module.__name__, name) not in self.own:
                    continue
                key = COUNTED.get((obj.__module__, name))
                self._replace(module, name, self._wrap(obj, LAYERS[obj.__module__], key))

    def uninstall(self):
        while self._restore:
            namespace, name, value = self._restore.pop()
            setattr(namespace, name, value)

    def metrics(self) -> dict:
        """Per-layer calls, inclusive and self seconds, and the work counts."""
        out = {}
        for layer in LAYERS.values():
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.incl_s"] = self.incl_s[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for key in COUNTED.values():
            out[key + ".calls"] = self.counts[key + ".calls"]
        c = self.counts
        out["kernels.terms"] = c["kernels.terms"]
        out["zeros.contour_points"] = c["zeros.contour_points"]
        out["zeros.bisection_share"] = c["zeros.bisections"] / max(1, c["zeros.contour_points"])
        out["qseries.pullback_share"] = (c["moebius.reduce_to_F.calls"]
                                         / max(1, c["qseries.basic_direct.calls"]))
        return out
