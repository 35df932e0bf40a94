"""Outside-in tracing of wignerbath: timing wrappers swapped in for module
attributes, one span per call, and the per-layer metrics built from them.

The program's source is never edited.  `Tracer.install` replaces every
binding of each target function in the package's loaded modules (a
function imported with `from .x import f` is bound once per importing
module) by a wrapper that records a span: name, start, end, parent and an
optional count taken from the return value.  `Tracer.restore` puts the
originals back.  Spans stay in memory until the run ends.

Only single-threaded runs are traced (the workloads use workers = 1): the
parent of a span is the innermost open span.
"""

import functools
import importlib
import sys
import time


def _elems(result):
    return {"elems": int(result.size)}


def _modes(result):
    return {"M": int(result.u.shape[0]), "L": int(result.s.shape[0])}


def _evolve_report(result):
    diag = result.diagnostics
    return {"panels": max(r["panels"] for r in diag["quadrature_report"].values()),
            "flags": int(diag["quadrature_failed"]) + int(diag["non_perturbative"])}


def _certify_report(record):
    reports = [term["fast_report"] for term in record["terms"].values()]
    return {"panels": max(r["panels"] for r in reports),
            "flags": sum(not r["converged"] for r in reports)}


# wrapped function ("module.function", named after the module defining it)
# -> function of its return value giving the span's counts, or None
TARGETS = {
    "config.parse_config": None,
    "states.make_initial_wigner": None,
    "evolution.seg_e0": _elems,
    "evolution.seg_e1": _elems,
    "evolution.window_loss_integral": None,
    "evolution.strip_gain_integral": None,
    "evolution.build_modes": _modes,
    "evolution.evolve_zeroth": None,
    "evolution.evolve": _evolve_report,
    "propagators.gauss_panels": None,
    "propagators.wightman_amp": None,
    "wigner.density_from_wigner": None,
    "wigner.wigner_from_density": None,
    "wigner.observables": None,
    "runio.write_wigner_csv": None,
    "runio.emit_plot_data": None,
    "runio.run": None,
    "oracle.oracle_diagram": None,
    "oracle.certify_instance": _certify_report,
}

KERNELS = ("evolution.seg_e0", "evolution.seg_e1",
           "evolution.window_loss_integral", "evolution.strip_gain_integral")

# per-layer metric -> unit, in the order they are reported
LAYER_UNITS = {
    "config.parse_config.s": "s",
    "states.make_initial_wigner.s": "s",
    "evolution.kernels.self_s": "s",
    "evolution.kernels.elems": "count",
    "evolution.window_loss_integral.calls": "count",
    "evolution.strip_gain_integral.calls": "count",
    "evolution.evolve.self_s": "s",
    "evolution.build_modes.s": "s",
    "evolution.build_modes.calls": "count",
    "evolution.modes.M": "count",
    "evolution.modes.L": "count",
    "evolution.evolve_zeroth.s": "s",
    "evolution.panels.max": "count",
    "evolution.flags": "count",
    "propagators.gauss_panels.calls": "count",
    "propagators.gauss_panels.s": "s",
    "propagators.wightman_amp.s": "s",
    "wigner.density_from_wigner.s": "s",
    "wigner.wigner_from_density.s": "s",
    "wigner.observables.s": "s",
    "runio.write_wigner_csv.s": "s",
    "runio.emit_plot_data.s": "s",
    "runio.run.self_s": "s",
    "runio.bytes_written": "bytes",
    "oracle.oracle_diagram.s": "s",
    "oracle.oracle_diagram.calls": "count",
    "oracle.certify_instance.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans [name, start, end, parent, counts] from wrapped calls."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans = []
        self._open = []
        self._swapped = []   # (module, attribute, original)

    def wrap(self, name, fn, counts=None):
        spans, open_, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if counts is not None:
                span[4] = counts(result)
            return result

        return functools.wraps(fn)(traced)

    def install(self, package, targets=TARGETS):
        """Swap a wrapper into every module of `package` that binds a target."""
        originals = {}
        for target in targets:
            mod_name, attr = target.rsplit(".", 1)
            originals[target] = getattr(importlib.import_module(f"{package}.{mod_name}"), attr)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for target, counts in targets.items():
            original = originals[target]
            wrapper = self.wrap(target, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._swapped.append((module, key, original))

    def restore(self):
        """Put the originals back; True when every binding is the original again."""
        for module, key, original in reversed(self._swapped):
            setattr(module, key, original)
        restored = all(getattr(module, key) is original
                       for module, key, original in self._swapped)
        self._swapped = []
        return restored

    def per_call_cost(self, calls=2000):
        """Seconds the wrapper adds to one call, measured on a no-op."""
        def noop():
            return None
        wrapped = Tracer(self.clock).wrap("noop", noop)
        start = self.clock()
        for _ in range(calls):
            noop()
        bare = self.clock() - start
        start = self.clock()
        for _ in range(calls):
            wrapped()
        return max(0.0, (self.clock() - start - bare) / calls)


def _child_time(spans):
    """Per span, the time its direct child spans cover."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def span_totals(spans):
    """Per name: total time, self time (minus child spans), calls and counts."""
    totals = {}
    child_time = _child_time(spans)
    for i, (name, start, end, parent, counts) in enumerate(spans):
        entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": []})
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["calls"] += 1
        if counts is not None:
            entry["counts"].append(counts)
    return totals


def layer_metrics(spans):
    """The per-layer metrics of one traced run that come from its spans
    (all but runio.bytes_written and trace.overhead_s)."""
    totals = span_totals(spans)
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": []}

    def get(name):
        return totals.get(name, empty)

    def counts(names, key):
        return [c[key] for name in names for c in get(name)["counts"]]

    reports = counts(["evolution.evolve", "oracle.certify_instance"], "panels")
    out = {
        "config.parse_config.s": get("config.parse_config")["s"],
        "states.make_initial_wigner.s": get("states.make_initial_wigner")["s"],
        "evolution.kernels.self_s": sum(get(k)["self_s"] for k in KERNELS),
        "evolution.kernels.elems": sum(counts(["evolution.seg_e0", "evolution.seg_e1"], "elems")),
        "evolution.window_loss_integral.calls": get("evolution.window_loss_integral")["calls"],
        "evolution.strip_gain_integral.calls": get("evolution.strip_gain_integral")["calls"],
        "evolution.evolve.self_s": get("evolution.evolve")["self_s"],
        "evolution.build_modes.s": get("evolution.build_modes")["s"],
        "evolution.build_modes.calls": get("evolution.build_modes")["calls"],
        "evolution.modes.M": max(counts(["evolution.build_modes"], "M"), default=0),
        "evolution.modes.L": max(counts(["evolution.build_modes"], "L"), default=0),
        "evolution.evolve_zeroth.s": get("evolution.evolve_zeroth")["s"],
        "evolution.panels.max": max(reports, default=0),
        "evolution.flags": sum(counts(["evolution.evolve", "oracle.certify_instance"], "flags")),
        "propagators.gauss_panels.calls": get("propagators.gauss_panels")["calls"],
        "propagators.gauss_panels.s": get("propagators.gauss_panels")["s"],
        "propagators.wightman_amp.s": get("propagators.wightman_amp")["s"],
        "wigner.density_from_wigner.s": get("wigner.density_from_wigner")["s"],
        "wigner.wigner_from_density.s": get("wigner.wigner_from_density")["s"],
        "wigner.observables.s": get("wigner.observables")["s"],
        "runio.write_wigner_csv.s": get("runio.write_wigner_csv")["s"],
        "runio.emit_plot_data.s": get("runio.emit_plot_data")["s"],
        "runio.run.self_s": get("runio.run")["self_s"],
        "oracle.oracle_diagram.s": get("oracle.oracle_diagram")["s"],
        "oracle.oracle_diagram.calls": get("oracle.oracle_diagram")["calls"],
        "oracle.certify_instance.self_s": get("oracle.certify_instance")["self_s"],
    }
    return out


def self_time_sum(spans, since):
    """Sum of the self times of the spans that start at or after `since`;
    when the spans nest, it equals the time their root spans cover."""
    child_time = _child_time(spans)
    return sum(end - start - child_time[i]
               for i, (_, start, end, _, _) in enumerate(spans) if start >= since)
