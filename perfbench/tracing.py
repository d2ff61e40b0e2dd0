"""Span tracer behind the benchmark's per-layer metrics.

The tracer replaces every public function of each `softiga` module with
a timing wrapper, in every module namespace that imported it, and puts
the originals back afterwards; nothing under `src/` changes. Each
wrapped call becomes a span with its parent's id, kept in memory until
the benchmark ends. The two functions called once per quadrature point
or face are aggregated into a call count and times instead, so the
trace stays small. A span's self time is its duration minus the
durations of the calls it made, so the self times of all layers add up
to the time spent inside `cli.main`.
"""

import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("splines", "spaces", "assembly", "eigensolve", "tensor",
          "analytic", "spectral_analysis", "cli")
HOT = ("splines.eval_basis", "splines.pth_derivative_jump")
SPACE_BUILDS = ("spaces.build_of_space", "spaces.build_standard_space")


def _order(matrix):
    return getattr(matrix, "n", None) or len(matrix)


# Facts recorded on the spans of a few functions, taken from their
# bound arguments and result.
_OBSERVERS = {
    "assembly.build_soft_system":
        lambda a, r: {"key": (a["p"], a["N"], a["flavor"])},
    "eigensolve.generalized_eig": lambda a, r: {"order": _order(a["A"])},
    "tensor.kron_sum_spectrum": lambda a, r: {"entries": len(r.values)},
    "tensor.exact_spectrum":
        lambda a, r: {"entries": len(r.values), "d": a["d"]},
    "cli.main": lambda a, r: {"exit": r},
}


@dataclass
class Span:
    id: int
    parent: object  # id of the enclosing span, None for a root
    name: str  # "<layer>.<function>"
    start: float
    end: float
    self_s: float
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".")[0]


@dataclass
class PassTrace:
    """Spans and hot-function aggregates of one traced pass."""

    spans: list = field(default_factory=list)
    # name -> [calls, total seconds, self seconds]
    hot: dict = field(default_factory=lambda: defaultdict(
        lambda: [0, 0.0, 0.0]))


class Tracer:
    """Installs timing wrappers around the public `softiga` functions."""

    def __init__(self):
        self.trace = PassTrace()
        self._stack = []  # per active call: [child seconds, span id]
        self._next_id = 0
        self._patches = []

    def install(self):
        modules = [sys.modules[f"softiga.{layer}"] for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for module in [sys.modules["softiga"], *modules]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self):
        for module, name, obj in reversed(self._patches):
            setattr(module, name, obj)
        self._patches = []

    def take(self):
        """Return the trace recorded since the last call and start anew."""
        trace, self.trace = self.trace, PassTrace()
        return trace

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        hot = name in HOT
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if hot:
                span_id = parent
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                if hot:
                    agg = self.trace.hot[name]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += own
                else:
                    info = {}
                    if error is not None:
                        info["error"] = type(error).__name__
                    elif observe is not None:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        info = observe(bound.arguments, result)
                    self.trace.spans.append(Span(span_id, parent, name,
                                                 start, end, own, info))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def _useful_ratio(spans):
    """Continuum reference entries a rank-paired report compares, over
    the entries `exact_spectrum` built.

    A report compares one reference value per discrete eigenvalue: the
    order n1 of the last 1D solve of the same command, to the power d.
    """
    parent = {s.id: s.parent for s in spans}

    def root(span_id):
        while parent.get(span_id) is not None:
            span_id = parent[span_id]
        return span_id

    solves = defaultdict(list)
    for s in spans:
        if s.name == "eigensolve.generalized_eig" and "order" in s.info:
            solves[root(s.id)].append((s.start, s.info["order"]))
    built = used = 0
    for s in spans:
        if s.name != "tensor.exact_spectrum" or "entries" not in s.info:
            continue
        before = [o for t, o in sorted(solves[root(s.id)]) if t < s.start]
        wanted = before[-1] ** s.info["d"] if before else 0
        built += s.info["entries"]
        used += min(wanted, s.info["entries"])
    # Nothing built means nothing wasted.
    return used / built if built else 1.0


def layer_metrics(trace):
    """Per-layer metrics of one traced pass, keyed by metric name."""
    spans, hot = trace.spans, trace.hot
    self_s = defaultdict(float)
    for s in spans:
        self_s[s.layer] += s.self_s
    for name, (_, _, own) in hot.items():
        self_s[name.split(".")[0]] += own

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    by_id = {s.id: s for s in spans}
    space_builds = [s for s in spans if s.name in SPACE_BUILDS and not (
        s.parent in by_id and by_id[s.parent].name in SPACE_BUILDS)]
    builds = named("assembly.build_soft_system")
    solves = named("eigensolve.generalized_eig")
    orders = [s.info["order"] for s in solves if "order" in s.info]
    # The d-fold lifts of a discrete spectrum; `exact_spectrum` builds its
    # continuum reference through `kron_sum_spectrum` too, and those calls
    # are counted in `tensor.exact_spectrum_s` instead.
    lifts = [s for s in named("tensor.kron_sum_spectrum") if not (
        s.parent in by_id
        and by_id[s.parent].name == "tensor.exact_spectrum")]
    exits = [s.info.get("exit") for s in named("cli.main")]

    return {
        "splines.eval_basis.calls": hot["splines.eval_basis"][0],
        "splines.self_s": self_s["splines"],
        "spaces.build.calls": len(space_builds),
        "spaces.self_s": self_s["spaces"],
        "assembly.stiffness_s": total("assembly.assemble_stiffness"),
        "assembly.mass_s": total("assembly.assemble_mass"),
        "assembly.softness_s": total("assembly.assemble_softness"),
        "assembly.build.self_s": sum(s.self_s for s in builds),
        "assembly.build.calls": len(builds),
        "assembly.distinct_ratio": (len({s.info.get("key") for s in builds})
                                    / len(builds) if builds else 1.0),
        "assembly.self_s": self_s["assembly"],
        "eigensolve.calls": len(solves),
        "eigensolve.self_s": self_s["eigensolve"],
        "eigensolve.order_max": max(orders, default=0),
        "eigensolve.n3_sum": sum(n ** 3 for n in orders),
        "eigensolve.errors": sum(1 for s in spans if s.layer == "eigensolve"
                                 and "error" in s.info),
        "tensor.kron_sum.calls": len(lifts),
        "tensor.kron_sum_s": sum(s.duration for s in lifts),
        "tensor.exact_spectrum_s": total("tensor.exact_spectrum"),
        "tensor.entries": sum(s.info.get("entries", 0) for s in lifts),
        "tensor.useful_ratio": _useful_ratio(spans),
        "tensor.self_s": self_s["tensor"],
        "analytic.calls": sum(1 for s in spans if s.layer == "analytic"),
        "analytic.self_s": self_s["analytic"],
        "spectral_analysis.self_s": self_s["spectral_analysis"],
        "spectral_analysis.h1_s":
            total("spectral_analysis.h1_errors_for_modes"),
        "cli.self_s": self_s["cli"],
        "cli.nonzero_exits": sum(1 for e in exits if e != 0),
        "trace.self_sum_s": sum(self_s[layer] for layer in LAYERS),
    }


def units(metrics):
    """Unit of each per-layer metric, from its name."""
    def unit(name):
        if name.endswith("_s"):
            return "s"
        if name.endswith("_ratio"):
            return "ratio"
        return "count"

    return {name: unit(name) for name in metrics}
