"""Spans recorded from the benchmark's own files, and the per-layer
metrics derived from them.

Nothing here touches `src/`.  A `Lib` hands the workloads the library's
public functions, either as they are (untraced reps) or wrapped so that
each call records a span.  `patched` also swaps the names one layer
imported from the layer below (such as `lerw.limits.loop_erase`), so the
calls the library makes internally are seen as well.  If a later version
of the library stops calling a wrapped function, its span does not occur
and that time shows up as the caller's self time; nothing fails.
"""

from __future__ import annotations

import contextlib
import time

import lerw.chain
import lerw.erasure
import lerw.exactlaw
import lerw.fractal
import lerw.limits
import lerw.network

clock = time.perf_counter


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class Tracer:
    """In-memory spans: [id, name, start, end, parent id, run id, attrs]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.run = "setup"
        self.graph_labels: dict = {}  # vertex count -> "carpet_m3", ...

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, clock(), None, self._stack[-1] if self._stack else None, self.run, {}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec[6]
        finally:
            self._stack.pop()
            rec[3] = clock()

    def wrap(self, fn, name: str, describe):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(self, args, kwargs, out))
                return out

        return traced


# -- what each wrapped call records -------------------------------------------


def _graph(tr, args, kwargs, g):
    tr.graph_labels[g.n] = f"{g.kind}_m{g.level}"
    return {"vertices": g.n}


def _erase(tr, args, kwargs, out):
    return {"elements": len(args[0]), "kept": len(out.path)}


def _resistance(tr, args, kwargs, out):
    net = args[0]
    return {"mode": net.mode, "graph": tr.graph_labels.get(net.n, f"n{net.n}"), "unknowns": net.n - 1}


def _hitting(tr, args, kwargs, out):
    net = args[0]
    return {"mode": net.mode, "unknowns": net.n - len(frozenset(_arg(args, kwargs, 2, "targets")))}


def _trace(tr, args, kwargs, out):
    net = args[0]
    return {"mode": net.mode, "unknowns": net.n - len(frozenset(_arg(args, kwargs, 1, "keep")))}


def _enumerate(tr, args, kwargs, law):
    return {
        "n": args[0].n,
        "le": isinstance(_arg(args, kwargs, 3, "pipeline", "LE"), str),
        "atoms": len(law.atoms),
        "tail": float(law.tail_bound),
    }


def _sample(tr, args, kwargs, path):
    return {"steps": len(path) - 1}


# public function -> (defining module, span name, attrs recorder)
CALLS = {
    "build_chain": (lerw.chain, "chain.build", None),
    "sample_until_entry": (lerw.chain, "chain.sample", _sample),
    "reachability_closure": (lerw.chain, "chain.closure", None),
    "loop_erase": (lerw.erasure, "erasure.loop_erase", _erase),
    "partial_loop_erase": (lerw.erasure, "erasure.partial", _erase),
    "enumerate_erasure_law": (lerw.exactlaw, "exactlaw.enumerate", _enumerate),
    "tv_distance": (lerw.exactlaw, "exactlaw.tv", None),
    "effective_resistance": (lerw.network, "network.resistance", _resistance),
    "hitting_distribution": (lerw.network, "network.hitting", _hitting),
    "trace_network": (lerw.network, "network.trace", _trace),
    "walk_from_network": (lerw.network, "network.walk", None),
    "carpet_graph": (lerw.fractal, "fractal.graph", _graph),
    "gasket_graph": (lerw.fractal, "fractal.graph", _graph),
    "uniform_network": (lerw.fractal, "fractal.network", None),
    "adjacency_arrays": (lerw.fractal, "fractal.adjacency", None),
    "resistance_scaling": (lerw.limits, "limits.scaling", None),
    "kernel_convergence": (lerw.limits, "limits.kernel", None),
    "coupled_refinement_distance": (lerw.limits, "limits.coupled", None),
}

# names a layer imported from the layer below, swapped while a rep is traced
INTERNAL = (
    (lerw.limits, "loop_erase"),
    (lerw.limits, "partial_loop_erase"),
    (lerw.limits, "effective_resistance"),
    (lerw.limits, "hitting_distribution"),
    (lerw.limits, "carpet_graph"),
    (lerw.limits, "gasket_graph"),
    (lerw.limits, "uniform_network"),
    (lerw.limits, "adjacency_arrays"),
    (lerw.exactlaw, "reachability_closure"),
)


class Lib:
    """The public functions the workloads call, traced when a tracer is given."""

    def __init__(self, tracer: Tracer | None = None):
        for name, (module, span, describe) in CALLS.items():
            fn = getattr(module, name)
            setattr(self, name, fn if tracer is None else tracer.wrap(fn, span, describe))


@contextlib.contextmanager
def patched(tracer: Tracer):
    saved = []
    try:
        for module, name in INTERNAL:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            saved.append((module, name, fn))
            _, span, describe = CALLS[name]
            setattr(module, name, tracer.wrap(fn, span, describe))
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


# -- per-layer metrics ----------------------------------------------------------

# (name, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("exactlaw.enumerate_s.n3", "s", "lower"),
    ("exactlaw.enumerate_s.n4", "s", "lower"),
    ("exactlaw.enumerate_s.n5", "s", "lower"),
    ("exactlaw.cases_per_s.n3", "1/s", "higher"),
    ("exactlaw.cases_per_s.n4", "1/s", "higher"),
    ("exactlaw.cases_per_s.n5", "1/s", "higher"),
    ("exactlaw.le_s", "s", "lower"),
    ("exactlaw.tv_s", "s", "lower"),
    ("chain.closure_s", "s", "lower"),
    ("exactlaw.atoms", "count", "lower"),
    ("exactlaw.tail_max", "prob", "lower"),
    ("network.rational.resistance_s", "s", "lower"),
    ("network.rational.trace_s", "s", "lower"),
    ("chain.build_s", "s", "lower"),
    ("limits.coupled_s", "s", "lower"),
    ("limits.coupled.self_s", "s", "lower"),
    ("erasure.partial_s", "s", "lower"),
    ("erasure.loop_erase_s", "s", "lower"),
    ("erasure.elements", "count", "lower"),
    ("erasure.elements_per_s", "1/s", "higher"),
    ("erasure.kept_ratio", "ratio", "higher"),
    ("limits.walk_steps", "count", "lower"),
    ("limits.walk_steps_max", "count", "lower"),
    ("chain.sample_s", "s", "lower"),
    ("chain.steps", "count", "lower"),
    ("chain.steps_per_s", "1/s", "higher"),
    ("network.walk_s", "s", "lower"),
    ("fractal.adjacency_s", "s", "lower"),
    ("network.double.resistance_s.carpet_m3", "s", "lower"),
    ("network.double.resistance_s.carpet_m4", "s", "lower"),
    ("network.double.resistance_s.carpet_m5", "s", "lower"),
    ("network.double.hitting_s", "s", "lower"),
    ("network.double.trace_s", "s", "lower"),
    ("fractal.graph_s", "s", "lower"),
    ("fractal.network_s", "s", "lower"),
    ("fractal.vertices", "count", "lower"),
    ("network.unknowns", "count", "lower"),
    ("limits.scaling.self_s", "s", "lower"),
    ("limits.kernel.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# per-layer metrics that are counts fixed by the inputs: they must repeat exactly
COUNTS = ("exactlaw.atoms", "exactlaw.tail_max", "erasure.elements", "erasure.kept_ratio",
          "limits.walk_steps", "limits.walk_steps_max", "chain.steps", "fractal.vertices",
          "network.unknowns")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans: list, runs: set) -> dict:
    """Every per-layer metric except trace.overhead_frac, over the given runs.

    Self time is a span's duration minus the durations of its direct
    children (spans nest strictly, one thread).
    """
    spans = [s for s in spans if s[5] in runs]
    by_id = {s[0]: s for s in spans}
    child_time: dict = {}
    for s in spans:
        if s[4] in by_id:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])

    def pick(name, **want):
        return [s for s in spans if s[1] == name and all(s[6].get(k) == v for k, v in want.items())]

    def dur(name, **want):
        return sum(s[3] - s[2] for s in pick(name, **want))

    def self_time(name):
        return sum(s[3] - s[2] - child_time.get(s[0], 0.0) for s in pick(name))

    def total(spans_, key):
        return sum(s[6].get(key, 0) for s in spans_)

    m = {}
    for n in (3, 4, 5):
        m[f"exactlaw.enumerate_s.n{n}"] = dur("exactlaw.enumerate", n=n)
        cases = len(pick("exactlaw.enumerate", n=n, le=False))
        m[f"exactlaw.cases_per_s.n{n}"] = _ratio(cases, m[f"exactlaw.enumerate_s.n{n}"])
    m["exactlaw.le_s"] = dur("exactlaw.enumerate", le=True)
    m["exactlaw.tv_s"] = dur("exactlaw.tv")
    m["chain.closure_s"] = dur("chain.closure")
    laws = pick("exactlaw.enumerate")
    m["exactlaw.atoms"] = total(laws, "atoms")
    m["exactlaw.tail_max"] = max((s[6]["tail"] for s in laws), default=0.0)
    m["network.rational.resistance_s"] = dur("network.resistance", mode="rational")
    m["network.rational.trace_s"] = dur("network.trace", mode="rational")
    m["chain.build_s"] = dur("chain.build")
    m["limits.coupled_s"] = dur("limits.coupled")
    m["limits.coupled.self_s"] = self_time("limits.coupled")
    m["erasure.partial_s"] = dur("erasure.partial")
    m["erasure.loop_erase_s"] = dur("erasure.loop_erase")
    erased = pick("erasure.partial") + pick("erasure.loop_erase")
    m["erasure.elements"] = total(erased, "elements")
    m["erasure.elements_per_s"] = _ratio(m["erasure.elements"], m["erasure.partial_s"] + m["erasure.loop_erase_s"])
    m["erasure.kept_ratio"] = _ratio(total(erased, "kept"), m["erasure.elements"])
    coupled = {s[0] for s in pick("limits.coupled")}
    walks = [s[6]["elements"] - 1 for s in pick("erasure.partial") if s[4] in coupled]
    m["limits.walk_steps"] = sum(walks)
    m["limits.walk_steps_max"] = max(walks, default=0)
    m["chain.sample_s"] = dur("chain.sample")
    m["chain.steps"] = total(pick("chain.sample"), "steps")
    m["chain.steps_per_s"] = _ratio(m["chain.steps"], m["chain.sample_s"])
    m["network.walk_s"] = dur("network.walk")
    m["fractal.adjacency_s"] = dur("fractal.adjacency")
    for level in (3, 4, 5):
        m[f"network.double.resistance_s.carpet_m{level}"] = dur(
            "network.resistance", mode="double", graph=f"carpet_m{level}"
        )
    m["network.double.hitting_s"] = dur("network.hitting", mode="double")
    m["network.double.trace_s"] = dur("network.trace", mode="double")
    m["fractal.graph_s"] = dur("fractal.graph")
    m["fractal.network_s"] = dur("fractal.network")
    m["fractal.vertices"] = total(pick("fractal.graph"), "vertices")
    solves = pick("network.resistance") + pick("network.hitting") + pick("network.trace")
    m["network.unknowns"] = total(solves, "unknowns")
    m["limits.scaling.self_s"] = self_time("limits.scaling")
    m["limits.kernel.self_s"] = self_time("limits.kernel")
    return m
