"""Span tracing for the traced benchmark run.

Spans (name, start, end, parent, attributes) are kept in memory and written
out when the session ends. They are recorded from the benchmark's own files:
:func:`install` replaces the public functions of bnras's modules, wherever a
module holds a reference to them, with wrappers that open a span around
the call. The untraced runs never install them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# public function -> span name; looked up by module and attribute so that a
# function that later moves or disappears is simply not traced
TRACED = {
    ("bnras.model_io", "parse_network"): "model_io.parse",
    ("bnras.network", "validate_network"): "network.validate",
    ("bnras.exact", "enumerate_posteriors"): "exact.enumerate",
    ("bnras.exact", "min_joint_posterior"): "exact.enumerate",
    ("bnras.exact", "build_transition_matrix"): "exact.matrix",
    ("bnras.exact", "relative_pointwise_distance"): "exact.rpd",
    ("bnras.exact", "mixing_report"): "exact.mixing",
    ("bnras.bounds", "report_bounds"): "bounds.report",
    ("bnras.estimate", "bnras_estimate"): "estimate.bnras",
    ("bnras.estimate", "straight_estimate"): "estimate.straight",
    ("bnras.estimate", "error_metrics"): "estimate.error_metrics",
}

# spans whose function enumerates the evidence-consistent joint states
ENUMERATING = ("exact.enumerate", "exact.matrix")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                  "end": None, "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _free_states(net, ev) -> int:
    states = 1
    for nd in net.nodes:
        if nd.name not in ev:
            states *= len(nd.outcomes)
    return states


def _wrap(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = {}
        if name in ENUMERATING:
            attrs["states"] = _free_states(args[0], args[1])
        if name == "bounds.report":
            attrs["mode"] = kwargs.get("mode", args[3] if len(args) > 3 else "exact")
        with tracer.span(name, **attrs):
            return fn(*args, **kwargs)
    return traced


def install(tracer: Tracer) -> None:
    """Trace every reference any loaded bnras module holds to a function in
    TRACED, and the compilation of each network's lookup tables."""
    originals = {}
    for (module, attr), name in TRACED.items():
        fn = getattr(sys.modules.get(module), attr, None)
        if fn is not None:
            originals[fn] = _wrap(tracer, fn, name)
    for module in [m for key, m in sys.modules.items()
                   if key == "bnras" or key.startswith("bnras.")]:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in originals:
                setattr(module, attr, originals[value])

    network_cls = sys.modules["bnras.network"].BeliefNetwork
    tables = network_cls.__dict__.get("tables")
    if isinstance(tables, functools.cached_property):
        def compile_tables(net, _compile=tables.func):
            with tracer.span("network.compile"):
                return _compile(net)
        traced = functools.cached_property(compile_tables)
        traced.__set_name__(network_cls, "tables")
        setattr(network_cls, "tables", traced)


def read(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced session (see the README's table)."""
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    self_time = dict(dur)
    for s in spans:
        if s["parent"] is not None:
            self_time[s["parent"]] -= dur[s["id"]]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def named(name):
        return [s for s in spans if s["name"] == name]

    def self_sum(name):
        return sum(self_time[s["id"]] for s in named(name))

    def per_call(name):
        calls = sum(s.get("calls", 1) for s in named(name))
        return sum(dur[s["id"]] for s in named(name)) / calls if calls else 0.0

    exact_bounds = [s for s in named("bounds.report") if s["mode"] == "exact"]
    factored = [s for s in named("bounds.report") if s["mode"] == "factored"]
    bound_ids = {s["id"] for s in exact_bounds}
    enumerations = [s for s in spans if s["name"] in ENUMERATING
                    and any(a["id"] in bound_ids for a in ancestors(s))]
    scoring = [s for s in named("estimate.error_metrics")
               if any(a["name"] == "cli.command" for a in ancestors(s))]
    draws = named("chain.draw_count")
    return {
        "rng.stream_setup_us": per_call("rng.spawn") * 1e6,
        "rng.draw_ns": per_call("rng.draw") * 1e9,
        "model_io.parse_ms": self_sum("model_io.parse") * 1e3,
        "network.validate_ms": self_sum("network.validate") * 1e3,
        "network.compile_ms": self_sum("network.compile") * 1e3,
        "chain.full_conditional_us": per_call("chain.full_conditional") * 1e6,
        "chain.lazy_step_us": per_call("chain.lazy_step") * 1e6,
        "chain.trial_us": per_call("chain.trial") * 1e6,
        "chain.cyclic_step_us": per_call("chain.cyclic_step") * 1e6,
        "chain.holds": sum(s["holds"] for s in draws),
        "chain.resamples": sum(s["resamples"] for s in draws),
        "estimate.bnras_s": self_sum("estimate.bnras"),
        "estimate.straight_s": self_sum("estimate.straight"),
        "estimate.error_metrics_us": per_call("estimate.error_metrics") * 1e6,
        "exact.enumerate_s": self_sum("exact.enumerate"),
        "exact.states": sum(s["states"] for s in spans if s["name"] in ENUMERATING),
        "exact.matrix_s": self_sum("exact.matrix"),
        "exact.rpd_s": self_sum("exact.rpd"),
        "bounds.exact_s": sum(dur[s["id"]] for s in exact_bounds),
        "bounds.factored_us": (sum(dur[s["id"]] for s in factored) / len(factored) * 1e6
                               if factored else 0.0),
        "bounds.enumerations": len(enumerations) / len(exact_bounds) if exact_bounds else 0,
        "cli.command_s": self_sum("cli.command"),
        "cli.scoring_s": sum(dur[s["id"]] for s in scoring),
    }
