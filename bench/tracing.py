"""Span tracing around calls into vetoflow's layers, from outside the package.

Modules import each other's functions with ``from .x import y``, so a name
has to be replaced in every *calling* module's namespace (for example both
``vetoflow.eating.run_eating`` and ``vetoflow.rules.run_eating``), and
``FlowNetwork.solve`` on the class.  ``TARGETS`` lists every binding that is
wrapped; a binding missing from the package is an error, and
``check_coverage`` fails a run in which an expected layer recorded nothing,
which is what a missed binding looks like.

Spans live in memory as ``[name, start_ns, end_ns, parent, op, counts]``
and are written out once the traced pass ends.  Only calls made while an
operation is open are recorded, so oracles and set-up leave no spans.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


def _flow_counts(args, result):
    net = args[0]
    arcs = net.num_left + sum(len(e) for e in net.edges) + net.num_right
    return {"arcs": arcs, "perfect": int(result[0] == net.num_left * net.left_supply)}


def _lp_counts(args, result):
    lp = args[0]
    return {
        "rows": len(lp.constraints),
        "vars": lp.num_vars,
        "unbounded": int(result.status == "unbounded"),
    }


# span name, calling modules whose binding is replaced, attribute, counter
TARGETS = [
    ("profile_io.parse", ["profile_io"], "parse_profile", lambda a, r: {"voters": r.n}),
    ("profiles", ["axioms"], "reverse_profile", None),
    ("profiles", ["axioms"], "solid_coalitions", None),
    ("profiles", ["matching"], "dominated_set", None),
    ("profiles", ["rules"], "plurality_scores", None),
    ("profiles.clone_expand", ["rules"], "clone_expand",
     lambda a, r: {"cells": r.expanded.n * r.expanded.m}),
    ("matching.graph", ["matching", "rules", "axioms"], "build_domination_graph", None),
    ("matching.witness", ["axioms"], "extract_deficiency_witness", None),
    ("matching.bipartite", ["axioms"], "max_bipartite_matching", None),
    ("eating.run", ["eating", "rules"], "run_eating", lambda a, r: {"events": len(r.events)}),
    ("eating.front", ["eating"], "veto_by_consumption_winners", None),
    ("eating.front", ["eating"], "phragmen_committee", None),
    ("eating.front", ["eating"], "probabilistic_serial", None),
    ("rules", ["rules"], "plurality_matching_winners", None),
    ("rules", ["rules"], "plurality_veto", None),
    ("rules", ["rules"], "composite_distortion_rule", None),
    ("axioms.core", ["axioms"], "veto_core", None),
    ("axioms.core", ["axioms"], "veto_core_member", None),
    ("axioms.psc", ["axioms"], "weak_psc_satisfied", None),
    ("axioms.pareto", ["axioms"], "pareto_matching_criterion", None),
    ("axioms.bruteforce", ["axioms"], "veto_core_member_bruteforce", None),
    ("axioms.bruteforce", ["axioms"], "weak_psc_bruteforce", None),
    ("axioms.audit", ["axioms"], "equivalence_audit", None),
    ("lp.solve", ["distortion"], "solve_lp", _lp_counts),
    ("distortion.build_lp", ["distortion"], "build_lp",
     lambda a, r: {"rows": len(r.constraints)}),
    ("distortion.op", ["distortion"], "distortion_of_candidate", None),
    ("distortion.verify", ["distortion"], "verify_certificate", None),
    ("distortion.verify", ["distortion"], "extend_to_full_pseudometric", None),
]
# span name, module, class, method, counter
METHOD_TARGETS = [
    ("matching.flow", "matching", "FlowNetwork", "solve", _flow_counts),
]

OP_SPAN = "op"


class Tracer:
    def __init__(self, clock=perf_counter_ns) -> None:
        self.clock = clock  # nanoseconds
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count):
        tracer, clock = self, self.clock

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0, 0, tracer.stack[-1], tracer.op, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                tracer.stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, vf) -> None:
        for name, owners, attr, count in TARGETS:
            for owner_name in owners:
                owner = getattr(vf, owner_name)
                self._replace(owner, attr, name, count)
        for name, owner_name, cls_name, attr, count in METHOD_TARGETS:
            cls = getattr(getattr(vf, owner_name), cls_name)
            self._replace(cls, attr, name, count)

    def _replace(self, owner, attr, name, count) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            raise RuntimeError(f"trace target {getattr(owner, '__name__', owner)}.{attr} is missing")
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack = [len(self.spans)]
        self.spans.append([OP_SPAN, self.clock(), 0, -1, op, None])

    def end_op(self) -> None:
        self.spans[self.stack[0]][2] = self.clock()
        self.stack = []
        self.op = None

    def write(self, path, stamp: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"stamp": stamp}) + "\n")
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, counts]) + "\n")


class _Agg:
    __slots__ = ("calls", "self_ns", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.counts: dict[str, int] = {}


def aggregate(spans: list[list]) -> dict[str, _Agg]:
    """Calls, self time and summed counters per span name.  Self time is a
    span's duration minus the durations of its direct children; calls are
    synchronous, so children always nest inside their parent."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, op, counts in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, _Agg] = {}
    for idx, (name, start, end, parent, op, counts) in enumerate(spans):
        agg = out.get(name)
        if agg is None:
            agg = out[name] = _Agg()
        agg.calls += 1
        agg.self_ns += end - start - child_ns[idx]
        if counts:
            for key, val in counts.items():
                agg.counts[key] = agg.counts.get(key, 0) + val
    return out


def children_per_parent(spans: list[list], child: str, parent: str) -> float:
    """Mean number of direct ``child`` spans under each ``parent`` span."""
    parents = sum(1 for s in spans if s[0] == parent)
    if not parents:
        return 0.0
    kids = sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)
    return kids / parents


LAYER_SPANS = sorted({t[0] for t in TARGETS} | {t[0] for t in METHOD_TARGETS})


def layer_metrics(spans: list[list], overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, as name -> (value, unit)."""
    agg = aggregate(spans)
    empty = _Agg()

    def get(name):
        return agg.get(name, empty)

    def self_s(name):
        return get(name).self_ns / 1e9

    def count(name, key):
        return get(name).counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    lp_calls = get("lp.solve").calls
    flow_calls = get("matching.flow").calls
    return {
        "lp.solve.calls": (lp_calls, "count"),
        "lp.solve.self_s": (self_s("lp.solve"), "s"),
        "lp.rows_offered": (count("lp.solve", "rows"), "count"),
        "lp.vars": (ratio(count("lp.solve", "vars"), lp_calls), "count"),
        "lp.unbounded_ratio": (ratio(count("lp.solve", "unbounded"), lp_calls), "1"),
        "distortion.op.self_s": (self_s("distortion.op"), "s"),
        "distortion.build_lp.self_s": (self_s("distortion.build_lp"), "s"),
        "distortion.build_lp.rows": (count("distortion.build_lp", "rows"), "count"),
        "distortion.lps_per_op": (children_per_parent(spans, "lp.solve", "distortion.op"), "count"),
        "distortion.verify.self_s": (self_s("distortion.verify"), "s"),
        "matching.flow.calls": (flow_calls, "count"),
        "matching.flow.self_s": (self_s("matching.flow"), "s"),
        "matching.flow.arcs": (count("matching.flow", "arcs"), "count"),
        "matching.flow.perfect_ratio": (ratio(count("matching.flow", "perfect"), flow_calls), "1"),
        "matching.graph.self_s": (self_s("matching.graph"), "s"),
        "matching.bipartite.self_s": (self_s("matching.bipartite"), "s"),
        "matching.witness.self_s": (self_s("matching.witness"), "s"),
        "axioms.core.self_s": (self_s("axioms.core"), "s"),
        "axioms.psc.self_s": (self_s("axioms.psc"), "s"),
        "axioms.psc.flows_per_call": (children_per_parent(spans, "matching.flow", "axioms.psc"), "count"),
        "axioms.pareto.self_s": (self_s("axioms.pareto"), "s"),
        "axioms.bruteforce.self_s": (self_s("axioms.bruteforce"), "s"),
        "axioms.audit.self_s": (self_s("axioms.audit"), "s"),
        "eating.run.calls": (get("eating.run").calls, "count"),
        "eating.run.self_s": (self_s("eating.run"), "s"),
        "eating.events": (count("eating.run", "events"), "count"),
        "eating.front.self_s": (self_s("eating.front"), "s"),
        "rules.calls": (get("rules").calls, "count"),
        "rules.self_s": (self_s("rules"), "s"),
        "profiles.clone_expand.self_s": (self_s("profiles.clone_expand"), "s"),
        "profiles.clone_expand.cells": (count("profiles.clone_expand", "cells"), "count"),
        "profiles.self_s": (self_s("profiles"), "s"),
        "profile_io.parse.self_s": (self_s("profile_io.parse"), "s"),
        "profile_io.parse.voters": (count("profile_io.parse", "voters"), "count"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
        "trace.layer_share": (
            ratio(sum(self_s(n) for n in LAYER_SPANS), sum(
                (s[2] - s[1]) / 1e9 for s in spans if s[0] == OP_SPAN)),
            "1",
        ),
    }


def check_coverage(spans: list[list], expected: list[str]) -> list[str]:
    """Span names the workload must reach that recorded no call."""
    seen = {s[0] for s in spans}
    return [name for name in expected if name not in seen]
