"""The benchmark's workloads, run through their own oracles at tiny size.

``bench/workloads.py`` generates each workload's inputs, runs its
operation and checks the output against an independent oracle
(``bench/oracles.py``).  Running that here makes a change that breaks an
oracle's expectation fail the test suite, not only a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(monkeypatch, name: str):
    """Import ``bench/<name>.py`` under its own name for this test only;
    workloads.py imports its oracles as a top-level module, and dataclasses
    look their module up by name."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_workload_passes_its_oracle_at_tiny_size(monkeypatch):
    load(monkeypatch, "oracles")
    workloads = load(monkeypatch, "workloads")
    vf = importlib.import_module("vetoflow")
    ran = {}
    for name, w in workloads.WORKLOADS.items():
        for seed in (1, 2):
            for x in w.generate(vf, seed, "tiny"):
                out = w.op(vf, x)
                assert w.check(vf, x, out) == [], (name, seed, w.canon(vf, out))
                ran[name] = ran.get(name, 0) + 1
    assert sorted(ran) == sorted(workloads.WORKLOADS) and min(ran.values()) >= 4


def test_every_workload_reaches_its_traced_layers(monkeypatch):
    # the tracer replaces bindings by name; a refactor that stops calling one
    # leaves its layer without spans, which a check of the names alone misses
    load(monkeypatch, "oracles")
    workloads = load(monkeypatch, "workloads")
    tracing = load(monkeypatch, "tracing")
    vf = importlib.import_module("vetoflow")
    missed = {}
    for name, w in workloads.WORKLOADS.items():
        inputs = [x for seed in (1, 2) for x in w.generate(vf, seed, "tiny")]
        tracer = tracing.Tracer()
        try:
            tracer.install(vf)
            for op, x in enumerate(inputs):
                tracer.begin_op(op)
                w.op(vf, x)
                tracer.end_op()
        finally:
            tracer.uninstall()
        missed[name] = tracing.check_coverage(tracer.spans, list(w.expected_spans))
    assert missed == {name: [] for name in workloads.WORKLOADS}
