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


def open_inputs(vf, workloads) -> dict[str, list]:
    """One input per distortion workload whose reported reference takes an
    LP: at tiny size the closure metric decides every reference LP of
    distortion-sweep's elections, which would leave the LP layers without
    spans.  The benchmark's own tiny sets have no such input, so the
    traced seed-3 run of ``bench/selftest.py`` fails its span check until
    they gain one.  Candidate 0 of this election has value 3 against
    reference 1, below that reference's bound 2n/s - 1 = 5."""
    p = vf.profiles.PreferenceProfile.of([(0, 1, 2), (1, 0, 2), (2, 1, 0)])
    assert vf.distortion.closure_metric(p, 0, 1) is None
    assert 0 in vf.rules.plurality_matching_winners(p)
    return {"distortion-sweep": [p], "distortion-mid": [workloads.MidInput(p, 0, None)]}


def tiny_inputs(vf, workloads, name: str) -> list:
    """The workload's tiny inputs for seeds 1 and 2, then its open inputs."""
    w = workloads.WORKLOADS[name]
    generated = [x for seed in (1, 2) for x in w.generate(vf, seed, "tiny")]
    return generated + open_inputs(vf, workloads).get(name, [])


def test_every_workload_passes_its_oracle_at_tiny_size(monkeypatch):
    load(monkeypatch, "oracles")
    workloads = load(monkeypatch, "workloads")
    vf = importlib.import_module("vetoflow")
    ran = {}
    for name, w in workloads.WORKLOADS.items():
        for x in tiny_inputs(vf, workloads, name):
            out = w.op(vf, x)
            assert w.check(vf, x, out) == [], (name, w.canon(vf, out))
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
        inputs = tiny_inputs(vf, workloads, name)
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
