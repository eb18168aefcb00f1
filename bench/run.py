"""Layered benchmark for vetoflow.

    python3 bench/run.py --workload distortion-mid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; vetoflow is imported from ``src/`` there.
Each workload is a closed loop with one caller on one thread: the next
operation starts when the previous one returns, in whole passes over a
fixed, seeded operation set: one pass, and more while they fit in
``--seconds``.  Every output of the first pass is checked by an independent
oracle (``oracles.py``) outside the timed region; an operation that raises,
fails its oracle or returns a different output on a later pass counts as
failed.  The last line of stdout is one JSON object:

* ``--trace 0``: the end-to-end metrics ``ops_per_s``, ``op_s.p50``,
  ``op_s.tail``, ``setup_s`` and ``peak_rss_mb``; ``failed_ratio`` is
  printed on the line above, and ``failed`` / ``attempted`` in the JSON.
  Times are seconds at the reference speed of ``probe.py``, which samples
  the machine's speed throughout the run; the same metrics in plain wall
  seconds are printed as ``raw.*`` lines.
* ``--trace 1``: one untraced pass, then one traced pass over the same
  operations.  Spans are recorded around calls into each layer
  (``tracing.py``) on a clock that leaves the probe out, written to
  ``.bench_out/``, and turned into the per-layer metrics plus
  ``trace.overhead_ratio``, the ratio of the two passes in reference
  seconds.

``--workload all`` runs the four workloads one after another, each in its
own process so that ``peak_rss_mb`` belongs to one workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib.util import find_spec
from pathlib import Path

import tracing
from probe import SpeedProbe
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# set-up rounds before and after the timed loop; machine speed drifts over
# tens of seconds, so rounds on both sides keep the median representative
SETUP_ROUNDS = (3, 3)
TAIL_ABOVE = 10


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def require_sources() -> None:
    if not (SRC / "vetoflow" / "__init__.py").is_file():
        raise BenchError(f"no vetoflow sources under {SRC}")


def load_vetoflow():
    """Import vetoflow afresh from this checkout's ``src/``."""
    require_sources()
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "vetoflow" or m.startswith("vetoflow.")]:
        del sys.modules[name]
    vf = importlib.import_module("vetoflow")
    if Path(vf.__file__).resolve().parent != (SRC / "vetoflow").resolve():
        raise BenchError(f"imported vetoflow from {vf.__file__}, not from {SRC}")
    return vf


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
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


def stamp(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "gmpy2": find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": git_commit(),
        "trace": trace,
    }


def hd_quantile(times_s: list[float], q: float, steps: int = 8) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile: a mean of all
    order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density,
    integrated over each one's share of [0, 1] with ``steps`` midpoints.
    Operation times that mix classes of very different cost leave gaps in
    the ordered sample, and a single order statistic jumps across such a
    gap when a seed moves a few operations from one side to the other;
    this estimate moves smoothly instead, and still scales with the times.
    On ten distortion-sweep runs it cut the seed-to-seed spread of the
    tail from 0.167 to 0.125 and left the median's at 0.069."""
    ordered = sorted(times_s)
    n = len(ordered)
    a1, b1 = (n + 1) * q - 1, (n + 1) * (1 - q) - 1
    points = n * steps
    logs = [a1 * math.log(x) + b1 * math.log1p(-x)
            for x in ((j + 0.5) / points for j in range(points))]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * t for w, t in zip(weights, ordered)) / sum(weights)


def tail(times_s: list[float]) -> tuple[float, float, int]:
    """The highest percentile that leaves at least ``TAIL_ABOVE`` samples
    above it, as (Harrell-Davis value, percentile, samples above); the
    maximum when there are too few samples."""
    n = len(times_s)
    if n <= TAIL_ABOVE:
        return max(times_s), 100.0, 0
    keep = (n - TAIL_ABOVE) / n
    return hd_quantile(times_s, keep), 100.0 * keep, TAIL_ABOVE


class Run:
    """One workload in one process: set-up, the timed loop, the oracles."""

    def __init__(self, name: str, seed: int, size: str = "full") -> None:
        if name not in WORKLOADS:
            raise BenchError(f"unknown workload {name!r}")
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.size = size
        self.setups: list[float] = []
        self.vf = None
        self.inputs: list = []
        self.first: list = []  # (output, error) of the first pass
        self.digests: list[str] = []
        self.runs: list[int] = []  # executions per operation
        self.unstable: set[int] = set()
        self.times: list[float] = []  # per execution, reference seconds
        self.raw_times: list[float] = []  # per execution, wall seconds
        self.raw_setups: list[float] = []
        # samples the machine's speed; started before set-up
        self.probe = SpeedProbe()

    def set_up(self, rounds: int, keep: bool = True) -> None:
        """Import, generate the inputs and warm up, ``rounds`` times; the
        median over all rounds is ``setup_s``.  With ``keep`` the last
        round's module and inputs are the ones the timed loop uses."""
        def one_round():
            vf = load_vetoflow()
            inputs = self.wl.generate(vf, self.seed, self.size)
            self.wl.warmup(vf)
            return vf, inputs

        for _ in range(rounds):
            (vf, inputs), raw, ref = self.probe.measure(one_round)
            self.setups.append(ref)
            self.raw_setups.append(raw)
        if not keep:
            return
        self.vf, self.inputs = vf, inputs
        n = len(inputs)
        self.first = [None] * n
        self.digests = [""] * n
        self.runs = [0] * n

    def _execute(self, i: int, tracer=None) -> tuple[float, float]:
        """Run operation ``i``; returns its (wall, reference) seconds."""
        wl, vf = self.wl, self.vf

        def op():
            try:
                return wl.op(vf, self.inputs[i]), None
            except Exception:  # a failing operation is counted, never fatal
                return None, traceback.format_exc(limit=3)

        if tracer is not None:
            tracer.begin_op(i)
        (out, err), raw, elapsed = self.probe.measure(op)
        if tracer is not None:
            tracer.end_op()
        digest = "error" if err else hashlib.sha256(wl.canon(vf, out).encode()).hexdigest()
        self.runs[i] += 1
        if self.first[i] is None:
            self.first[i] = (out, err)
            self.digests[i] = digest
        elif digest != self.digests[i]:
            self.unstable.add(i)
        return raw, elapsed

    def timed_loop(self, seconds: float) -> None:
        """Whole passes over the operation set: the first always, and one
        more whenever a pass as long as the last would still end within
        ``seconds``.  Every operation then runs equally often, so the mix
        of costs is the same in every run; a pass cut short by a deadline
        would weight whichever operations it happened to reach."""
        gc.collect()
        started = time.perf_counter()
        last = 0.0
        while not self.times or time.perf_counter() - started + last <= seconds:
            begun = time.perf_counter()
            for i in range(len(self.inputs)):
                raw, elapsed = self._execute(i)
                self.raw_times.append(raw)
                self.times.append(elapsed)
            last = time.perf_counter() - begun

    def one_pass(self, tracer=None) -> float:
        gc.collect()
        return sum(self._execute(i, tracer)[1] for i in range(len(self.inputs)))

    def corrupt_first(self) -> bool:
        """Self-test hook: damage the first certificate the workload can."""
        if self.wl.corrupt is None:
            return False
        for i, (out, err) in enumerate(self.first):
            if err is None:
                bad = self.wl.corrupt(self.vf, out)
                if bad is not None:
                    self.first[i] = (bad, None)
                    return True
        return False

    def failures(self) -> dict[int, list[str]]:
        """Problems per failed operation, from the oracles and the digests."""
        failed: dict[int, list[str]] = {}
        for i, (out, err) in enumerate(self.first):
            if err is not None:
                failed[i] = [err.strip().splitlines()[-1]]
                continue
            try:
                problems = self.wl.check(self.vf, self.inputs[i], out)
            except Exception:  # an oracle crash fails the operation
                problems = ["oracle raised: " + traceback.format_exc(limit=3)]
            if i in self.unstable:
                problems.append("output changed between passes")
            if problems:
                failed[i] = problems
        return failed

    def workload_digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timing_metrics(times: list[float], setups: list[float], rss: float) -> dict:
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s.p50": (hd_quantile(times, 0.5), "s"),
        "op_s.tail": (tail(times)[0], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }


def execute(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            corrupt: bool = False, emit=print) -> dict:
    """Run one workload and print its report; returns the final record."""
    require_sources()
    run = Run(name, seed, size)
    info = stamp(name, seed, trace)
    emit("# " + json.dumps(info, sort_keys=True))

    run.probe.start()
    try:
        run.set_up(SETUP_ROUNDS[0])
        if trace:
            plain = run.one_pass()
            tracer = tracing.Tracer(run.probe.clock_ns)
            tracer.install(run.vf)
            try:
                traced = run.one_pass(tracer)
            finally:
                tracer.uninstall()
        else:
            run.timed_loop(seconds)
            rss = peak_rss_mb()
            run.set_up(SETUP_ROUNDS[1], keep=False)
    finally:
        run.probe.stop()
    emit("# " + run.probe.summary())

    if trace:
        missing = tracing.check_coverage(tracer.spans, run.wl.expected_spans)
        if missing:
            raise BenchError(
                f"span coverage: {', '.join(missing)} recorded no calls on {name}; "
                "a wrapper is bound in the wrong namespace"
            )
        metrics = tracing.layer_metrics(tracer.spans, traced / plain)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(span_file, info)
        emit(f"# spans={len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    else:
        metrics = timing_metrics(run.times, run.setups, rss)
        for key, (value, unit) in timing_metrics(run.raw_times, run.raw_setups, rss).items():
            if unit in ("s", "1/s"):
                emit(f"raw.{key} = {value:.6g} {unit}")
        tail_pct, tail_above = tail(run.times)[1:]
        ordered = sorted(run.times)
        emit(f"# order statistics: median {statistics.median(ordered):.6g} s, "
             f"tail {ordered[-TAIL_ABOVE - 1]:.6g} s")

    if corrupt and not run.corrupt_first():
        raise BenchError(f"workload {name} produced no certificate to corrupt")
    checked = time.perf_counter()
    failed_ops = run.failures()
    emit(f"# oracles took {time.perf_counter() - checked:.2f} s")
    attempted = sum(run.runs)
    failed = sum(run.runs[i] for i in failed_ops)
    for i in sorted(failed_ops)[:5]:
        emit(f"# FAILED op {i}: {'; '.join(failed_ops[i][:3])}")

    emit(f"# ops_in_set={len(run.inputs)} passes={attempted / len(run.inputs):.2f} "
         f"digest={run.workload_digest()}")
    emit(f"# setup_s rounds: {' '.join(f'{s:.4f}' for s in run.setups)}")
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "op_s.tail":
            note = f"  (p{tail_pct:.2f} of {len(run.times)} samples, {tail_above} above)"
        emit(f"{key} = {value:.6g} {unit}{note}")
    emit(f"failed_ratio = {failed / attempted:.6g} 1  ({failed} of {attempted})")
    record = {
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    emit(json.dumps(record))
    return record


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(f"## {name}")
        print(done.stdout, end="")
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        execute(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
