"""Quick self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that

* every metric of ``BENCHMARK.json`` is printed by name with its unit, and
  appears in the final JSON record, untraced (end-to-end) and traced
  (per-layer);
* no operation failed (``failed_ratio`` is 0);
* the same seed gives the same digest, and another seed the same number of
  operations;
* a deliberately corrupted distortion certificate is counted as a failed
  operation, so the oracle really rejects bad output.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(name: str, seed: int, trace: int) -> tuple[list[str], list[str]]:
    """Run one tiny workload; returns (stdout lines, problems)."""
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        return [], [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    lines = done.stdout.splitlines()
    record = json.loads(lines[-1])
    bad = []
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"record keys {sorted(record)}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    if set(record["metrics"]) != {m["name"] for m in wanted}:
        bad.append("record metrics differ from BENCHMARK.json")
    for m in wanted:
        got = record["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            bad.append(f"{m['name']}: unit {got.get('unit')!r} in the record, want {m['unit']!r}")
        pattern = re.compile(rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}(\s|$)")
        if not any(pattern.match(line) for line in lines):
            bad.append(f"{m['name']} is not printed with unit {m['unit']}")
    if not record["correct"] or record["failed"] != 0:
        bad.append(f"{record['failed']} of {record['attempted']} operations failed")
    if not any(re.match(r"^failed_ratio = 0 1(\s|$)", line) for line in lines):
        bad.append("failed_ratio = 0 is not printed")
    return lines, bad


def ops_and_digest(lines: list[str]) -> tuple[str, str]:
    for line in lines:
        found = re.search(r"ops_in_set=(\d+) .*digest=(\w+)", line)
        if found:
            return found.group(1), found.group(2)
    return "", ""


def main() -> int:
    problems = []
    for name in run.WORKLOADS:
        plain, bad = bench(name, 3, 0)
        problems += [f"{name} untraced: {b}" for b in bad]
        traced, bad = bench(name, 3, 1)
        problems += [f"{name} traced: {b}" for b in bad]
        other, bad = bench(name, 4, 0)
        problems += [f"{name} seed 4: {b}" for b in bad]
        if plain and traced and ops_and_digest(plain) != ops_and_digest(traced):
            problems.append(f"{name}: seed 3 gave two different digests")
        if plain and other and ops_and_digest(plain)[0] != ops_and_digest(other)[0]:
            problems.append(f"{name}: seeds 3 and 4 give different operation counts")
        print(f"{name}: checked", flush=True)

    for name in ("distortion-sweep", "distortion-mid"):
        record = run.execute(name, 3, 1, False, size="tiny", corrupt=True, emit=lambda line: None)
        if record["correct"] or record["failed"] == 0:
            problems.append(f"{name}: a corrupted certificate passed the oracle")
        print(f"{name}: corrupted certificate counted as {record['failed']} failed", flush=True)

    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
