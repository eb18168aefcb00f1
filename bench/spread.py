"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload distortion-mid --seeds 1-10 --seconds 20 [--out spread.json]

Runs ``run.py`` once per seed, one run at a time, and reports for every
end-to-end metric the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread (q3 - q1) / median, next to the metric's bound in
``BENCHMARK.json``.  A spread above a third of the bound is marked ``!``,
one above the bound ``!!``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        started = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
        wall = time.perf_counter() - started
        record = json.loads(done.stdout.strip().splitlines()[-1])
        if not record["correct"]:
            print(f"seed {seed}: {record['failed']} of {record['attempted']} operations failed")
            return 1
        for name in bounds:
            values[name].append(record["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items())
              + f" wall={wall:.1f}s", flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name], "values": vals}
        flag = "!!" if spread > bounds[name] else "!" if spread > bounds[name] / 3 else ""
        print(f"{name:12s} median={med:.5g} q1={q1:.5g} q3={q3:.5g} "
              f"spread={spread:.4f} bound={bounds[name]} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({args.workload: summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
