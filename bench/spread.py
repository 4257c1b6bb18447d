"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs bench/run.py once per seed, one after another, with the run length
from BENCHMARK.json. For each end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the metric's bound, then the same spread of the raw
seconds behind the timings, and writes it all to
bench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    raw: dict[str, list[float]] = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        record_file = run.OUT / f"{args.workload}-seed{seed}-trace0.json"
        with open(record_file, encoding="utf-8") as handle:
            record = json.load(handle)
        for name, stats in record["raw_seconds"].items():
            raw.setdefault(name, []).append(stats["median"])
        print(f"seed {seed}: " + "  ".join(
            f"{name} {values[name][-1]:.4g}" for name in bounds), flush=True)

    summary = {name: {**spread(vals), "bound": bounds[name]}
               for name, vals in values.items()}
    raw_summary = {name: spread(vals) for name, vals in raw.items()}
    for name, s in summary.items():
        print(f"{name:<16} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
              f"q3 {s['q3']:.5g}  spread {s['spread']:.3f}  "
              f"bound {s['bound']}")
    for name, s in raw_summary.items():
        print(f"raw {name:<12} median {s['median']:.5g}  "
              f"spread {s['spread']:.3f}")
    print(f"failed analyses: {failed}")
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / f"spread-{args.workload}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "failed": failed,
                   "metrics": summary, "raw_seconds": raw_summary},
                  handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
