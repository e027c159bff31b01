"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --runs 10 [--trace 0|1] [--out FILE]

Each run is a fresh ``perfbench/run.py`` process with seed 1..runs (or
from ``--first-seed``) and the run length from BENCHMARK.json (or
``--seconds``).  For
every metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median, next to the metric's bound.  With
``--out`` it adds the medians and quartiles to a JSON record of
baselines, keyed by workload and trace mode, with the machine it ran
on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """Returns (result JSON, report metrics, machine fields) of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    report = {}
    machine = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, count = line.split()
            report[name] = {"value": float(value), "unit": unit, "n": int(count[2:])}
        elif line.startswith("machine "):
            machine = json.loads(line[len("machine "):])
    return json.loads(lines[-1]), report, machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--out", default=None, help="JSON file to add the medians to")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    seconds = args.seconds or spec["run_seconds"]
    runs = [one_run(args.workload, s, seconds, args.trace) for s in seeds]

    summary = {}
    print(f"{args.workload} trace={args.trace} seeds={seeds.start}..{seeds.stop - 1}")
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name, first in runs[0][1].items():
        values = [r[1][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = "" if bound is None else f"{bound:>6.3f}" + (" !" if spread > bound / 3 else "")
        print(f"{name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f} {mark}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": first["unit"]}
    print("correct:", [r[0]["correct"] for r in runs])
    print("failed/attempted:", [f"{r[0]['failed']}/{r[0]['attempted']}" for r in runs])

    if args.out:
        path = Path(args.out)
        record = json.loads(path.read_text()) if path.exists() else {}
        record["machine"] = runs[0][2]
        record["run_seconds"] = seconds
        record.setdefault("workloads", {}).setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": [seeds.start, seeds.stop - 1],
            "metrics": summary,
        }
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
