"""thetasum benchmark: one caller, one process, one thread, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

``--workload all`` runs table1, sweep and scatter in turn.  Each run
measures set-up (fresh interpreters importing ``thetasum.cli``), audits
the known faults on a fixed seeded sample of the whole input range,
warms up, then sends ops back to back for ``--seconds`` and checks
every answer outside the timed region.  Timed figures are in reference
seconds (see refclock.py): short op slices alternate with slices of a
fixed reference unit, and each slice's wall time is rescaled by the
reference speed around it.  The run prints a report, one ``metric``
line per metric with its unit and sample count, and then, as the last
line of each workload, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is split
into an untraced half and a traced half and the metrics are the
per-layer ones (spans are written to ``perfbench/out/``).  See
perfbench/README.md for what each workload and metric is for.

The library is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import NamedTuple

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("table1", "sweep", "scatter")

#: Fresh interpreters timed per run for setup_s (the median is reported),
#: after one untimed launch that warms the bytecode cache.
SETUP_LAUNCHES = 15

#: Untimed ops before the timed loop, so lazy set-up and caches settle.
WARMUP_S = 0.5

#: The timed loop alternates op slices with reference slices this long.
OP_SLICE_S = 0.05
REF_SLICE_S = 0.02

#: Ops of the whole input range (known faults included) checked per run.
AUDIT_OPS = 800

END_TO_END = ("setup_s", "ops_per_s", "op_p50_us", "op_p99_us")

PER_LAYER = (
    "specfun.zeta_real.calls",
    "specfun.zeta_real.self_us",
    "specfun.gamma_real.calls",
    "specfun.gamma_real.self_us",
    "specfun.digamma_int.self_us",
    "engine.tail_factor.calls",
    "engine.tail_factor.self_us",
    "engine.tail_factor.j_terms",
    "model.term_log.entries",
    "engine.tail_factor.useful_ratio",
    "engine.eval_even.n_terms",
    "engine.eval_even.self_us",
    "engine.eval_generic.self_us",
    "engine.eval_generic.k_terms",
    "engine.singular_term.self_us",
    "engine.evaluate.self_us",
    "oracle.direct_sum.calls",
    "oracle.direct_sum.self_us",
    "oracle.direct_sum.n_terms",
    "engine.route_over_direct",
    "specfun.import_s",
    "model.import_s",
    "engine.import_s",
    "cli.import_s",
    "trace.overhead_ratio",
)

IMPORT_MODULES = ("specfun", "model", "engine", "cli")


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def machine() -> dict[str, str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {
        "nproc": str(nproc),
        "cpu": cpu,
        "python": platform.python_version(),
        "git": git_sha(),
    }


def git_sha() -> str:
    # The ceiling keeps git from reporting an enclosing repository when
    # this checkout is not one itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# set-up: a fresh interpreter importing the CLI, bytecode cache warm
# ----------------------------------------------------------------------


def launch() -> tuple[float, dict[str, float]]:
    """Time one fresh ``import thetasum.cli``; also return the self import
    time in seconds of each package module, from ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [
        sys.executable, "-X", "importtime", "-c",
        "import thetasum.cli, sys; sys.stdout.write(thetasum.cli.__file__)",
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.startswith(str(SRC)):
        raise RuntimeError(f"importing thetasum.cli from {SRC} failed:\n{proc.stderr[-2000:]}")
    self_s = {}
    for line in proc.stderr.splitlines():
        # "import time:  <self us> | <cumulative us> | <module>"
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("thetasum."):
            name = parts[2].strip()[len("thetasum."):]
            self_s[name] = int(parts[0].rsplit(":", 1)[1]) / 1e6
    return wall, self_s


def speed(before: float, after: float) -> float:
    """Reference speed around a slice, as a multiple of REF_RATE."""
    return (before + after) / (2.0 * refclock.REF_RATE)


def setup_metrics() -> dict[str, tuple[float, str, int]]:
    launch()
    runs = []
    before = refclock.rate(REF_SLICE_S)
    for _ in range(SETUP_LAUNCHES):
        wall, self_s = launch()
        after = refclock.rate(REF_SLICE_S)
        runs.append((wall, speed(before, after), self_s))
        before = after
    n = len(runs)
    out = {
        "setup_s": (statistics.median(w * k for w, k, _ in runs), "s", n),
        "wall.setup_s": (statistics.median(w for w, _, _ in runs), "s", n),
    }
    for name in IMPORT_MODULES:
        out[f"{name}.import_s"] = (statistics.median(s[name] for _, _, s in runs), "s", n)
    return out


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


class Timed(NamedTuple):
    records: list
    wall_latencies: array  # per op, wall ns
    op_speeds: array  # per op, the reference speed around its slice
    wall_ns: int  # time in ops, wall ns
    ref_ns: float  # time in ops, reference ns
    speeds: list  # reference speed around each op slice


def measure(workload, inputs, seconds: float, tracer=None) -> Timed:
    """The timed loop: op slices of OP_SLICE_S alternating with reference
    slices, for ``seconds`` and at least MIN_OPS ops.  Each op slice's
    latencies and wall time are rescaled by the reference speed measured
    just before and just after it."""
    import workloads

    records: list = []
    wall_latencies = array("q")
    op_speeds = array("d")
    wall_ns = 0
    ref_ns = 0.0
    speeds = []
    before = refclock.rate(REF_SLICE_S)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(records) < workloads.MIN_OPS:
        recs, lats, wall = workloads.run_loop(
            workload, inputs, OP_SLICE_S, tracer=tracer, first_op=len(records)
        )
        after = refclock.rate(REF_SLICE_S)
        k = speed(before, after)
        before = after
        records += recs
        wall_latencies.extend(lats)
        op_speeds.extend([k] * len(recs))
        wall_ns += wall
        ref_ns += wall * k
        speeds.append(k)
        # the kept records are the harness's, not the library's: keep the
        # cyclic collector from walking a list that grows all run
        gc.freeze()
    gc.unfreeze()
    return Timed(records, wall_latencies, op_speeds, wall_ns, ref_ns, speeds)


def p99(latencies) -> float:
    """The median over consecutive blocks of MIN_OPS ops of each block's
    99th percentile (at least ten samples lie beyond it in every block),
    so that a burst of host noise moves one block, not the figure."""
    import workloads

    size = workloads.MIN_OPS
    rank = math.ceil(0.99 * size) - 1
    blocks = [sorted(latencies[i:i + size])[rank] for i in range(0, len(latencies) - size + 1, size)]
    return statistics.median(blocks)


def latency_metrics(latencies, time_ns: float, prefix: str = "") -> dict[str, tuple[float, str, int]]:
    n = len(latencies)
    return {
        f"{prefix}ops_per_s": (n / (time_ns / 1e9), "1/s", n),
        f"{prefix}op_p50_us": (statistics.median(latencies) / 1e3, "us", n),
        f"{prefix}op_p99_us": (p99(latencies) / 1e3, "us", n),
    }


def timed_metrics(t: Timed) -> dict[str, tuple[float, str, int]]:
    latencies = [x * k for x, k in zip(t.wall_latencies, t.op_speeds)]
    out = latency_metrics(latencies, t.ref_ns)
    out.update(latency_metrics(t.wall_latencies, t.wall_ns, "wall."))
    out["refclock.speed"] = (statistics.median(t.speeds), "ratio", len(t.speeds))
    return out


def audit(workload, seed: int):
    """Check AUDIT_OPS ops of the workload's whole input range, untimed.
    Returns the tally, or None for a workload without an audit stream."""
    import workloads

    if workload.audit is None:
        return None
    inputs = itertools.islice(workload.audit(seed), AUDIT_OPS)
    records, _, _ = workloads.run_loop(workload, inputs, 0.0, min_ops=AUDIT_OPS)
    return workloads.check_all(workload, records)


def outcome_metrics(tally, prefix: str = "") -> dict[str, tuple[float, str, int]]:
    failed = tally["attempted"] - tally["passed"]
    return {
        f"{prefix}fail_ratio": (failed / tally["attempted"], "ratio", tally["attempted"]),
        f"{prefix}err_miss_ratio": (
            tally["missed"] / max(tally["answered"], 1), "ratio", tally["answered"],
        ),
    }


def tally_line(label: str, tally) -> str:
    raised = ", ".join(
        f"{k.split()[1]}={v}" for k, v in sorted(tally.items()) if k.startswith("raised ")
    ) or "none"
    return (
        f"{label} attempted={tally['attempted']} answered={tally['answered']} "
        f"passed={tally['passed']} quiet_misses={tally['missed']} raised: {raised}"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import workloads

    if not Path(layers.engine.__file__).is_relative_to(SRC):
        raise RuntimeError(f"thetasum was imported from {layers.engine.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[name]
    metrics = setup_metrics()
    faults = audit(workload, seed)
    inputs = workload.inputs(seed)
    workloads.run_loop(workload, inputs, WARMUP_S)
    if not trace:
        timed = measure(workload, inputs, seconds)
        tally = workloads.check_all(workload, timed.records)
        metrics.update(timed_metrics(timed))
        wanted = END_TO_END
    else:
        plain = measure(workload, inputs, seconds / 2)
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = measure(workload, inputs, seconds / 2, tracer=tracer)
            tally = workloads.check_all(workload, traced.records, tracer)
        finally:
            tracer.uninstall()
        tally += workloads.check_all(workload, plain.records)
        n = len(traced.records)
        metrics.update({k: (v, unit, n) for k, (v, unit) in tracer.per_layer(traced.op_speeds).items()})
        untraced_ops = timed_metrics(plain)["ops_per_s"]
        traced_ops = timed_metrics(traced)["ops_per_s"][0]
        metrics["trace.overhead_ratio"] = (untraced_ops[0] / traced_ops - 1.0, "ratio", n)
        metrics["untraced.ops_per_s"] = untraced_ops
        tracer.write(OUT / f"{name}.spans.csv")
        wanted = PER_LAYER
    failed = tally["attempted"] - tally["passed"]
    metrics.update(outcome_metrics(tally))
    if faults is not None:
        metrics.update(outcome_metrics(faults, "audit."))

    print(f"run workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("machine", json.dumps(machine()))
    for key, (value, unit, count) in metrics.items():
        print(f"metric {key} {value!r} {unit} n={count}")
    print(tally_line("ops", tally))
    if faults is not None:
        print(tally_line("audit", faults))
    return {
        # every timed op passed a check whose reference was fine enough
        # to decide it
        "correct": failed == 0 and tally["undecided"] == 0,
        "attempted": tally["attempted"],
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thetasum" / "__init__.py").is_file():
        print(f"perfbench: no thetasum package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        print(json.dumps(run_workload(name, args.seed, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
