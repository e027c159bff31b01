"""Tests of the benchmark itself: inputs, failure counting, metric names.

Run with ``python -m pytest perfbench``; the package is imported from
the ``src/`` next to this directory.
"""

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from thetasum import engine  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def take(name, seed, count):
    return list(itertools.islice(workloads.WORKLOADS[name].inputs(seed), count))


def key(x):
    return (x.a, x.w)


def test_same_seed_same_inputs():
    for name in run.WORKLOAD_NAMES:
        assert take(name, 7, 700) == take(name, 7, 700)


def test_other_seed_other_sweep_offsets_and_scatter_points():
    for name in ("sweep", "scatter"):
        assert not {key(x) for x in take(name, 1, 700)} & {key(x) for x in take(name, 2, 700)}


def test_sweep_and_scatter_never_repeat_a_point():
    for name in ("sweep", "scatter"):
        points = [key(x) for x in take(name, 3, 40_000)]
        assert len(set(points)) == len(points)


def test_sweep_pass_covers_the_grid():
    one_pass = take("sweep", 4, workloads.SWEEP_POINTS * 8)
    assert sorted({x.w for x in one_pass}) == list(workloads.SWEEP_W)
    mags = sorted({x.a.real for x in one_pass if x.a.imag == 0.0})
    assert len(mags) == workloads.SWEEP_POINTS
    assert workloads.SWEEP_A_RANGE[0] <= mags[0] and mags[-1] < workloads.SWEEP_A_RANGE[1]


def test_timed_streams_stay_in_the_accurate_domain_and_audits_do_not():
    for name in ("sweep", "scatter"):
        workload = workloads.WORKLOADS[name]
        assert all(workloads.accurate(x) for x in take(name, 6, 5000))
        audited = list(itertools.islice(workload.audit(6), 5000))
        assert not all(workloads.accurate(x) for x in audited)
    scatter_audit = list(itertools.islice(workloads.scatter_audit(6), 5000))
    assert any(x.w == 0.0 for x in scatter_audit)
    assert max(abs(x.a) for x in scatter_audit) > 2.0
    assert max(abs(x.a) for x in itertools.islice(workloads.sweep_audit(6), 400)) > 0.4


def test_wrong_answer_fails_its_check():
    spec = take("sweep", 5, 1)[0]
    ref = engine.direct_sum(spec)
    exact = workloads.Answer(ref.value, 0.0, None, None, None)
    off = exact._replace(value=ref.value * (1 + 1e-8))
    assert workloads.sweep_check(spec, exact).passed
    assert not workloads.sweep_check(spec, off).passed
    assert workloads.sweep_check(spec, off).miss


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_raising_op_counts_as_failed_and_run_goes_on(monkeypatch, capsys):
    table1 = workloads.WORKLOADS["table1"]

    def flaky(row):
        if row.a == 2.0:
            raise ZeroDivisionError("injected")
        return table1.op(row)

    monkeypatch.setitem(workloads.WORKLOADS, "table1", table1._replace(op=flaky))
    assert run.main(["--workload", "table1", "--seed", "1", "--seconds", "0.05"]) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    # one of the 8 rows raises; the others pass the table-1 checks
    assert result["attempted"] >= workloads.MIN_OPS
    assert abs(result["failed"] - result["attempted"] / 8) <= 1
    assert "ZeroDivisionError=" in out
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name in [m["name"] for m in SPEC["end_to_end"]] + ["fail_ratio", "err_miss_ratio"]:
        assert f"metric {name} " in out


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "scatter", "--seed", "1", "--seconds", "0.05", "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert 0.0 < result["metrics"]["oracle.direct_sum.calls"]["value"] <= 1.0
    assert result["correct"] is True and result["failed"] == 0
    for name in run.PER_LAYER:
        assert f"metric {name} " in out
    # the known faults stay visible in the audit
    audit_fail = [line.split()[2] for line in out.splitlines() if line.startswith("metric audit.fail_ratio ")]
    assert float(audit_fail[0]) > 0.1
    # the wrappers are gone once the run ends
    assert not hasattr(engine.evaluate, "__wrapped__")


def test_p99_is_the_median_of_block_p99s():
    size = workloads.MIN_OPS
    quiet = list(range(size))
    burst = [x + 10 * size for x in quiet]
    # one noisy block out of three does not move the figure
    assert run.p99(quiet + burst + quiet) == sorted(quiet)[run.math.ceil(0.99 * size) - 1]


def test_benchmark_json_lists_what_the_run_reports():
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in SPEC["per_layer"]} == set(run.PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOAD_NAMES)
