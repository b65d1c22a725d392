"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

Smoke runs of every workload at its smallest class, in both modes, check
that every metric BENCHMARK.json names is printed with its unit; a run
whose oracle expects a wrong value must count a failure; a directory
without the gerbedex sources must make the benchmark fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Tracer, span_totals
from worker import tail_latency
from workloads import WORKLOADS, universal_coefficients_hold

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def smoke(workload, trace, *extra):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_reports_every_layer_metric(workload):
    result = smoke(workload, 1)
    metrics = result["metrics"]
    assert result["correct"]
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["trace.overhead_ratio"]["value"] > 0
    # the op span's own time is input generation only
    own = metrics["bench.op.self_s"]["value"]
    assert own < 0.05 * metrics["bench.op.busy_s"]["value"]
    shares = [m["value"] for name, m in metrics.items()
              if name.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_wrong_expected_value_counts_as_failed(workload):
    result = smoke(workload, 0, "--corrupt-op", "0")
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0


def test_fails_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench("--workload", "torus-index", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert done.stdout == ""
    finally:
        shutil.rmtree(bare)


def test_tail_is_p90_or_higher():
    assert tail_latency(list(range(1, 13))) == (90.0, 11, 1)
    assert tail_latency(list(range(1, 101))) == (90.0, 90, 10)
    assert tail_latency(list(range(1, 201))) == (95.0, 190, 10)


def test_universal_coefficient_oracle():
    # lens-type: H^2(Z) = 0, H^3(Z) = Z/7, so H^2(Z/7) = Z/7
    assert universal_coefficients_hold((7,), (), (7,), 7)
    assert not universal_coefficients_hold((7,), (), (), 7)
    # H^2(Z) = Z + Z/2 with k = 6: Z/6 + Z/2, equal to Z/3 + Z/2 + Z/2
    assert universal_coefficients_hold((3, 2, 2), (0, 2), (), 6)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.enabled = True
    tracer.op = 0
    with tracer.span("outer"):
        tracer.call("inner", sum, range(1000))
    totals = span_totals(tracer.spans, {0})
    calls, busy, own = totals["outer"]
    assert calls == 1 and totals["inner"][0] == 1
    assert own == pytest.approx(busy - totals["inner"][1])
