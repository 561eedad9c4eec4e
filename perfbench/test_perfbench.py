"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json declares is emitted for every
workload, that the traced run keeps the layers apart, and that a
command that misses its output check is counted as failed.
"""

import json

import pytest

import run
import workloads

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def package():
    assert run.prepare() is None


def test_declared_workloads_are_the_built_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_for_every_workload(trace, kind):
    units = {m["name"]: m["unit"] for m in DECLARED[kind]}
    results = {name: run.run_workload(name, 3, 0, trace, smoke=True) for name in workloads.NAMES}
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units, name
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values()), name
    if trace:
        value = {n: {k: v["value"] for k, v in r["metrics"].items()} for n, r in results.items()}
        for name in workloads.NAMES:
            kernel_calls = value[name]["kernels.step_ensemble.calls"]
            assert (kernel_calls > 0) == (name == "verify-sweep"), name
        for name in ("verify-sweep", "check-wide"):
            verdicts = value[name]["coefficients.invariance_verdict.calls"]
            assert verdicts == 1
            assert value[name]["coefficients.sample_boundary_pairs.calls"] == 2 * verdicts
        assert value["appendix-all"]["approx.sup_inf_convolve.calls"] > 0


def test_failed_output_check_counts(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "check_outputs", lambda wl, code, out: ["forced failure"])
    result = run.run_workload("simulate-generic", 0, 0, False, smoke=True)
    printed = capsys.readouterr().out
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert "ops_failed_frac" in printed and "1 (1 of 1)" in printed
    assert "check failed: forced failure" in printed
    assert json.loads(printed.strip().splitlines()[-1]) == result
