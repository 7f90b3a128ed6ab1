"""Self-test of the benchmark at smoke size.

    python3 -m pytest bench/test_bench.py -q

Runs every workload once per mode (the fuzz campaign with 2 cases per KO
class instead of 56), checks the output contract, the tracer's call counts
against two known counts, and that a wrong expected answer is caught.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer

SPEC = run.read_spec()
SEED = 7


def smoke(name):
    if name == "fuzz-campaign":
        return lambda pkg, seed, workdir: workloads.FuzzCampaign(pkg, seed, workdir, cases_per_class=2)
    return workloads.WORKLOADS[name]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    out = run.run(name, SEED, 0, trace, smoke(name))
    result = out["result"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out["first_error"]
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    if trace:
        traced = out["notes"]["trace"]
        assert 0 < traced["module_self_s"] <= traced["traced_wall_s"]
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in group)
        assert out["notes"]["item_p50_ms"]["unit"] == "ms"
    assert out["notes"]["fail_ratio"] == {"value": 0.0, "unit": "ratio", "failed": 0,
                                          "attempted": result["attempted"]}


@pytest.mark.parametrize("name, table, key, wrong", [
    ("sm-float", workloads.EXPECTED_SM, "fiber_ko_dimension", 3),
    ("fuzz-campaign", workloads.EXPECTED_BRANCH, 0, "intersection with the opposite"),
])
def test_wrong_expected_answer_raises_fail_ratio(monkeypatch, name, table, key, wrong):
    monkeypatch.setitem(table, key, wrong)
    result = run.run(name, SEED, 0, False, smoke(name))["result"]
    assert result["failed"] >= 1 and not result["correct"]


def _bindings(pkg_name="spectriple"):
    return {(mod, key): id(value) for mod, m in sys.modules.items()
            if mod == pkg_name or mod.startswith(pkg_name + ".")
            for key, value in vars(m).items()}


def _traced_calls(pkg, argv) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_item(0)
        code, report = workloads.run_cli(pkg, argv + ["--json"])
        tracer.end_item()
    finally:
        tracer.restore()
    assert code == 0 and report["ok"]
    return tracer


def test_tracer_matches_known_counts_and_restores_every_binding():
    pkg = run.load_package()
    before = _bindings()
    originals = (pkg.realpart.twist_by_grading, pkg.cli.verify_sm_real_part)

    tracer = Tracer()
    tracer.install()
    try:
        # names imported into other modules are wrapped too
        assert pkg.realpart.twist_by_grading is not originals[0]
        assert pkg.cli.verify_sm_real_part is not originals[1]
    finally:
        tracer.restore()
    assert _bindings() == before

    sm = _traced_calls(pkg, ["sm", "--full"])
    assert sm.calls["algebra.validate"] == 8
    assert sm.calls["scalars.qi_mul"] == 565_168

    fuzz = _traced_calls(pkg, ["fuzz", "--seed", "100", "--count", "56", "--ko", "0"])
    assert fuzz.calls["algebra.validate"] == 168
    assert _bindings() == before


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sm-float", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "bench"]
