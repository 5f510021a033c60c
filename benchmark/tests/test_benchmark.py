"""Tests of the benchmark's own code, at a scale that runs in seconds.

    python3 -m pytest benchmark/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads = run.import_program()
import layers  # noqa: E402
from roughsim import pricing, trees  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(name, trace, seed=5):
    return run.run_workload(name, seed, 0.0, trace, scale="small", setup_runs=1)


def _per_layer_units():
    units = {name: spec[0] for name, spec in layers.PER_LAYER.items()}
    units.update(layers.RUN_LEVEL)
    return units


def test_spec_names_units_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", f"{BENCH.name}/run.py"]
    assert SPEC["paths"] == [BENCH.name]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == _per_layer_units()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_scaled_down_run(name):
    result, lines = _run(name, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads(next(line for line in lines
                             if line.startswith("end_to_end "))[11:])
    assert list(report) == list(run.REPORT_UNITS)
    assert report["op_fail_ratio"]["value"] == 0.0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_at_one_seed(name):
    first, _ = _run(name, trace=True)
    second, _ = _run(name, trace=True)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _per_layer_units()
    for count in layers.exact_counts():
        assert first["metrics"][count] == second["metrics"][count], count


def test_traced_layers_cover_the_op():
    result, lines = _run("smile-n2048", trace=True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["pricing.chunks"] == 2
    assert values["kernels.weight_tables"] == 2
    assert values["shocks.generators"] == 2 * 128 // 4
    assert values["models.clamp_cells"] > 0
    assert values["volterra.euler_s"] > 0 and values["volterra.hybrid_self_s"] == 0
    assert any("unattributed_s" in line for line in lines)


def test_corrupted_outputs_fail_their_checks():
    leg = workloads.make_workloads("full")["smile-n256"].legs[0]
    good = np.full(9, leg.atm_iv_ref)
    assert workloads.check_smile(leg, good, 2e-4) == []
    nan = good.copy()
    nan[0] = np.nan
    assert workloads.check_smile(leg, nan, 2e-4)
    off = good + 0.05
    assert workloads.check_smile(leg, off, 2e-4)

    strikes = [0.95, 1.0, 1.05]
    args = (strikes, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3], 0.05, 0.05, [1.0], [1.0])
    assert workloads.check_tree("t", *args) == []
    assert workloads.check_tree("t", strikes, [0.1, 0.19, 0.3], *args[2:])
    assert workloads.check_tree("t", *args[:3], 0.05 + 1e-9, *args[4:])
    assert workloads.check_tree("t", *args[:5], [1.0], [math.nextafter(1.0, 2.0)])

    times = np.linspace(0.0, 1.0, 4)
    cov = np.zeros((4, 4))
    cov[1:, 1:] = np.minimum.outer(times[1:], times[1:])  # H = 1/2
    assert workloads.check_covariance_matrix(cov, times, 0.5) == []
    skew = cov.copy()
    skew[1, 2] += 1e-15
    assert workloads.check_covariance_matrix(skew, times, 0.5)
    assert workloads.check_covariance_matrix(cov * (1 + 1e-8), times, 0.5)


def test_exact_law_ops_share_their_h_up_to_a_shift():
    hursts = [workloads.op_hurst(seed, index) for seed in (1, 2) for index in range(50)]
    for hurst in hursts:
        assert workloads.HURST <= hurst < workloads.HURST + workloads.HURST_SHIFT
    assert len(set(hursts[:50])) == 50
    assert workloads.op_hurst(1, 7) == workloads.op_hurst(1, 7)


def test_failed_checks_count_as_failed_ops(monkeypatch):
    real_smile = pricing.smile

    def nan_smile(*args, **kwargs):
        result = real_smile(*args, **kwargs)
        return replace(result, implied_vols=np.full_like(result.implied_vols, np.nan))

    monkeypatch.setattr(pricing, "smile", nan_smile)
    result, lines = _run("smile-n256", trace=False)
    assert result["attempted"] == result["failed"] == 2
    assert not result["correct"]
    assert any("FAILED" in line and "not finite" in line for line in lines)

    real_european = trees.tree_price_european
    monkeypatch.setattr(trees, "tree_price_european",
                        lambda tree, payoff: real_european(tree, payoff) + 1.0)
    result, lines = _run("american-trees", trace=False)
    assert result["attempted"] == result["failed"] == 2
    assert any("American put" in line for line in lines)


def test_raising_op_is_counted_and_the_run_goes_on(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(trees, "build_tree", broken)
    result, lines = _run("american-trees", trace=True)
    assert result["attempted"] == result["failed"] == 2
    assert not result["correct"]


def test_command_line_prints_one_result_line():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "exact-law",
         "--seed", "3", "--seconds", "0", "--trace", "1", "--scale", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == set(_per_layer_units())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
         "smile-n256", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
