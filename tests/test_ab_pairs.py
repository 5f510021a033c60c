"""The verdicts and traced-run records of tools/ab_pairs.py on made-up runs."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

_SPECS = {"op_s_p50": {"name": "op_s_p50", "better": "lower", "bound": 0.25},
          "work_per_s": {"name": "work_per_s", "better": "higher",
                         "bound": 0.25},
          "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower",
                          "bound": 0.05}}


def _runs(op, work, rss):
    return [{"op_s_p50": a, "work_per_s": b, "peak_rss_mb": c,
             "correct": True, "failed": 0} for a, b, c in zip(op, work, rss)]


def test_each_metric_gets_a_regression_verdict():
    parent = _runs([1.0, 1.01, 0.99, 1.0], [10.0, 10.1, 9.9, 10.0],
                   [100.0, 100.0, 100.1, 99.9])
    change = _runs([0.8, 0.81, 0.79, 0.8], [7.0, 7.1, 6.9, 7.0],
                   [104.0, 104.0, 104.1, 103.9])
    result = ab_pairs.compare(parent, change, _SPECS)
    verdicts = {name: m["regression"] for name, m in result["metrics"].items()}
    assert verdicts == {"op_s_p50": "within bound",
                        "work_per_s": "worse beyond bound",
                        "peak_rss_mb": "within bound"}
    # the claim on op_s_p50 is met even though another metric regressed:
    # the verdicts are what make that visible
    assert result["claim_met"] is True
    change = _runs([0.8] * 4, [10.0] * 4, [106.0] * 4)
    result = ab_pairs.compare(parent, change, _SPECS)
    assert result["metrics"]["peak_rss_mb"]["regression"] == "worse beyond bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = {"median": 1.0, "q1": 0.8, "q3": 1.2, "iqr": 0.4}
    change = {"median": 2.0, "q1": 1.9, "q3": 2.1, "iqr": 0.2}
    assert ab_pairs.regression(parent, change, "lower", 0.25) == "unresolved"
    parent["iqr"] = 0.2
    assert ab_pairs.regression(parent, change, "lower", 0.25) == \
        "worse beyond bound"
    assert ab_pairs.regression(parent, change, "higher", 0.25) == \
        "within bound"


def test_a_change_spread_wider_than_the_bound_is_unresolved():
    parent = {"median": 1.0, "q1": 0.95, "q3": 1.05, "iqr": 0.1}
    change = {"median": 0.9, "q1": 0.7, "q3": 1.1, "iqr": 0.4}
    assert ab_pairs.regression(parent, change, "lower", 0.25) == "unresolved"
    change["iqr"] = 0.2
    assert ab_pairs.regression(parent, change, "lower", 0.25) == \
        "within bound"


def test_each_workload_gets_one_traced_run_per_side(tmp_path, monkeypatch):
    parent_tree = tmp_path / "parent"
    calls = []
    caches = {}

    def fake_run(tree, workload, seed, seconds, pycache, trace=0):
        side = "parent" if tree == parent_tree else "change"
        calls.append((side, workload, seed, trace))
        caches.setdefault(side, set()).add(pycache)
        if trace:
            return {"trees.build_s": 0.30 if side == "parent" else 0.18,
                    "trees.nodes": 7, "correct": True, "failed": 0,
                    "attempted": 5}
        op = 1.0 if side == "parent" else 0.8
        return {"op_s_p50": op + 0.01 * seed, "work_per_s": 1.0 / op,
                "setup_s": 0.5, "peak_rss_mb": 100.0, "correct": True,
                "failed": 0, "attempted": 20}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    monkeypatch.setattr(ab_pairs, "extract", lambda rev, into: parent_tree)
    monkeypatch.setattr(ab_pairs, "commit_of", lambda rev: "0" * 40)
    out = tmp_path / "bench.json"
    assert ab_pairs.main(["--workload", "american-trees", "--pairs", "3",
                          "--seed", "40", "--out", str(out)]) == 0
    # untraced pairs alternate which side runs first; the traced runs follow
    assert calls == [("parent", "american-trees", 40, 0),
                     ("change", "american-trees", 40, 0),
                     ("change", "american-trees", 41, 0),
                     ("parent", "american-trees", 41, 0),
                     ("parent", "american-trees", 42, 0),
                     ("change", "american-trees", 42, 0),
                     ("parent", "american-trees", 40, 1),
                     ("change", "american-trees", 40, 1)]
    result = json.loads(out.read_text())["workloads"]["american-trees"]
    layers = result["layers"]
    assert layers["parent"]["trees.build_s"] == 0.30
    assert layers["change"]["trees.build_s"] == 0.18
    assert abs(layers["delta"]["trees.build_s"] + 0.12) < 1e-12
    assert layers["delta"]["trees.nodes"] == 0
    assert "correct" not in layers["delta"]
    assert result["claim_met"] is True
    assert len(result["runs"]["parent"]) == len(result["runs"]["change"]) == 3
    # every run of a side shares that side's bytecode cache
    assert len(caches["parent"]) == len(caches["change"]) == 1
    assert caches["parent"] != caches["change"]


def test_the_claim_is_judged_on_the_chosen_metric(tmp_path, monkeypatch):
    parent_tree = tmp_path / "parent"

    def fake_run(tree, workload, seed, seconds, pycache, trace=0):
        parent = tree == parent_tree
        # the change halves the memory and is no faster
        return {"op_s_p50": 1.0 + 0.01 * seed, "work_per_s": 1.0,
                "setup_s": 0.5, "peak_rss_mb": (380.0 if parent else 180.0)
                + seed % 3, "correct": True, "failed": 0, "attempted": 20}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    monkeypatch.setattr(ab_pairs, "extract", lambda rev, into: parent_tree)
    monkeypatch.setattr(ab_pairs, "commit_of", lambda rev: "0" * 40)
    verdicts = {}
    for metric in (None, "peak_rss_mb"):
        out = tmp_path / f"{metric}.json"
        argv = ["--workload", "smile-n2048", "--pairs", "4", "--out", str(out)]
        assert ab_pairs.main(argv + (["--metric", metric] if metric else [])) == 0
        record = json.loads(out.read_text())
        verdicts[record["metric"]] = \
            record["workloads"]["smile-n2048"]["claim_met"]
    assert verdicts == {"op_s_p50": False, "peak_rss_mb": True}
    with pytest.raises(SystemExit):
        ab_pairs.main(["--workload", "smile-n2048", "--metric", "trees.nodes",
                       "--out", str(tmp_path / "x.json")])


def test_each_side_writes_its_own_bytecode_cache(tmp_path, monkeypatch):
    parent_tree = tmp_path / "parent"
    envs = {"parent": [], "change": []}

    def fake_subprocess_run(cmd, cwd, env, **kwargs):
        envs["parent" if Path(cwd) == parent_tree else "change"].append(env)
        metrics = {name: {"value": 1.0} for name in
                   ("op_s_p50", "work_per_s", "setup_s", "peak_rss_mb")}
        line = json.dumps({"metrics": metrics, "correct": True, "failed": 0,
                           "attempted": 4})
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n",
                                           stderr="")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_subprocess_run)
    monkeypatch.setattr(ab_pairs, "extract", lambda rev, into: parent_tree)
    monkeypatch.setattr(ab_pairs, "commit_of", lambda rev: "0" * 40)
    assert ab_pairs.main(["--workload", "exact-law", "--pairs", "2",
                          "--out", str(tmp_path / "bench.json")]) == 0
    # two pairs and one traced run per side
    assert len(envs["parent"]) == len(envs["change"]) == 3
    parent, change = envs["parent"][0], envs["change"][0]
    assert all(env == parent for env in envs["parent"])
    assert all(env == change for env in envs["change"])
    prefixes = [Path(env.pop("PYTHONPYCACHEPREFIX")) for env in (parent, change)]
    assert prefixes[0] != prefixes[1]
    assert prefixes[0].parent == prefixes[1].parent  # the run's temporary dir
    assert not prefixes[0].parent.exists()  # removed with it
    # otherwise both get this environment, with bytecode writes allowed
    expected = dict(os.environ)
    del expected["PYTHONDONTWRITEBYTECODE"]
    assert parent == change == expected
