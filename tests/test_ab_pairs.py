"""The regression verdicts of tools/ab_pairs.py on made-up runs."""

import importlib.util
from pathlib import Path

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
