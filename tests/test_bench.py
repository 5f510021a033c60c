"""Benchmark harness: timing units, report schema, the timed pipeline."""

import pytest

from roughsim import pricing
from roughsim.bench import (
    BENCH_GRID,
    BENCH_SCHEMES,
    _pipeline_price,
    run_bench,
    time_full_pipeline,
    time_path_generation,
)
from roughsim.kernels import Grid
from roughsim.models import RoughBergomi


def test_path_generation_timings_positive():
    for scheme in BENCH_SCHEMES:
        t = time_path_generation(scheme, 32, paths=8, trials=3)
        assert t > 0.0


def test_path_generation_rejects_unknown_scheme_and_trials():
    with pytest.raises(ValueError, match="unknown benchmark scheme"):
        time_path_generation("bogus", 32, paths=4, trials=1)
    with pytest.raises(ValueError, match="trials"):
        time_path_generation("rdonsker-fft", 32, paths=4, trials=0)


@pytest.mark.parametrize("trials", [1.5, True, 0, -2])
def test_timers_refuse_a_trial_count_that_is_no_positive_integer(trials):
    with pytest.raises(ValueError, match="trials"):
        time_path_generation("rdonsker-fft", 32, paths=4, trials=trials)
    with pytest.raises(ValueError, match="trials"):
        time_full_pipeline("rdonsker-fft", 8, 4, trials=trials)


def test_report_schema_stable():
    report = run_bench(schemes=("rdonsker-fft", "markovian-euler"),
                       grid=(16, 32), paths=8, trials=2)
    assert set(report) == {"schema_version", "protocol", "timings"}
    assert report["schema_version"] == 1
    assert set(report["protocol"]) == {"paths", "trials", "hurst", "seed",
                                       "timed_unit"}
    assert len(report["timings"]) == 4
    for cell in report["timings"]:
        assert set(cell) == {"scheme", "steps", "median_seconds", "trials",
                             "pipeline_chunking"}
        assert cell["median_seconds"] > 0.0
    assert BENCH_GRID == (256, 1024, 4096, 8192)


def test_report_gives_the_pipelines_chunk_layout(monkeypatch):
    monkeypatch.setattr(pricing, "_CHUNK_ELEMENTS", 64)
    report = run_bench(schemes=("markovian-euler",), grid=(16, 32, 128),
                       paths=10, trials=1)
    assert [cell["pipeline_chunking"] for cell in report["timings"]] == [
        {"chunks": 3, "chunk_rows": 4}, {"chunks": 5, "chunk_rows": 2},
        {"chunks": 10, "chunk_rows": 1}]


def test_pipeline_chunking_is_exact(monkeypatch):
    # the timed pipeline is the library's plain estimator, in any chunking
    model = RoughBergomi(xi0=0.04, nu=1.0, hurst=0.3, rho=-0.7)
    config = pricing.MCConfig(num_paths=3000, grid=Grid(32, 1.0),
                              variance_reduction="none", antithetic=False,
                              seed=9)
    library, _ = pricing.plain_mc_estimate(model, config, 1.0)
    whole = _pipeline_price("rdonsker-fft", 32, 3000, seed=9)
    monkeypatch.setattr(pricing, "_CHUNK_ELEMENTS", 32 * 700)
    chunked = _pipeline_price("rdonsker-fft", 32, 3000, seed=9)
    assert whole == library
    assert chunked == library


def test_pipeline_kinds_produce_sane_prices():
    for kind in ("rdonsker-fft", "markovian-euler"):
        price = _pipeline_price(kind, 64, 4000, seed=3)
        assert 0.02 < price < 0.2  # ATM call, vol ~0.2, maturity 1
    with pytest.raises(ValueError, match="unknown pipeline kind"):
        _pipeline_price("hybrid", 32, 100, seed=0)


def test_full_pipeline_timing_positive():
    assert time_full_pipeline("markovian-euler", steps=64, paths=2000,
                              trials=1) > 0.0
