"""Black-Scholes utilities, conditional estimator, smiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughsim import pricing
from roughsim.kernels import Grid
from roughsim.models import RoughBergomi, RoughHestonGJRS
from roughsim.pricing import (
    SCHEMES,
    MCConfig,
    NoImpliedVol,
    bs_call,
    bs_put,
    conditional_bs_estimate,
    implied_vol,
    martingale_statistic,
    plain_mc_estimate,
    simulate_logstock,
    smile,
    _logstock_from_variance,
)

# reference: 2*Phi(0.1) - 1 = erf(0.1/sqrt(2)), the ATM unit-forward call
# with total variance 0.04
_ATM_CALL_TV004 = math.erf(0.1 / math.sqrt(2.0))


def _rbergomi(nu=1.0, rho=-0.7, hurst=0.3, xi0=0.04):
    return RoughBergomi(xi0=xi0, nu=nu, hurst=hurst, rho=rho)


def _config(paths=1024, n=64, T=1.0, **kw):
    return MCConfig(num_paths=paths, grid=Grid(n=n, T=T), **kw)


# ----------------------------------------------------------------------
# Black-Scholes utilities
# ----------------------------------------------------------------------

def test_bs_call_values():
    assert bs_call(1.0, 1.0, 0.0) == 0.0
    assert abs(bs_call(1.0, 1.0, 0.04) - _ATM_CALL_TV004) < 1e-15
    assert abs(bs_call(1.0, 1.0, 0.04) - 0.0796557) < 1e-7
    assert 0.2 <= bs_call(1.0, 0.8, 0.04) <= 1.0


def test_bs_call_monotonicity_and_vectorization():
    strikes = np.linspace(0.5, 2.0, 16)
    prices = np.array([bs_call(1.0, k, 0.09) for k in strikes])
    assert np.all(np.diff(prices) < 0.0)
    tvs = np.linspace(0.0, 1.0, 11)
    prices_tv = bs_call(1.0, 1.0, tvs)
    assert prices_tv[0] == 0.0 and np.all(np.diff(prices_tv) > 0.0)
    mixed = bs_call(np.array([0.9, 1.1]), 1.0, np.array([0.0, 0.04]))
    assert mixed[0] == 0.0 and mixed[1] > 0.1


def test_bs_call_validation():
    with pytest.raises(ValueError):
        bs_call(1.0, -1.0, 0.04)
    with pytest.raises(ValueError):
        bs_call(-1.0, 1.0, 0.04)
    with pytest.raises(ValueError):
        bs_call(1.0, 1.0, -0.01)


def test_bs_put_parity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        f = rng.uniform(0.5, 2.0)
        k = rng.uniform(0.5, 2.0)
        tv = rng.uniform(0.0, 0.5)
        put = bs_put(f, k, tv)
        assert put >= 0.0
        assert abs(put - (bs_call(f, k, tv) - f + k)) < 1e-12


def test_implied_vol_round_trip():
    price = bs_call(1.0, 1.0, 0.04)
    assert abs(implied_vol(price, 1.0, 1.0, 1.0) - 0.2) < 1e-8


def test_implied_vol_random_round_trips():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(200):
        sigma = rng.uniform(0.05, 1.0)
        strike = rng.uniform(0.5, 2.0)
        t = rng.choice([0.5, 1.0, 2.0])
        price = bs_call(1.0, strike, sigma * sigma * t)
        worst = max(worst, abs(implied_vol(price, 1.0, strike, t) - sigma))
    assert worst < 1e-7


def test_implied_vol_boundary_errors():
    with pytest.raises(ValueError):
        implied_vol(0.25, 1.0, 0.75, 1.0)  # intrinsic exactly (binary-exact)
    with pytest.raises(ValueError):
        implied_vol(0.1, 1.0, 0.75, 1.0)  # below intrinsic
    with pytest.raises(ValueError):
        implied_vol(1.0, 1.0, 0.75, 1.0)  # at the forward
    with pytest.raises(ValueError):
        implied_vol(0.05, 1.0, 1.0, -1.0)


@pytest.mark.parametrize("price, strike, reason", [
    (0.25, 0.75, "below intrinsic"),  # at intrinsic
    (0.1, 0.75, "below intrinsic"),
    (1.0, 0.75, "above forward"),
    (1e-20, 1.0, "no bracket"),  # needs sigma < 1e-6
    (0.9999, 1.0, "no bracket"),  # needs sigma > 5
])
def test_implied_vol_names_why_there_is_none(price, strike, reason):
    with pytest.raises(NoImpliedVol) as info:
        implied_vol(price, 1.0, strike, 1.0)
    assert info.value.reason == reason


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

def test_mcconfig_validation():
    grid = Grid(n=8, T=1.0)
    with pytest.raises(ValueError):
        MCConfig(num_paths=0, grid=grid)
    with pytest.raises(ValueError):
        MCConfig(num_paths=8, grid=grid, scheme="euler")
    with pytest.raises(ValueError):
        MCConfig(num_paths=8, grid=grid, variance_reduction="cv")
    with pytest.raises(ValueError):
        MCConfig(num_paths=8, grid=grid, method="dft")
    for seed in (2.5, -1, 2 ** 64, "0"):
        with pytest.raises(ValueError, match="seed"):
            MCConfig(num_paths=8, grid=grid, seed=seed)
    MCConfig(num_paths=8, grid=grid, seed=np.uint64(2 ** 64 - 1))


def test_hybrid_requires_rl_brownian():
    model = RoughHestonGJRS(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1,
                            y0=0.04, hurst=0.3, rho=-0.7)
    cfg = _config(paths=8, n=8, scheme="hybrid", antithetic=False)
    with pytest.raises(ValueError, match="hybrid"):
        conditional_bs_estimate(model, cfg, 1.0)


def test_matched_scheme_requires_brownian_driver():
    model = RoughHestonGJRS(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1,
                            y0=0.04, hurst=0.3, rho=-0.7)
    cfg = _config(paths=8, n=8, scheme="rdonsker_matched", antithetic=False)
    with pytest.raises(ValueError, match="Brownian"):
        conditional_bs_estimate(model, cfg, 1.0)


# ----------------------------------------------------------------------
# log-stock simulation
# ----------------------------------------------------------------------

def test_logstock_zero_variance_is_zero():
    grid = Grid(n=8, T=1.0)
    x = _logstock_from_variance(np.zeros((4, 9)), np.ones((4, 8)), grid)
    np.testing.assert_array_equal(x, 0.0)


def test_logstock_rejects_negative_variance():
    grid = Grid(n=2, T=1.0)
    v = np.array([[0.04, -0.01, 0.04]])
    with pytest.raises(ValueError, match="negative variance"):
        _logstock_from_variance(v, np.ones((1, 2)), grid)


def test_logstock_constant_variance_moments():
    # nu = 0 freezes V at 0.04: X(T) ~ N(-0.02, 0.04)
    model = _rbergomi(nu=0.0, rho=0.0)
    cfg = _config(paths=100_000, n=64, antithetic=False, seed=3)
    x = simulate_logstock(model, cfg)
    terminal = x.values[:, -1]
    m = len(terminal)
    assert abs(terminal.mean() + 0.02) < 3 * terminal.std(ddof=1) / np.sqrt(m)
    var_err = 0.04 * np.sqrt(2.0 / m)
    assert abs(terminal.var(ddof=1) - 0.04) < 3 * var_err


_CHUNK_MODELS = [(_rbergomi(hurst=0.2), scheme) for scheme in SCHEMES] + [
    # clamps at zero, so the merged clamp stats are checked too
    (RoughHestonGJRS(eta=0.01, kappa=1.0, theta=0.04, vol_of_vol=0.25,
                     y0=0.04, hurst=0.3, rho=-0.7), "rdonsker_left")]
_CHUNK_STRIKES = np.array([0.5, 0.9, 1.0, 1.2, 2.5])


def _chunk_run(estimator, model, cfg):
    if estimator == "martingale":
        return martingale_statistic(model, cfg)
    if estimator == "logstock":
        x = simulate_logstock(model, cfg)
        return x.values, x.stats
    result = smile(model, cfg, _CHUNK_STRIKES, payoff="put")
    reasons = result.metadata["iv_nan_reasons"]
    assert sorted(reasons) == np.flatnonzero(np.isnan(result.implied_vols)).tolist()
    return (result.prices, result.stderrs, result.implied_vols,
            result.metadata["stats"], reasons)


@settings(max_examples=60, deadline=None)
@given(chunk_elements=st.integers(1, 400), base_paths=st.integers(1, 30),
       model_scheme=st.sampled_from(_CHUNK_MODELS), antithetic=st.booleans(),
       estimator=st.sampled_from(["conditional_bs", "none", "martingale",
                                  "logstock"]))
def test_chunking_never_changes_a_result(chunk_elements, base_paths,
                                         model_scheme, antithetic, estimator):
    model, scheme = model_scheme
    cfg = _config(paths=4 * base_paths if antithetic else base_paths, n=8,
                  scheme=scheme, antithetic=antithetic, seed=base_paths,
                  variance_reduction="none" if estimator == "none"
                  else "conditional_bs")
    whole = _chunk_run(estimator, model, cfg)
    saved = pricing._CHUNK_ELEMENTS
    pricing._CHUNK_ELEMENTS = chunk_elements
    try:
        chunked = _chunk_run(estimator, model, cfg)
    finally:
        pricing._CHUNK_ELEMENTS = saved
    for a, b in zip(whole, chunked):
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)  # NaN equals NaN here
        else:
            assert a == b


def test_chunked_pipeline_matches_monolithic(monkeypatch):
    model = _rbergomi()
    cfg = _config(paths=64, n=32, antithetic=True, seed=5)
    full = simulate_logstock(model, cfg)
    import roughsim.pricing as pricing
    monkeypatch.setattr(pricing, "_CHUNK_ELEMENTS", 32 * 8)
    chunked = simulate_logstock(model, cfg)
    np.testing.assert_array_equal(full.values, chunked.values)


# ----------------------------------------------------------------------
# conditional Black-Scholes estimator
# ----------------------------------------------------------------------

def test_flat_model_conditional_price_is_closed_form():
    # nu = 0, rho = 0: every path returns the same closed-form price
    model = _rbergomi(nu=0.0, rho=0.0)
    cfg = _config(paths=64, n=16, antithetic=False, seed=1)
    for strike in (0.8, 1.0, 1.2):
        mean, err = conditional_bs_estimate(model, cfg, strike)
        assert err == 0.0
        assert abs(mean - bs_call(1.0, strike, 0.04)) < 1e-15


def test_full_correlation_degenerates_to_plain_mc():
    # |rho| = 1: residual variance vanishes and X1 is the whole log-stock
    model = _rbergomi(nu=1.0, rho=-1.0)
    cfg = _config(paths=4096, n=32, antithetic=True, seed=7)
    for strike in (0.9, 1.1):
        c_mean, c_err = conditional_bs_estimate(model, cfg, strike)
        p_mean, p_err = plain_mc_estimate(model, cfg, strike)
        assert abs(c_mean - p_mean) < 1e-12
        assert abs(c_err - p_err) < 1e-12


def test_estimator_consistency_and_variance_reduction():
    model = _rbergomi()
    cfg_a = _config(paths=20_000, n=64, antithetic=False, seed=11)
    cfg_b = _config(paths=20_000, n=64, antithetic=False, seed=12)
    c_mean, c_err = conditional_bs_estimate(model, cfg_a, 1.0)
    p_mean, p_err = plain_mc_estimate(model, cfg_b, 1.0)
    assert abs(c_mean - p_mean) < 3 * np.hypot(c_err, p_err)
    # regression guard: conditioning must cut the ATM standard error
    assert c_err <= 0.8 * p_err


def test_antithetic_unbiased_and_tighter():
    model = _rbergomi()
    cfg_anti = _config(paths=40_000, n=32, antithetic=True, seed=21)
    cfg_plain = _config(paths=40_000, n=32, antithetic=False, seed=22)
    a_mean, a_err = conditional_bs_estimate(model, cfg_anti, 1.0)
    p_mean, p_err = conditional_bs_estimate(model, cfg_plain, 1.0)
    assert abs(a_mean - p_mean) < 3 * np.hypot(a_err, p_err)
    assert a_err <= p_err


def test_put_payoff_estimates_parity():
    model = _rbergomi()
    cfg = _config(paths=8192, n=32, antithetic=True, seed=31)
    call, _ = conditional_bs_estimate(model, cfg, 1.1, payoff="call")
    put, _ = conditional_bs_estimate(model, cfg, 1.1, payoff="put")
    # per-path parity: mean call - mean put = mean forward - strike, and
    # the mean forward fluctuates around the spot
    mean_forward = call - put + 1.1
    assert abs(mean_forward - 1.0) < 0.05


# ----------------------------------------------------------------------
# martingale property
# ----------------------------------------------------------------------

@pytest.mark.parametrize("model", [
    _rbergomi(),
    RoughHestonGJRS(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1,
                    y0=0.04, hurst=0.3, rho=-0.7),
])
def test_exponential_martingale(model):
    scheme = "rdonsker_matched" if model.driver() == "brownian" \
        else "rdonsker_left"
    cfg = _config(paths=40_000, n=64, antithetic=True, seed=41, scheme=scheme)
    mean, err = martingale_statistic(model, cfg)
    assert abs(mean - 1.0) < 3 * err


# ----------------------------------------------------------------------
# smiles
# ----------------------------------------------------------------------

def test_flat_smile():
    model = _rbergomi(nu=0.0, rho=0.0)
    cfg = _config(paths=64, n=16, antithetic=False, seed=2)
    result = smile(model, cfg, np.linspace(0.8, 1.2, 9))
    np.testing.assert_allclose(result.implied_vols, 0.2, atol=1e-6)
    np.testing.assert_array_equal(result.stderrs, 0.0)
    assert result.metadata["scheme"] == "rdonsker_matched"
    assert result.metadata["runtime_seconds"] > 0.0


def test_smile_call_prices_decrease_in_strike():
    model = _rbergomi()
    cfg = _config(paths=8192, n=32, antithetic=True, seed=13)
    result = smile(model, cfg, np.linspace(0.8, 1.2, 9))
    assert np.all(np.diff(result.prices) < 0.0)
    assert np.all(result.prices >= 0.0)
    assert np.all(np.isfinite(result.implied_vols))


def test_smile_names_why_each_implied_vol_is_nan():
    # plain MC: no path ends above 3, so that call is worth 0 < intrinsic
    model = _rbergomi()
    cfg = _config(paths=256, n=8, variance_reduction="none", seed=4)
    result = smile(model, cfg, [1.0, 3.0])
    assert np.isfinite(result.implied_vols[0])
    assert result.prices[1] == 0.0 and np.isnan(result.implied_vols[1])
    assert result.metadata["iv_nan_reasons"] == {1: "below intrinsic"}


def test_smile_strike_validation():
    model = _rbergomi()
    cfg = _config(paths=16, n=8, antithetic=False)
    with pytest.raises(ValueError):
        smile(model, cfg, [1.2, 0.8])
    with pytest.raises(ValueError):
        smile(model, cfg, [])
    with pytest.raises(ValueError):
        smile(model, cfg, [1.0], payoff="straddle")
