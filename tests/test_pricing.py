"""Black-Scholes utilities, conditional estimator, smiles."""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughsim import pricing, volterra
from roughsim.kernels import Grid
from roughsim.models import GammaBergomi, RoughBergomi, RoughHestonGJRS
from roughsim.shocks import NoiseConfig, draw_shocks
from roughsim.volterra import DiffusionSpec, euler_diffusion
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


def test_deep_out_of_the_money_put_is_priced_by_its_own_formula(monkeypatch):
    # parity through the call loses ~6e-12 relative here, in the call's
    # cancellation F - K + C; the put formula keeps 1e-13
    f, k, tv = 1.0, 0.5, 0.04
    s = math.sqrt(tv)
    d1 = (math.log(f) - math.log(k)) / s + 0.5 * s
    # N(x) = erfc(-x / sqrt(2)) / 2
    reference = 0.5 * (k * math.erfc((d1 - s) / math.sqrt(2.0))
                       - f * math.erfc(d1 / math.sqrt(2.0)))
    assert abs(bs_put(f, k, tv) / reference - 1.0) < 1e-13
    monkeypatch.setattr(pricing, "bs_call", None)  # the put does not use it
    puts = bs_put(np.array([f, 0.8, 1.2]), k, np.array([tv, 0.0, 0.0]))
    assert puts[0] == bs_put(f, k, tv)
    assert puts[1] == puts[2] == 0.0
    assert bs_put(0.4, k, 0.0) == k - 0.4


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


# (build, parameter name, test id): build() must raise a ValueError naming
# the parameter; a NaN fails every comparison, so each check asks for the
# good case
_REFUSED = [pytest.param(*case[:2], id=case[-1]) for case in [
    (lambda: bs_call(1.0, math.nan, 0.04), "strike", "call strike=nan"),
    (lambda: bs_put(1.0, math.inf, 0.04), "strike", "put strike=inf"),
    (lambda: bs_call(math.nan, 1.0, 0.04), "forward", "call forward=nan"),
    (lambda: bs_put(np.array([1.0, math.inf]), 1.0, 0.04), "forward",
     "put forward=inf"),
    (lambda: bs_call(1.0, 1.0, math.nan), "total variance", "call tv=nan"),
    (lambda: bs_put(1.0, 1.0, np.array([0.04, math.inf])), "total variance",
     "put tv=inf"),
    (lambda: implied_vol(0.1, 1.0, 1.0, math.nan), "maturity", "maturity=nan"),
    (lambda: implied_vol(0.1, math.nan, 1.0, 1.0), "forward", "iv forward=nan"),
    (lambda: implied_vol(0.1, math.inf, 1.0, 1.0), "forward", "iv forward=inf"),
    (lambda: implied_vol(0.1, -math.inf, 1.0, 1.0), "forward",
     "iv forward=-inf"),
    (lambda: implied_vol(0.1, 1.0, math.nan, 1.0), "strike", "iv strike=nan"),
    (lambda: implied_vol(0.1, 1.0, -1.0, 1.0), "strike", "iv strike=-1"),
    (lambda: implied_vol(0.1, 1.0, 0.0, 1.0), "strike", "iv strike=0"),
    (lambda: implied_vol(math.nan, 1.0, 1.0, 1.0), "price", "iv price=nan"),
    (lambda: MCConfig(num_paths=2.5, grid=Grid(n=8, T=1.0)), "num_paths",
     "num_paths=2.5"),
]]


@pytest.mark.parametrize("build, name", _REFUSED)
def test_nan_and_infinite_inputs_are_refused_by_name(build, name):
    with pytest.raises(ValueError, match=name) as err:
        build()
    assert not isinstance(err.value, NoImpliedVol)  # a bad input, not a price


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


@dataclass(frozen=True)
class _BlowUpHeston(RoughHestonGJRS):
    """Rough Heston over a Brownian walk whose drift is inf once y > 1.5."""

    def driver(self):
        return DiffusionSpec(drift=lambda y: np.where(y > 1.5, np.inf, 0.0),
                             diffusion=lambda y: np.ones_like(y), y0=0.0,
                             name="walk")


_BLOW_UP = _BlowUpHeston(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1,
                         y0=0.04, hurst=0.3, rho=-0.7)


@pytest.mark.parametrize("model,cfg,error,message", [
    (_BLOW_UP, _config(paths=64, n=8, scheme="rdonsker_left", antithetic=True,
                       seed=3),
     RuntimeError, "euler:walk state non-finite: path 16, time index 3 is inf"),
    # paths 13 and 20 blow up, 20 first: the lowest path is named
    (_BLOW_UP, _config(paths=64, n=8, scheme="rdonsker_left", antithetic=True,
                       seed=4),
     RuntimeError, "euler:walk state non-finite: path 13, time index 6 is inf"),
    # the Bergomi variance overflows where 1.55 phi - 1.2 Q(t) exceeds 3;
    # at rho = 0 every conditional forward is the spot, so no other check
    # fails on the paths before it
    (_rbergomi(xi0=np.finfo(float).max / math.exp(3.0), rho=0.0),
     _config(paths=64, n=8, antithetic=True, seed=0),
     ValueError, "rdonsker_matched variance paths are not finite: path 28, "
                 "time index 5 is inf; "),
], ids=["euler", "euler lowest path", "variance"])
def test_a_failing_path_is_named_alike_in_every_chunking(monkeypatch, model,
                                                         cfg, error, message):
    # one chunk, chunks of 16 rows and chunks of one antithetic group: the
    # seed-3 path is never in the first chunk of the last two
    for chunk_elements in (pricing._CHUNK_ELEMENTS, 16 * 8, 5 * 8):
        monkeypatch.setattr(pricing, "_CHUNK_ELEMENTS", chunk_elements)
        with pytest.raises(error) as err, np.errstate(over="ignore"):
            smile(model, cfg, [1.0])
        assert str(err.value).startswith(message)
    if error is RuntimeError:  # the driver alone on every path agrees
        zeta = draw_shocks(NoiseConfig(paths=64, steps=8, rho=model.rho,
                                       seed=cfg.seed, antithetic=True)).zeta
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            euler_diffusion(model.driver(), zeta, cfg.grid)


@pytest.mark.parametrize("xi0,nu,message", [
    # a variance overflow on path 31 outranks the zero conditional forward
    # that an earlier path's huge but finite variance gives
    (np.finfo(float).max / math.exp(3.0), 1.0,
     "rdonsker_matched variance paths are not finite: path 31, time index 4 "
     "is inf; the variance map's exp("),
    # finite variances whose integral sends e^{X1} below the smallest double
    (1000.0, 0.5, "conditional forwards are not positive: path 15 is 0.0 "
                  "(X1 = -770."),
], ids=["variance", "estimator"])
def test_a_failing_smile_raises_alike_in_every_chunking(monkeypatch, xi0, nu,
                                                         message):
    model = _rbergomi(xi0=xi0, nu=nu)
    cfg = _config(paths=64, n=8, antithetic=True, seed=0)
    # one chunk, chunks of 16 rows and chunks of one antithetic group
    for chunk_elements in (pricing._CHUNK_ELEMENTS, 16 * 8, 5 * 8):
        monkeypatch.setattr(pricing, "_CHUNK_ELEMENTS", chunk_elements)
        with pytest.raises(ValueError) as err, np.errstate(over="ignore"):
            smile(model, cfg, [1.0])
        assert str(err.value).startswith(message)


@pytest.mark.parametrize("payoff", ["call", "put"])
def test_the_plain_estimator_names_a_non_positive_stock(monkeypatch, payoff):
    # finite variances whose log-stock sends e^{X(T)} below the smallest
    # double: the plain estimator names the path, as the conditional one
    # does, where it would price every payoff at its zero-stock value
    model = _rbergomi(xi0=1000.0, nu=0.5)
    cfg = _config(paths=64, n=8, antithetic=True, seed=0,
                  variance_reduction="none")
    for chunk_elements in (pricing._CHUNK_ELEMENTS, 16 * 8, 5 * 8):
        monkeypatch.setattr(pricing, "_CHUNK_ELEMENTS", chunk_elements)
        with pytest.raises(pricing.NonPositiveStock) as err:
            smile(model, cfg, [1.0], payoff=payoff)
        assert str(err.value).startswith("simulated stocks are not positive: "
                                         "path 11 is 0.0 (X(T) = -1377.")


@pytest.mark.parametrize("model,scheme,n", [
    (_rbergomi(hurst=0.1), "rdonsker_matched", 256),
    (_rbergomi(hurst=0.1), "hybrid", 256),
    (RoughHestonGJRS(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1, y0=0.04,
                     hurst=0.1, rho=-0.7), "rdonsker_left", 2048),
], ids=["matched", "hybrid", "rough-heston-left"])
def test_a_smile_chunk_holds_about_three_path_arrays(model, scheme, n):
    # numpy reports its allocations to tracemalloc. A chunk's shocks, its
    # scheme paths (into which the variance is mapped and sqrt(V) taken)
    # and the scheme's own output or Euler levels (convolved in place) are
    # about three arrays of the chunk; the previous chunk's are freed
    # before the next draws. The FFT's row blocks come on top.
    paths = 2 * pricing._CHUNK_ELEMENTS // n  # two chunks
    cfg = _config(paths=paths, n=n, scheme=scheme, antithetic=True, seed=7)
    layout = pricing.chunk_layout(paths, n, 4)
    assert layout["chunks"] == 2
    chunk_array = 8 * layout["chunk_rows"] * (n + 1)
    tracemalloc.start()
    try:
        result = smile(model, cfg, np.linspace(0.8, 1.2, 9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(result.implied_vols))
    assert peak <= 3.5 * chunk_array + 6 * volterra._FFT_BLOCK_BYTES


@pytest.mark.parametrize("estimate", ["plain_smile", "martingale"])
def test_a_log_stock_chunk_holds_about_four_path_arrays(estimate):
    # the plain estimator and martingale_statistic hold a chunk's shocks
    # zeta and xi, its variance (which takes the drift) and its log-stock,
    # in whose columns the increments are built and summed
    n = 256
    paths = 2 * pricing._CHUNK_ELEMENTS // n  # two chunks
    cfg = _config(paths=paths, n=n, variance_reduction="none",
                  antithetic=True, seed=7)
    chunk_array = 8 * pricing.chunk_layout(paths, n, 4)["chunk_rows"] * (n + 1)
    model = _rbergomi(hurst=0.1)
    tracemalloc.start()
    try:
        if estimate == "plain_smile":
            smile(model, cfg, np.linspace(0.8, 1.2, 9))
        else:
            martingale_statistic(model, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * chunk_array


def _recorded_chunks(monkeypatch):
    """The (start, stop) base ranges and antithetic group of every draw."""
    chunks = []
    draw = pricing.draw_shocks

    def recording(noise, base_range=None):
        shocks = draw(noise, base_range=base_range)
        chunks.append((base_range, shocks.antithetic_group))
        return shocks

    monkeypatch.setattr(pricing, "draw_shocks", recording)
    return chunks


@pytest.mark.parametrize("model,scheme", [
    (_rbergomi(hurst=0.1), "rdonsker_matched"),
    (RoughHestonGJRS(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1, y0=0.04,
                     hurst=0.1, rho=-0.7), "rdonsker_left"),
])
def test_a_long_grid_smile_runs_in_chunks_of_the_cap(monkeypatch, model, scheme):
    chunks = _recorded_chunks(monkeypatch)
    cfg = _config(paths=4096, n=2048, scheme=scheme, antithetic=True, seed=1)
    result = smile(model, cfg, [0.9, 1.0, 1.1])
    cap = max(4, pricing._CHUNK_ELEMENTS // 2048)
    assert [r for r, _ in chunks] == [(0, 256), (256, 512), (512, 768),
                                      (768, 1024)]
    assert all(group * (stop - start) <= cap
               for (start, stop), group in chunks)
    assert result.metadata["chunking"] == {"chunks": 4, "chunk_rows": 1024}


@settings(max_examples=40, deadline=None)
@given(chunk_elements=st.integers(1, 200), base_paths=st.integers(1, 20),
       n=st.integers(1, 12), antithetic=st.booleans(),
       rho=st.sampled_from([-0.7, -1.0]))
def test_chunks_tile_the_paths_under_the_cap(chunk_elements, base_paths, n,
                                             antithetic, rho):
    with pytest.MonkeyPatch.context() as mp:
        chunks = _recorded_chunks(mp)
        mp.setattr(pricing, "_CHUNK_ELEMENTS", chunk_elements)
        group = (2 if rho == -1.0 else 4) if antithetic else 1
        cfg = _config(paths=group * base_paths, n=n, antithetic=antithetic,
                      seed=base_paths)
        result = smile(_rbergomi(rho=rho), cfg, [1.0])
    ranges = [r for r, _ in chunks]
    assert ranges[0][0] == 0 and ranges[-1][1] == base_paths
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    cap = max(group, chunk_elements // n)
    assert all(g == group and g * (stop - start) <= cap
               for (start, stop), g in chunks)
    assert result.metadata["chunking"] == {
        "chunks": len(ranges), "chunk_rows": group * (ranges[0][1] - ranges[0][0])}


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


# the schemes each model type runs: the hybrid needs the Riemann-Liouville
# kernel and a Brownian driver, moment matching a Brownian driver
_MODEL_SCHEMES = [
    *((kind, scheme) for kind in ("rbergomi", "gbergomi")
      for scheme in SCHEMES if (kind, scheme) != ("gbergomi", "hybrid")),
    ("rheston_gjrs", "rdonsker_left"),
]


def _model(kind, hurst, rho, nu):
    if kind == "rheston_gjrs":
        return RoughHestonGJRS(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1,
                               y0=0.04, hurst=hurst, rho=rho)
    cls = RoughBergomi if kind == "rbergomi" else GammaBergomi
    return cls(xi0=0.04, nu=nu, hurst=hurst, rho=rho)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       model_scheme=st.sampled_from(_MODEL_SCHEMES),
       hurst=st.sampled_from([0.1, 0.3, 0.5]),
       rho=st.sampled_from([-1.0, -0.7, 0.0, 0.4]),
       nu=st.floats(0.0, 1.5), antithetic=st.booleans(),
       variance_reduction=st.sampled_from(["conditional_bs", "none"]),
       low=st.floats(0.6, 1.2), gap=st.floats(0.01, 0.5))
def test_call_put_spreads_obey_parity_on_shared_paths(
        seed, model_scheme, hurst, rho, nu, antithetic, variance_reduction,
        low, gap):
    # per path, call - put = forward - strike, so across two strikes the
    # sample forward cancels: (C1 - P1) - (C2 - P2) = K2 - K1
    kind, scheme = model_scheme
    model = _model(kind, hurst, rho, nu)
    cfg = _config(paths=8, n=8, scheme=scheme, antithetic=antithetic,
                  variance_reduction=variance_reduction, seed=seed)
    strikes = [low, low + gap]
    calls = smile(model, cfg, strikes, payoff="call").prices
    puts = smile(model, cfg, strikes, payoff="put").prices
    spread = (calls[0] - puts[0]) - (calls[1] - puts[1])
    assert abs(spread - (strikes[1] - strikes[0])) < 1e-12


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


@pytest.mark.parametrize("model, scheme, antithetic, rows", [
    (_rbergomi(), "rdonsker_matched", True, 32),   # groups of four, half run
    (_rbergomi(rho=-1.0), "hybrid", True, 32),     # pairs, half run
    (_rbergomi(), "hybrid", False, 64),
    # an Euler-stepped driver is never mirrored
    (RoughHestonGJRS(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1, y0=0.04,
                     hurst=0.3, rho=-0.7), "rdonsker_left", True, 64)])
def test_scheme_rows_count_the_rows_the_scheme_ran_on(model, scheme,
                                                      antithetic, rows):
    cfg = _config(paths=64, n=8, scheme=scheme, antithetic=antithetic,
                  seed=4)
    assert smile(model, cfg, [1.0]).metadata["stats"]["scheme_rows"] == rows
    assert simulate_logstock(model, cfg).stats["scheme_rows"] == rows
