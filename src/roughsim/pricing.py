"""Monte-Carlo pricing with conditional Black-Scholes variance reduction.

The pipeline draws correlated shocks, builds variance paths V through the
configured Volterra scheme, and prices European options either by plain
payoff averaging on simulated log-stocks or by Romano-Touzi conditioning:
given the volatility driver's path, the log-stock is Gaussian, so each
path contributes a closed-form Black-Scholes price with per-path forward
e^{X1} and residual variance (1-rho^2) * integral of V.

Paths are processed in fixed-size chunks (per-path counter RNG makes the
chunked run bitwise identical to a monolithic one), keeping memory flat
at desk-scale path counts. Estimator statistics are computed over
antithetic group means when antithetics are on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from roughsim.kernels import Grid
from roughsim.models import phi_apply
from roughsim.shocks import NoiseConfig, base_group, draw_shocks
from roughsim.volterra import (
    CONV_METHODS,
    PathSet,
    hybrid_scheme_rl,
    rdonsker_volterra,
)

SCHEMES = ("rdonsker_matched", "rdonsker_left", "hybrid")
PAYOFFS = ("call", "put")
VARIANCE_REDUCTIONS = ("conditional_bs", "none")
# chunk sizing: cap the per-chunk element count so several M x n
# temporaries stay well under typical memory budgets
_CHUNK_ELEMENTS = 8_388_608


# ----------------------------------------------------------------------
# configuration and result types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MCConfig:
    """Monte-Carlo run description."""

    num_paths: int
    grid: Grid
    scheme: str = "rdonsker_matched"
    variance_reduction: str = "conditional_bs"
    antithetic: bool = True
    seed: int = 0
    method: str = "fft"

    def __post_init__(self):
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick from {SCHEMES}")
        if self.variance_reduction not in VARIANCE_REDUCTIONS:
            raise ValueError(
                f"unknown variance_reduction {self.variance_reduction!r}")
        if self.method not in CONV_METHODS:
            raise ValueError(f"unknown convolution method {self.method!r}")


@dataclass
class SmileResult:
    """Strike grid with prices, standard errors and implied vols."""

    strikes: np.ndarray
    prices: np.ndarray
    stderrs: np.ndarray
    implied_vols: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        k = len(self.strikes)
        for name in ("prices", "stderrs", "implied_vols"):
            if len(getattr(self, name)) != k:
                raise ValueError(f"{name} length does not match strikes")
        if np.any(self.prices < 0.0) or np.any(self.stderrs < 0.0):
            raise ValueError("prices and stderrs must be nonnegative")


# ----------------------------------------------------------------------
# Black-Scholes utilities
# ----------------------------------------------------------------------

def bs_call(forward, strike: float, total_variance):
    """Undiscounted Black-Scholes call on the forward.

    Vectorized over `forward` / `total_variance`; zero total variance
    returns the intrinsic value.
    """
    if strike <= 0.0:
        raise ValueError("strike must be positive")
    f = np.asarray(forward, dtype=float)
    tv = np.asarray(total_variance, dtype=float)
    if np.any(f <= 0.0):
        raise ValueError("forward must be positive")
    if np.any(tv < 0.0):
        raise ValueError("total variance must be nonnegative")
    scalar = f.ndim == 0 and tv.ndim == 0
    f, tv = np.atleast_1d(*np.broadcast_arrays(f, tv))
    out = np.maximum(f - strike, 0.0).astype(float)
    pos = tv > 0.0
    if np.any(pos):
        s = np.sqrt(tv[pos])
        fp = f[pos]
        d1 = np.log(fp / strike) / s + 0.5 * s
        out[pos] = fp * ndtr(d1) - strike * ndtr(d1 - s)
    return float(out[0]) if scalar else out


def bs_put(forward, strike: float, total_variance):
    """Undiscounted put via parity; exact nonnegativity enforced."""
    f = np.asarray(forward, dtype=float)
    value = bs_call(forward, strike, total_variance) - f + strike
    return np.maximum(value, 0.0) if isinstance(value, np.ndarray) \
        else max(value, 0.0)


def implied_vol(price: float, forward: float, strike: float,
                maturity: float) -> float:
    """Invert the Black-Scholes call price to a volatility.

    Bracketed root-finding on sigma in [1e-6, 5]; raises ValueError when
    the price sits outside the open no-arbitrage band (intrinsic, forward)
    or outside the bracket's price range.
    """
    if maturity <= 0.0:
        raise ValueError("maturity must be positive")
    intrinsic = max(forward - strike, 0.0)
    if not intrinsic < price < forward:
        raise ValueError(
            f"price {price} outside open no-arbitrage bounds "
            f"({intrinsic}, {forward}); no implied volatility"
        )
    lo, hi = 1e-6, 5.0

    def gap(sigma):
        return bs_call(forward, strike, sigma * sigma * maturity) - price

    if gap(lo) >= 0.0 or gap(hi) <= 0.0:
        raise ValueError(f"no volatility in [{lo}, {hi}] reproduces price {price}")
    return float(brentq(gap, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200))


# ----------------------------------------------------------------------
# variance-path pipeline (chunked)
# ----------------------------------------------------------------------

def _noise_config(model, config: MCConfig) -> NoiseConfig:
    return NoiseConfig(distribution="gaussian", paths=config.num_paths,
                       steps=config.grid.n, rho=model.rho, seed=config.seed,
                       antithetic=config.antithetic)


def _variance_chunk(model, config: MCConfig, shocks, base_offset: int) -> PathSet:
    """Volterra paths for one shock chunk, mapped through Phi."""
    kernel = model.kernel()
    driver = model.driver()
    if config.scheme == "hybrid":
        if kernel.kind != "rl" or driver != "brownian":
            raise ValueError(
                "hybrid scheme requires a Riemann-Liouville kernel with a "
                "Brownian driver"
            )
        vol = hybrid_scheme_rl(model.hurst, shocks.zeta, config.grid,
                               seed=config.seed,
                               antithetic_group=shocks.antithetic_group,
                               base_offset=base_offset)
    else:
        mode = ("moment_matched" if config.scheme == "rdonsker_matched"
                else "left_point")
        vol = rdonsker_volterra(kernel, driver, shocks.zeta, config.grid,
                                eval_mode=mode, method=config.method)
    return phi_apply(model, vol, config.grid)


def _iter_variance_chunks(model, config: MCConfig):
    """Yield (variance PathSet, shocks) chunk pairs covering all paths."""
    ncfg = _noise_config(model, config)
    group = base_group(ncfg)
    total_base = config.num_paths // group
    rows_cap = max(group, _CHUNK_ELEMENTS // max(config.grid.n, 1))
    base_step = max(1, rows_cap // group)
    for start in range(0, total_base, base_step):
        stop = min(total_base, start + base_step)
        shocks = draw_shocks(ncfg, base_range=(start, stop))
        yield _variance_chunk(model, config, shocks, start), shocks


def _merge_stats(total: dict, stats: dict) -> None:
    for key in ("clamp_cells", "domain_clips"):
        if key in stats:
            total[key] = total.get(key, 0) + stats[key]


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------

def _group_means(values: np.ndarray, group: int) -> np.ndarray:
    if group == 1:
        return values
    if values.ndim == 1:
        return values.reshape(-1, group).mean(axis=1)
    return values.reshape(-1, group, values.shape[1]).mean(axis=1)


def _mean_stderr(groups: np.ndarray) -> tuple:
    """Column-wise mean and standard error over a 2-d group-means array.

    A bitwise-constant column is reported with zero standard error (no
    floating-summation residue)."""
    num = groups.shape[0]
    means = np.empty(groups.shape[1])
    errs = np.empty(groups.shape[1])
    for k in range(groups.shape[1]):
        col = groups[:, k]
        if np.all(col == col[0]):
            means[k], errs[k] = col[0], 0.0
        else:
            means[k] = col.mean()
            errs[k] = col.std(ddof=1) / np.sqrt(num)
    return means, errs


def _logstock_from_variance(v: np.ndarray, xi: np.ndarray, grid: Grid) -> np.ndarray:
    """Euler log-stock: increments -V/2*dt + sqrt(V*dt)*xi, left-point V."""
    if np.any(v < 0.0):
        raise ValueError("negative variance entering the log-stock step")
    vleft = v[:, :-1]
    dt = grid.dt
    inc = -0.5 * vleft * dt + np.sqrt(vleft * dt) * xi
    x = np.empty((v.shape[0], grid.n + 1))
    x[:, 0] = 0.0
    np.cumsum(inc, axis=1, out=x[:, 1:])
    return x


def simulate_logstock(model, config: MCConfig) -> PathSet:
    """Simulate log-stock paths X (X(0) = 0) under the model.

    Materializes the full M x (n+1) array; for estimator-only work the
    pricing entry points below stream chunks instead.
    """
    parts = []
    stats = {}
    tag = None
    for v, shocks in _iter_variance_chunks(model, config):
        parts.append(_logstock_from_variance(v.values, shocks.xi, config.grid))
        _merge_stats(stats, v.stats)
        tag = v.scheme_tag
    return PathSet(values=np.vstack(parts), grid=config.grid,
                   scheme_tag=f"{tag}_logstock", seed=config.seed, stats=stats)


def _payoff_matrix(terminal_stock: np.ndarray, strikes: np.ndarray,
                   payoff: str) -> np.ndarray:
    if payoff == "call":
        return np.maximum(terminal_stock[:, None] - strikes[None, :], 0.0)
    return np.maximum(strikes[None, :] - terminal_stock[:, None], 0.0)


def _plain_group_means(model, config: MCConfig, strikes: np.ndarray,
                       payoff: str, stats: dict) -> np.ndarray:
    group = base_group(_noise_config(model, config))
    blocks = []
    for v, shocks in _iter_variance_chunks(model, config):
        x = _logstock_from_variance(v.values, shocks.xi, config.grid)
        terminal = model.spot * np.exp(x[:, -1])
        blocks.append(_group_means(_payoff_matrix(terminal, strikes, payoff),
                                   group))
        _merge_stats(stats, v.stats)
    return np.vstack(blocks)


def _conditional_path_prices(model, v: np.ndarray, zeta: np.ndarray,
                             grid: Grid, strikes: np.ndarray,
                             payoff: str) -> np.ndarray:
    """Per-path Romano-Touzi prices for every strike.

    X1 collects the volatility-measurable part of the log-stock (order
    rho^2 drift plus the correlated shock sum, using the volatility
    driver's own shocks); the residual variance (1-rho^2) * dt * sum V
    is priced in closed form.
    """
    dt = grid.dt
    vleft = v[:, :-1]
    rho = model.rho
    integral = dt * vleft.sum(axis=1)
    x1 = -0.5 * rho * rho * integral \
        + rho * np.sqrt(dt) * np.einsum("ij,ij->i", np.sqrt(vleft), zeta)
    residual = (1.0 - rho * rho) * integral
    fwd = model.spot * np.exp(x1)
    out = np.empty((len(fwd), len(strikes)))
    for k, strike in enumerate(strikes):
        if payoff == "call":
            out[:, k] = bs_call(fwd, strike, residual)
        else:
            out[:, k] = bs_put(fwd, strike, residual)
    return out


def _conditional_group_means(model, config: MCConfig, strikes: np.ndarray,
                             payoff: str, stats: dict) -> np.ndarray:
    group = base_group(_noise_config(model, config))
    blocks = []
    for v, shocks in _iter_variance_chunks(model, config):
        prices = _conditional_path_prices(model, v.values, shocks.zeta,
                                          config.grid, strikes, payoff)
        blocks.append(_group_means(prices, group))
        _merge_stats(stats, v.stats)
    return np.vstack(blocks)


def conditional_bs_estimate(model, config: MCConfig, strike: float,
                            payoff: str = "call") -> tuple:
    """(mean, stderr) of the conditional Black-Scholes price estimator."""
    if payoff not in PAYOFFS:
        raise ValueError(f"unknown payoff {payoff!r}")
    groups = _conditional_group_means(model, config, np.array([strike]),
                                      payoff, {})
    means, errs = _mean_stderr(groups)
    return float(means[0]), float(errs[0])


def plain_mc_estimate(model, config: MCConfig, strike: float,
                      payoff: str = "call") -> tuple:
    """(mean, stderr) of the plain payoff-averaging estimator."""
    if payoff not in PAYOFFS:
        raise ValueError(f"unknown payoff {payoff!r}")
    groups = _plain_group_means(model, config, np.array([strike]), payoff, {})
    means, errs = _mean_stderr(groups)
    return float(means[0]), float(errs[0])


def martingale_statistic(model, config: MCConfig) -> tuple:
    """(mean, stderr) of e^{X(T)}; the exact value is 1."""
    group = base_group(_noise_config(model, config))
    blocks = []
    for v, shocks in _iter_variance_chunks(model, config):
        x = _logstock_from_variance(v.values, shocks.xi, config.grid)
        blocks.append(_group_means(np.exp(x[:, -1]), group))
    means, errs = _mean_stderr(np.concatenate(blocks)[:, None])
    return float(means[0]), float(errs[0])


# ----------------------------------------------------------------------
# smiles
# ----------------------------------------------------------------------

def smile(model, config: MCConfig, strikes, payoff: str = "call") -> SmileResult:
    """Price a strike grid on shared paths and attach implied vols.

    Implied vols are solved from the call form (puts converted through
    parity); entries whose price falls outside the no-arbitrage band are
    reported as NaN.
    """
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or len(strikes) == 0:
        raise ValueError("strikes must be a nonempty 1-d array")
    if np.any(strikes <= 0.0) or np.any(np.diff(strikes) <= 0.0):
        raise ValueError("strikes must be positive and strictly increasing")
    if payoff not in PAYOFFS:
        raise ValueError(f"unknown payoff {payoff!r}")
    stats = {}
    start = time.perf_counter()
    if config.variance_reduction == "conditional_bs":
        groups = _conditional_group_means(model, config, strikes, payoff, stats)
    else:
        groups = _plain_group_means(model, config, strikes, payoff, stats)
    prices, stderrs = _mean_stderr(groups)
    runtime = time.perf_counter() - start

    forward = model.spot
    vols = np.full(len(strikes), np.nan)
    for k, strike in enumerate(strikes):
        call_price = prices[k] if payoff == "call" \
            else prices[k] + forward - strike
        try:
            vols[k] = implied_vol(call_price, forward, strike, config.grid.T)
        except ValueError:
            pass
    metadata = {
        "model": type(model).__name__,
        "payoff": payoff,
        "scheme": config.scheme,
        "variance_reduction": config.variance_reduction,
        "antithetic": config.antithetic,
        "num_paths": config.num_paths,
        "steps": config.grid.n,
        "horizon": config.grid.T,
        "seed": config.seed,
        "rho": model.rho,
        "spot": model.spot,
        "variance_convention": "C_H = sqrt(2H)",
        "runtime_seconds": runtime,
        "stats": stats,
    }
    return SmileResult(strikes=strikes, prices=prices, stderrs=stderrs,
                       implied_vols=vols, metadata=metadata)
