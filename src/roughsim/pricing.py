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

`scheme_paths` is the one scheme dispatch and `_chunked` the one chunk
loop; every estimator is a per-chunk function passed to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from roughsim.kernels import Grid
from roughsim.models import phi_apply
from roughsim.shocks import NoiseConfig, base_group, check_seed, draw_shocks
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
        check_seed(self.seed)


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


class NoImpliedVol(ValueError):
    """No volatility reproduces a price; `reason` says why."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def implied_vol(price: float, forward: float, strike: float,
                maturity: float) -> float:
    """Invert the Black-Scholes call price to a volatility.

    Bracketed root-finding on sigma in [1e-6, 5]; raises NoImpliedVol when
    the price sits outside the open no-arbitrage band (intrinsic, forward)
    or outside the bracket's price range.
    """
    if maturity <= 0.0:
        raise ValueError("maturity must be positive")
    intrinsic = max(forward - strike, 0.0)
    if not intrinsic < price < forward:
        raise NoImpliedVol(
            "above forward" if price >= forward else "below intrinsic",
            f"price {price} outside open no-arbitrage bounds "
            f"({intrinsic}, {forward}); no implied volatility"
        )
    lo, hi = 1e-6, 5.0

    def gap(sigma):
        return bs_call(forward, strike, sigma * sigma * maturity) - price

    if gap(lo) >= 0.0 or gap(hi) <= 0.0:
        raise NoImpliedVol(
            "no bracket", f"no volatility in [{lo}, {hi}] reproduces price {price}")
    return float(brentq(gap, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200))


# ----------------------------------------------------------------------
# the pipeline: one scheme dispatch, one chunk loop
# ----------------------------------------------------------------------

def scheme_paths(kernel, driver, shocks: np.ndarray, grid: Grid, scheme: str,
                 method: str = "fft", *, seed: int = 0,
                 antithetic_group: int = 1, base_offset: int = 0) -> PathSet:
    """Volterra paths G^alpha Y of one scheme from the driver's shocks.

    `rdonsker_matched` / `rdonsker_left`: the rDonsker convolution by
    `method`, with moment-matched / left-point weights. `hybrid`: the
    kappa = 1 hybrid scheme (RL kernel, Brownian driver), whose auxiliary
    normals come from `seed`'s streams, see `hybrid_scheme_rl`.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown sampler {scheme!r}")
    if scheme == "hybrid":
        if kernel.kind != "rl" or driver != "brownian":
            raise ValueError("hybrid scheme requires a Riemann-Liouville "
                             "kernel with a Brownian driver")
        return hybrid_scheme_rl(kernel.hurst, shocks, grid, seed=seed,
                                antithetic_group=antithetic_group,
                                base_offset=base_offset)
    mode = "moment_matched" if scheme == "rdonsker_matched" else "left_point"
    return rdonsker_volterra(kernel, driver, shocks, grid, eval_mode=mode,
                             method=method)


def _variance_chunk(model, config: MCConfig, shocks, base_offset: int) -> PathSet:
    """Variance paths V = Phi(G^alpha Y) for one shock chunk."""
    vol = scheme_paths(model.kernel(), model.driver(), shocks.zeta,
                       config.grid, config.scheme, config.method,
                       seed=config.seed,
                       antithetic_group=shocks.antithetic_group,
                       base_offset=base_offset)
    return phi_apply(model, vol, config.grid)


def _chunked(model, config: MCConfig, per_chunk, *, group_means: bool = True,
             variance=_variance_chunk) -> tuple:
    """(rows in path order, merged stats) of `per_chunk(v, shocks)`.

    Per chunk: draw shocks, build variance paths `v` by `variance`, apply
    `per_chunk`, and take antithetic group means if `group_means`. Shock
    streams are keyed by absolute path index, so no result depends on
    the chunk size.
    """
    noise = NoiseConfig(distribution="gaussian", paths=config.num_paths,
                        steps=config.grid.n, rho=model.rho, seed=config.seed,
                        antithetic=config.antithetic)
    group = base_group(noise)
    total_base = config.num_paths // group
    rows_cap = max(group, _CHUNK_ELEMENTS // max(config.grid.n, 1))
    base_step = max(1, rows_cap // group)
    blocks, stats = [], {}
    for start in range(0, total_base, base_step):
        stop = min(total_base, start + base_step)
        shocks = draw_shocks(noise, base_range=(start, stop))
        v = variance(model, config, shocks, start)
        rows = per_chunk(v, shocks)
        blocks.append(_group_means(rows, group) if group_means else rows)
        for key in ("clamp_cells", "domain_clips"):
            if key in v.stats:
                stats[key] = stats.get(key, 0) + v.stats[key]
    return np.concatenate(blocks), stats


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------

def _group_means(values: np.ndarray, group: int) -> np.ndarray:
    if group == 1:
        return values
    return values.reshape(-1, group, *values.shape[1:]).mean(axis=1)


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
    x, stats = _chunked(
        model, config,
        lambda v, shocks: _logstock_from_variance(v.values, shocks.xi,
                                                  config.grid),
        group_means=False)
    return PathSet(values=x, grid=config.grid,
                   scheme_tag=f"{config.scheme}_logstock", seed=config.seed,
                   stats=stats)


def _path_payoffs(model, grid: Grid, strikes: np.ndarray, payoff: str,
                  v: PathSet, shocks) -> np.ndarray:
    """Per-path payoffs of the simulated terminal stock (plain estimator)."""
    x = _logstock_from_variance(v.values, shocks.xi, grid)
    stock = model.spot * np.exp(x[:, -1])[:, None]
    return np.maximum(stock - strikes if payoff == "call" else strikes - stock,
                      0.0)


def _conditional_path_prices(model, grid: Grid, strikes: np.ndarray,
                             payoff: str, v: PathSet, shocks) -> np.ndarray:
    """Per-path Romano-Touzi prices for every strike.

    X1 collects the volatility-measurable part of the log-stock (order
    rho^2 drift plus the correlated shock sum, using the volatility
    driver's own shocks); the residual variance (1-rho^2) * dt * sum V
    is priced in closed form.
    """
    dt = grid.dt
    vleft = v.values[:, :-1]
    rho = model.rho
    integral = dt * vleft.sum(axis=1)
    x1 = -0.5 * rho * rho * integral \
        + rho * np.sqrt(dt) * np.einsum("ij,ij->i", np.sqrt(vleft), shocks.zeta)
    residual = (1.0 - rho * rho) * integral
    fwd = model.spot * np.exp(x1)
    out = np.empty((len(fwd), len(strikes)))
    for k, strike in enumerate(strikes):
        if payoff == "call":
            out[:, k] = bs_call(fwd, strike, residual)
        else:
            out[:, k] = bs_put(fwd, strike, residual)
    return out


_PATH_ESTIMATES = {"conditional_bs": _conditional_path_prices,
                   "none": _path_payoffs}


def _estimate(model, config: MCConfig, strikes: np.ndarray, payoff: str,
              variance_reduction: str, variance=_variance_chunk) -> tuple:
    """(means, stderrs, stats) per strike of one estimator over all paths."""
    if payoff not in PAYOFFS:
        raise ValueError(f"unknown payoff {payoff!r}")
    per_chunk = partial(_PATH_ESTIMATES[variance_reduction], model,
                        config.grid, strikes, payoff)
    groups, stats = _chunked(model, config, per_chunk, variance=variance)
    return (*_mean_stderr(groups), stats)


def conditional_bs_estimate(model, config: MCConfig, strike: float,
                            payoff: str = "call") -> tuple:
    """(mean, stderr) of the conditional Black-Scholes price estimator."""
    means, errs, _ = _estimate(model, config, np.array([strike]), payoff,
                               "conditional_bs")
    return float(means[0]), float(errs[0])


def plain_mc_estimate(model, config: MCConfig, strike: float,
                      payoff: str = "call") -> tuple:
    """(mean, stderr) of the plain payoff-averaging estimator."""
    means, errs, _ = _estimate(model, config, np.array([strike]), payoff,
                               "none")
    return float(means[0]), float(errs[0])


def martingale_statistic(model, config: MCConfig) -> tuple:
    """(mean, stderr) of e^{X(T)}; the exact value is 1."""
    terminal, _ = _chunked(
        model, config,
        lambda v, shocks: np.exp(_logstock_from_variance(
            v.values, shocks.xi, config.grid)[:, -1]))
    means, errs = _mean_stderr(terminal[:, None])
    return float(means[0]), float(errs[0])


# ----------------------------------------------------------------------
# smiles
# ----------------------------------------------------------------------

def smile(model, config: MCConfig, strikes, payoff: str = "call") -> SmileResult:
    """Price a strike grid on shared paths and attach implied vols.

    Implied vols are solved from the call form (puts converted through
    parity). An entry with no implied vol is NaN, and
    `metadata["iv_nan_reasons"]` maps its strike index to the reason
    `implied_vol` gives: "below intrinsic", "above forward" or "no bracket".
    """
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or len(strikes) == 0:
        raise ValueError("strikes must be a nonempty 1-d array")
    if np.any(strikes <= 0.0) or np.any(np.diff(strikes) <= 0.0):
        raise ValueError("strikes must be positive and strictly increasing")
    start = time.perf_counter()
    prices, stderrs, stats = _estimate(model, config, strikes, payoff,
                                       config.variance_reduction)
    runtime = time.perf_counter() - start

    forward = model.spot
    vols = np.full(len(strikes), np.nan)
    nan_reasons = {}
    for k, strike in enumerate(strikes):
        call_price = prices[k] if payoff == "call" \
            else prices[k] + forward - strike
        try:
            vols[k] = implied_vol(call_price, forward, strike, config.grid.T)
        except NoImpliedVol as exc:
            nan_reasons[k] = exc.reason
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
        "iv_nan_reasons": nan_reasons,
    }
    return SmileResult(strikes=strikes, prices=prices, stderrs=stderrs,
                       implied_vols=vols, metadata=metadata)
