"""Monte-Carlo pricing with conditional Black-Scholes variance reduction.

The pipeline draws correlated shocks, builds variance paths V through the
configured Volterra scheme, and prices European options either by plain
payoff averaging on simulated log-stocks or by Romano-Touzi conditioning:
given the volatility driver's path, the log-stock is Gaussian, so each
path contributes a closed-form Black-Scholes price with per-path forward
e^{X1} and residual variance (1-rho^2) * integral of V.

Paths are processed in chunks of at most `_CHUNK_ELEMENTS` path-steps
(per-path counter RNG makes the chunked run bitwise identical to a
monolithic one), keeping memory flat at desk-scale path counts. Each
chunk runs in its own scope, and a conditional-estimator chunk holds
about three arrays of the chunk at its peak: the variance is mapped into
the scheme's own array, and sqrt(V) taken in place there once V is
summed. Estimator statistics are computed over antithetic group means
when antithetics are on.

The chunk size was chosen from a sweep of the benchmark's smile
workloads (`benchmark/run.py --seconds 12`, seeds 301-303, 2-core x86-64
VM; peak RSS, then the median and range of `op_s_p50`):

    elements   smile-n2048 (M=4096)          smile-n256 (M=16384)
    8M         283 MB  1.20 s [1.18, 1.21]   217 MB  0.59 s [0.53, 0.63]
    4M         201 MB  1.53 s [1.36, 1.59]   217 MB  0.53 s [0.46, 0.59]
    2M         144 MB  1.31 s [1.28, 1.52]   148 MB  0.47 s [0.42, 0.58]
    1M         116 MB  1.30 s [1.25, 1.57]   115 MB  0.46 s [0.45, 0.66]

The RSS column was measured again, by the same command and seeds, once
a chunk held about three arrays (it read 379/275/179/132 MB and
217/216/172/131 MB before, at four to six); the op times are the first
sweep's. At 8M and 4M smile-n256 is one chunk of 16384 rows either way.

The op times spread as widely as they differ; timed alternately in one
process, the n=2048 legs took 0.65 s (rBergomi) and 1.05 s (rough
Heston) at 8M and 0.52 s and 1.04 s at 2M. Below 2M the CIR driver's
Euler loop, a Python loop over the steps of every chunk, costs more per
path, so 2M (16 MB per float64 array) is the size used.

`scheme_paths` is the one scheme dispatch and `_chunked` the one chunk
loop; every estimator is a per-chunk function passed to it.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from roughsim.kernels import Grid
from roughsim.models import phi_apply
from roughsim.shocks import (
    NoiseConfig, check_int, check_real, check_seed, draw_shocks)
from roughsim.volterra import (
    NonFinitePath,
    PathSet,
    _mirrored,
    hybrid_scheme_rl,
    rdonsker_volterra,
)

SCHEMES = ("rdonsker_matched", "rdonsker_left", "hybrid")
PAYOFFS = ("call", "put")
VARIANCE_REDUCTIONS = ("conditional_bs", "none")
# path-steps per chunk: every M x n float64 temporary of the chunk loop
# takes 16 MB; the module docstring gives the sweep this was chosen from
_CHUNK_ELEMENTS = 2_097_152


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

    def __post_init__(self):
        check_int("num_paths", self.num_paths)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick from {SCHEMES}")
        if self.variance_reduction not in VARIANCE_REDUCTIONS:
            raise ValueError(
                f"unknown variance_reduction {self.variance_reduction!r}")
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

def _black_scholes(kind: str, strike: float, log_forward, forward, s,
                   out=None) -> np.ndarray:
    """Undiscounted Black-Scholes call or put on 1-d forward arrays.

    `s` is the total standard deviation. d1 = (log F - log K)/s + s/2; a
    call is F N(d1) - K N(d1 - s), a put K N(s - d1) - F N(-d1), and s = 0
    gives the intrinsic value. Written into `out` when given.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (log_forward - math.log(strike)) / s
    d1 += 0.5 * s
    if kind == "call":
        value = np.multiply(forward, ndtr(d1), out=out)
        value -= strike * ndtr(d1 - s)
    else:
        value = np.multiply(strike, ndtr(s - d1), out=out)
        value -= forward * ndtr(-d1)
    flat = s == 0.0
    if flat.any():
        gap = forward[flat] - strike if kind == "call" \
            else strike - forward[flat]
        value[flat] = np.maximum(gap, 0.0)
    return value


def _checked_black_scholes(kind: str, forward, strike: float,
                           total_variance):
    """`_black_scholes` of checked inputs; a float for scalar inputs."""
    check_real("strike", strike, 0.0)
    f = check_real("forward", np.asarray(forward, dtype=float), 0.0)
    tv = check_real("total variance", np.asarray(total_variance, dtype=float),
                    0.0, ends="[)")
    scalar = f.ndim == 0 and tv.ndim == 0
    f, tv = np.atleast_1d(*np.broadcast_arrays(f, tv))
    out = _black_scholes(kind, strike, np.log(f), f, np.sqrt(tv))
    return float(out[0]) if scalar else out


def bs_call(forward, strike: float, total_variance):
    """Undiscounted Black-Scholes call on the forward.

    Vectorized over `forward` / `total_variance`; zero total variance
    returns the intrinsic value.
    """
    return _checked_black_scholes("call", forward, strike, total_variance)


def bs_put(forward, strike: float, total_variance):
    """Undiscounted put by its own formula; exact nonnegativity enforced."""
    value = _checked_black_scholes("put", forward, strike, total_variance)
    return np.maximum(value, 0.0) if isinstance(value, np.ndarray) \
        else max(value, 0.0)


class NonPositiveStock(NonFinitePath, ValueError):
    """A path whose simulated terminal stock, or conditional forward
    e^{X1}, is not positive."""


def _check_positive(what: str, values: np.ndarray, log_name: str,
                    logs: np.ndarray) -> None:
    """Raise `NonPositiveStock` naming the chunk row of the first of
    `values` that is not positive, with its log `logs`."""
    if not np.all(values > 0.0):
        k = int(np.argmin(values > 0.0))
        raise NonPositiveStock(f"{what} are not positive", k, None, values[k],
                               f" ({log_name} = {logs[k]})")


class NoImpliedVol(ValueError):
    """No volatility reproduces a price; `reason` says why."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def implied_vol(price: float, forward: float, strike: float,
                maturity: float) -> float:
    """Invert the Black-Scholes call price to a volatility.

    Bracketed root-finding on sigma in [1e-6, 5]; raises NoImpliedVol when
    a finite price sits outside the open no-arbitrage band (intrinsic,
    forward) or outside the bracket's price range. A price that is not
    finite, or a forward, strike or maturity that is not positive and
    finite, is refused first by `check_real`, a ValueError naming it.
    """
    check_real("price", price)
    check_real("forward", forward, 0.0)
    check_real("strike", strike, 0.0)
    check_real("maturity", maturity, 0.0)
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
                 *, seed: int = 0, antithetic_group: int = 1,
                 base_offset: int = 0) -> PathSet:
    """Volterra paths G^alpha Y of one scheme from the driver's shocks.

    `rdonsker_matched` / `rdonsker_left`: the rDonsker FFT convolution,
    with moment-matched / left-point weights. `hybrid`: the kappa = 1
    hybrid scheme (RL kernel, Brownian driver), whose auxiliary normals
    come from `seed`'s streams, see `hybrid_scheme_rl`.

    With a Brownian driver and `antithetic_group` 2 or 4, the last half
    of each group's rows must negate the first half; the scheme then runs
    on the first half only and the negated paths fill the rest, bitwise
    what running it on every row gives. `stats["scheme_rows"]` counts the
    rows it ran on.
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
    # an Euler-stepped driver is not odd in its shocks, so it is not mirrored
    group = antithetic_group if driver == "brownian" else 1
    return _mirrored(lambda rows: rdonsker_volterra(
        kernel, driver, rows, grid, eval_mode=mode), shocks, group)


def _variance_chunk(model, config: MCConfig, shocks, base_offset: int) -> PathSet:
    """Variance paths V = Phi(G^alpha Y) for one shock chunk, mapped in
    place into the scheme's own array."""
    vol = scheme_paths(model.kernel(), model.driver(), shocks.zeta,
                       config.grid, config.scheme, seed=config.seed,
                       antithetic_group=shocks.antithetic_group,
                       base_offset=base_offset)
    return phi_apply(model, vol, config.grid, out=vol.values)


def chunk_layout(num_paths: int, steps: int, group: int = 1) -> dict:
    """How `_chunked` splits `num_paths` paths of `steps` steps.

    A chunk holds whole antithetic groups of `group` rows, at most
    max(group, _CHUNK_ELEMENTS // steps) rows. Returns {"chunks": the
    chunk count, "chunk_rows": the rows of every chunk but maybe the last}.
    """
    total_base = num_paths // group
    rows_cap = max(group, _CHUNK_ELEMENTS // max(steps, 1))
    base_step = min(total_base, max(1, rows_cap // group))
    return {"chunks": -(-total_base // base_step),
            "chunk_rows": base_step * group}


def _in_run(first: int, stage, *args):
    """`stage(*args)` on a chunk from path `first` on, naming run paths."""
    try:
        return stage(*args)
    except NonFinitePath as exc:
        exc.renumber(first + exc.path)
        raise


def _chunk(model, config: MCConfig, noise: NoiseConfig, base_range: tuple,
           variance, per_chunk, group_means: bool) -> tuple:
    """(rows, variance stats) of one chunk of `_chunked`.

    Draws the shocks of the base paths in `base_range`, builds the
    variance paths `v` by `variance` and, unless `per_chunk` is None,
    applies it and takes antithetic group means if `group_means`. The
    chunk's arrays live in this one scope, so they are freed before the
    next chunk draws. A variance error is raised; an estimator error is
    returned as the rows, for `_chunked` to raise after every later
    chunk's variance is built. Either names the path of the whole run.
    """
    group = noise.group
    first = base_range[0] * group
    shocks = draw_shocks(noise, base_range=base_range)
    v = _in_run(first, variance, model, config, shocks, base_range[0])
    if per_chunk is None:
        return None, v.stats
    try:
        rows = _in_run(first, per_chunk, v, shocks)
    except Exception as exc:  # noqa: BLE001 - raised by `_chunked`
        return exc, v.stats
    return (_group_means(rows, group) if group_means else rows), v.stats


def _chunked(model, config: MCConfig, per_chunk, *, group_means: bool = True,
             variance=_variance_chunk) -> tuple:
    """(rows in path order, merged stats, chunk layout) of
    `per_chunk(v, shocks)`.

    Per chunk (`_chunk`): draw shocks, build variance paths `v` by
    `variance`, apply `per_chunk`, and take antithetic group means if
    `group_means`. `per_chunk` may consume `v`. Shock streams are keyed
    by absolute path index, so no result depends on the chunk size. Nor
    does an error: it names the path of the whole run, and as in one
    chunk a variance error on any path outranks the first estimator
    error, which is raised after every chunk's variance is built. The
    layout is `chunk_layout`'s; it is kept out of the stats, which do not
    depend on it.
    """
    noise = NoiseConfig(paths=config.num_paths, steps=config.grid.n,
                        rho=model.rho, seed=config.seed,
                        antithetic=config.antithetic)
    group = noise.group
    total_base = config.num_paths // group
    layout = chunk_layout(config.num_paths, config.grid.n, group)
    base_step = layout["chunk_rows"] // group
    blocks, stats, failed = [], {}, None
    for start in range(0, total_base, base_step):
        base_range = (start, min(total_base, start + base_step))
        rows, chunk_stats = _chunk(model, config, noise, base_range, variance,
                                   None if failed else per_chunk, group_means)
        if isinstance(rows, Exception):
            # its frames would keep the chunk's arrays alive until it is raised
            traceback.clear_frames(rows.__traceback__)
            failed = rows
        if failed is not None:
            continue
        blocks.append(rows)
        for key in ("clamp_cells", "domain_clips", "scheme_rows"):
            if key in chunk_stats:
                stats[key] = stats.get(key, 0) + chunk_stats[key]
    if failed is not None:
        raise failed
    return np.concatenate(blocks), stats, layout


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
    """Euler log-stock: increments -V/2*dt + sqrt(V*dt)*xi, left-point V,
    built and summed in the output's columns; the drift consumes `v`."""
    if np.any(v < 0.0):
        raise ValueError("negative variance entering the log-stock step")
    vleft = v[:, :-1]
    dt = grid.dt
    x = np.zeros((v.shape[0], grid.n + 1))
    inc = x[:, 1:]
    np.multiply(vleft, dt, out=inc)
    np.sqrt(inc, out=inc)
    inc *= xi
    vleft *= -0.5
    vleft *= dt
    inc += vleft
    np.cumsum(inc, axis=1, out=inc)
    return x


def simulate_logstock(model, config: MCConfig) -> PathSet:
    """Simulate log-stock paths X (X(0) = 0) under the model.

    Materializes the full M x (n+1) array; for estimator-only work the
    pricing entry points below stream chunks instead.
    """
    x, stats, _ = _chunked(
        model, config,
        lambda v, shocks: _logstock_from_variance(v.values, shocks.xi,
                                                  config.grid),
        group_means=False)
    return PathSet(values=x, grid=config.grid,
                   scheme_tag=f"{config.scheme}_logstock", seed=config.seed,
                   stats=stats)


def _path_payoffs(model, grid: Grid, strikes: np.ndarray, payoff: str,
                  v: PathSet, shocks) -> np.ndarray:
    """Per-path payoffs of the simulated terminal stock (plain estimator).

    A terminal stock that is not positive (e^{X(T)} underflowed) raises
    `NonPositiveStock`, naming the chunk's row."""
    x = _logstock_from_variance(v.values, shocks.xi, grid)[:, -1]
    stock = model.spot * np.exp(x)
    _check_positive("simulated stocks", stock, "X(T)", x)
    stock = stock[:, None]
    return np.maximum(stock - strikes if payoff == "call" else strikes - stock,
                      0.0)


def _conditional_path_prices(model, grid: Grid, strikes: np.ndarray,
                             payoff: str, v: PathSet, shocks) -> np.ndarray:
    """Per-path Romano-Touzi prices for every strike.

    X1 collects the volatility-measurable part of the log-stock (order
    rho^2 drift plus the correlated shock sum, using the volatility
    driver's own shocks); the residual variance (1-rho^2) * dt * sum V
    is priced in closed form. Once V is summed, sqrt(V) is taken in place,
    so `v` is consumed. A forward e^{X1} that is not positive raises
    `NonPositiveStock`, naming the chunk's row.
    """
    dt = grid.dt
    vleft = v.values[:, :-1]
    rho = model.rho
    integral = dt * vleft.sum(axis=1)
    vol = np.sqrt(vleft, out=vleft)
    x1 = -0.5 * rho * rho * integral \
        + rho * np.sqrt(dt) * np.einsum("ij,ij->i", vol, shocks.zeta)
    residual = (1.0 - rho * rho) * integral
    fwd = model.spot * np.exp(x1)
    _check_positive("conditional forwards", fwd, "X1", x1)
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
    """(means, stderrs, stats, chunk layout) per strike of one estimator
    over all paths."""
    if payoff not in PAYOFFS:
        raise ValueError(f"unknown payoff {payoff!r}")
    per_chunk = partial(_PATH_ESTIMATES[variance_reduction], model,
                        config.grid, strikes, payoff)
    groups, stats, layout = _chunked(model, config, per_chunk,
                                     variance=variance)
    return (*_mean_stderr(groups), stats, layout)


def conditional_bs_estimate(model, config: MCConfig, strike: float,
                            payoff: str = "call") -> tuple:
    """(mean, stderr) of the conditional Black-Scholes price estimator."""
    means, errs, *_ = _estimate(model, config, np.array([strike]), payoff,
                                "conditional_bs")
    return float(means[0]), float(errs[0])


def plain_mc_estimate(model, config: MCConfig, strike: float,
                      payoff: str = "call") -> tuple:
    """(mean, stderr) of the plain payoff-averaging estimator."""
    means, errs, *_ = _estimate(model, config, np.array([strike]), payoff,
                                "none")
    return float(means[0]), float(errs[0])


def martingale_statistic(model, config: MCConfig) -> tuple:
    """(mean, stderr) of e^{X(T)}; the exact value is 1."""
    terminal, *_ = _chunked(
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
    check_real("strikes", strikes, 0.0)
    if not np.all(np.diff(strikes) > 0.0):
        raise ValueError(f"strikes must be strictly increasing, got {strikes}")
    start = time.perf_counter()
    prices, stderrs, stats, layout = _estimate(model, config, strikes, payoff,
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
        "chunking": layout,
        "iv_nan_reasons": nan_reasons,
    }
    return SmileResult(strikes=strikes, prices=prices, stderrs=stderrs,
                       implied_vols=vols, metadata=metadata)
