"""Timing benchmarks: path-generation schemes and the full pricing pipeline.

`time_path_generation` measures one timed unit = shock draw plus scheme
transform (`validation.sample_paths`, as in `roughsim simulate`),
reporting the median over a configurable trial count (ten by default).
The `markovian-euler` scheme is the complexity baseline: a driftless
one-factor log-normal variance driver whose path step is a plain running
sum, i.e. the O(M·n) Euler cost floor with the identical shock draw.

`time_full_pipeline` times the library's plain Monte-Carlo pipeline
(what `pricing.plain_mc_estimate` runs, antithetics off) for an ATM
call; `markovian-euler` replaces only its variance stage by the baseline.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from ._config import get_threads
from .kernels import Grid, optimal_eval_weights, riemann_liouville
from .models import RoughBergomi
from .pricing import MCConfig, _estimate, _variance_chunk, chunk_layout
from .shocks import NoiseConfig, check_int, draw_shocks
from .validation import sample_paths
from .volterra import PathSet, convolve_gfo

BENCH_SCHEMES = ("rdonsker-fft", "rdonsker-naive", "hybrid", "markovian-euler")
BENCH_GRID = (256, 1024, 4096, 8192)
_SAMPLERS = {"rdonsker-fft": "rdonsker_matched", "hybrid": "hybrid"}


def _generate_once(scheme: str, hurst: float, grid: Grid, paths: int,
                   seed: int) -> np.ndarray:
    """One timed unit: draw shocks, then run the scheme transform."""
    if scheme in _SAMPLERS:
        return sample_paths(_SAMPLERS[scheme], riemann_liouville(hurst=hurst),
                            grid, paths, seed).values
    if scheme not in BENCH_SCHEMES:
        raise ValueError(f"unknown benchmark scheme {scheme!r}")
    zeta = draw_shocks(NoiseConfig(paths=paths, steps=grid.n, rho=0.0,
                                   seed=seed)).zeta
    if scheme == "markovian-euler":
        return np.cumsum(np.sqrt(grid.dt) * zeta, axis=1)
    # rdonsker-naive: the rdonsker-fft row's paths by the naive oracle
    weights = optimal_eval_weights(riemann_liouville(hurst=hurst), grid)
    return convolve_gfo(weights, zeta, grid, method="naive",
                        scale=np.sqrt(grid.dt)).values


def time_path_generation(scheme: str, steps: int, *, paths: int = 256,
                         trials: int = 10, hurst: float = 0.3,
                         seed: int = 0) -> float:
    """Median seconds per draw-plus-transform over `trials` runs, T = 1."""
    check_int("trials", trials)
    grid = Grid(steps, 1.0)
    _generate_once(scheme, hurst, grid, paths, seed)  # warm-up, untimed
    times = []
    for trial in range(trials):
        start = time.perf_counter()
        _generate_once(scheme, hurst, grid, paths, seed + trial)
        times.append(time.perf_counter() - start)
    return median(times)


def _markovian_variance(model, config: MCConfig, shocks,
                        base_offset: int) -> PathSet:
    """Variance stage of the baseline: xi0 e^{2 nu W - 2 nu^2 t}."""
    grid, nu = config.grid, model.nu
    w = np.zeros((shocks.zeta.shape[0], grid.n + 1))
    np.cumsum(np.sqrt(grid.dt) * shocks.zeta, axis=1, out=w[:, 1:])
    v = model.xi0(grid.times) * np.exp(2.0 * nu * w - 2.0 * nu ** 2 * grid.times)
    return PathSet(values=v, grid=grid, scheme_tag="markovian-euler")


_PIPELINE_STAGES = {"rdonsker-fft": _variance_chunk,
                    "markovian-euler": _markovian_variance}


def _pipeline_price(kind: str, steps: int, paths: int, seed: int) -> float:
    """ATM-call price of the library's plain Monte-Carlo pipeline."""
    if kind not in _PIPELINE_STAGES:
        raise ValueError(f"unknown pipeline kind {kind!r}")
    model = RoughBergomi(xi0=0.04, nu=1.0, hurst=0.3, rho=-0.7)
    config = MCConfig(num_paths=paths, grid=Grid(steps, 1.0),
                      variance_reduction="none", antithetic=False, seed=seed)
    means, *_ = _estimate(model, config, np.array([1.0]), "call", "none",
                          variance=_PIPELINE_STAGES[kind])
    return float(means[0])


def time_full_pipeline(kind: str, steps: int = 1024, paths: int = 100_000, *,
                       trials: int = 3) -> float:
    """Median seconds of a full pricing pass (draw → paths → payoff)."""
    check_int("trials", trials)
    times = []
    for trial in range(trials):
        start = time.perf_counter()
        _pipeline_price(kind, steps, paths, trial)
        times.append(time.perf_counter() - start)
    return median(times)


def run_bench(schemes=BENCH_SCHEMES, grid=BENCH_GRID, *, paths: int = 256,
              trials: int = 10, hurst: float = 0.3, seed: int = 0) -> dict:
    """Timing table: median of `trials` runs per (scheme, steps) cell.

    Each cell also gives the `pricing.chunk_layout` in which the pricing
    pipeline, antithetics off, runs `paths` paths of `steps` steps at the
    current thread count; the timed unit itself draws its paths in one
    piece.
    """
    threads = get_threads()
    timings = []
    for scheme in schemes:
        for steps in grid:
            med = time_path_generation(scheme, steps, paths=paths,
                                       trials=trials, hurst=hurst, seed=seed)
            timings.append({"scheme": scheme, "steps": int(steps),
                            "median_seconds": med, "trials": int(trials),
                            "pipeline_chunking": chunk_layout(
                                paths, steps, threads=threads)})
    return {
        "schema_version": 1,
        "protocol": {"paths": int(paths), "trials": int(trials),
                     "hurst": float(hurst), "seed": int(seed),
                     "timed_unit": "shock draw + scheme transform"},
        "timings": timings,
    }
