"""Driver paths (Euler) and Volterra paths G^alpha Y (discrete convolution).

The rDonsker construction convolves per-lag kernel weights with driver
increments; the FFT path zero-pads to a power of two >= 2n-1 so the
circular convolution equals the linear one. A hybrid-scheme comparator
(exact nearest-interval integral, optimal-point history weights) and an
exact Cholesky sampler serve as benchmarks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import fft as sfft
from scipy.special import hyp2f1

from roughsim import _config
from roughsim.kernels import (
    Grid,
    KernelSpec,
    eval_g,
    left_point_weights,
    optimal_eval_weights,
    _quad_piecewise,
)
# path_rng is not called here but stays importable from this module: the
# per-path generators come from `path_generators`, which re-keys one by it
from roughsim.shocks import (  # noqa: F401
    STREAM_CHOLESKY,
    STREAM_HYBRID_AUX,
    path_generators,
    path_rng,
)

_BINARY_MAGIC = b"RVOL1"
CONV_METHODS = ("fft", "naive")


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionSpec:
    """Ito diffusion dY = b(Y)dt + a(Y)dW for the Euler driver.

    `drift` and `diffusion` must accept numpy arrays (vectorized over
    paths). `domain` clips the state before coefficient evaluation (full
    truncation); pass None bounds for an unrestricted state space.
    """

    drift: callable
    diffusion: callable
    y0: float
    domain: tuple = (None, None)
    name: str = "diffusion"

    def clip(self, state):
        """The state clipped to `domain`; `state` itself if unbounded."""
        lo, hi = self.domain
        if lo is None and hi is None:
            return state
        return np.clip(state, lo, hi)


def check_diffusion_coefficients(spec: DiffusionSpec, lo: float, hi: float,
                                 c_b: float, c_a: float, num: int = 128) -> bool:
    """Sampled regularity check on [lo, hi].

    Verifies |b(x)-b(y)| <= C_b|x-y| and |a(x)-a(y)| <= C_a*sqrt|x-y|
    on all pairs of a `num`-point grid (the standard coefficient
    assumption, asserted by the caller rather than proved).
    """
    xs = np.linspace(lo, hi, num)
    bx = np.asarray(spec.drift(xs), dtype=float)
    ax = np.asarray(spec.diffusion(xs), dtype=float)
    dx = np.abs(xs[:, None] - xs[None, :])
    tol = 1e-12
    ok_b = np.all(np.abs(bx[:, None] - bx[None, :]) <= c_b * dx + tol)
    ok_a = np.all(np.abs(ax[:, None] - ax[None, :]) <= c_a * np.sqrt(dx) + tol)
    return bool(ok_b and ok_a)


@dataclass
class PathSet:
    """M x (n+1) process values on a grid, with provenance metadata."""

    values: np.ndarray
    grid: Grid
    scheme_tag: str
    seed: int | None = None
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.n + 1:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("path values must be finite")

    @property
    def num_paths(self) -> int:
        return self.values.shape[0]


# ----------------------------------------------------------------------
# path-set export
# ----------------------------------------------------------------------

def save_csv(paths: PathSet, filename) -> None:
    """Write rows = paths, columns = grid times, with a metadata header."""
    meta = (
        f"# scheme={paths.scheme_tag} seed={paths.seed} "
        f"paths={paths.num_paths} steps={paths.grid.n} horizon={paths.grid.T!r}"
    )
    times = ",".join(repr(float(t)) for t in paths.grid.times)
    np.savetxt(filename, paths.values, delimiter=",", fmt="%.17g",
               header=meta + "\n" + times, comments="")


def save_binary(paths: PathSet, filename) -> None:
    """Compact layout: magic RVOL1, little-endian u32 M, u32 n+1, f64 T, data."""
    m, cols = paths.values.shape
    with open(filename, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<IId", m, cols, paths.grid.T))
        fh.write(np.ascontiguousarray(paths.values, dtype="<f8").tobytes())


def load_binary(filename) -> PathSet:
    """Read a path set written by save_binary."""
    with open(filename, "rb") as fh:
        magic = fh.read(len(_BINARY_MAGIC))
        if magic != _BINARY_MAGIC:
            raise ValueError(f"bad magic {magic!r}, not a path-set file")
        m, cols, horizon = struct.unpack("<IId", fh.read(16))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != m * cols:
        raise ValueError("truncated path-set file")
    values = data.reshape(m, cols).copy()
    return PathSet(values=values, grid=Grid(n=cols - 1, T=horizon),
                   scheme_tag="loaded")


# ----------------------------------------------------------------------
# Euler driver
# ----------------------------------------------------------------------

def euler_diffusion(spec: DiffusionSpec, zeta: np.ndarray, grid: Grid) -> PathSet:
    """Forward Euler for dY = b dt + a dW with shocks zeta.

    Y(t_i) = Y(t_{i-1}) + b(Y+)*dt + a(Y+)*sqrt(dt)*zeta_i where Y+ is
    the state clipped to the domain (full truncation); the number of
    clipped cells lands in stats["domain_clips"]. Non-finite states abort
    with the offending path index.
    """
    m, n = zeta.shape
    if n != grid.n:
        raise ValueError(f"shock columns {n} do not match grid n={grid.n}")
    dt = grid.dt
    sq = np.sqrt(dt)
    values = np.empty((m, n + 1))
    values[:, 0] = spec.y0
    y = np.full(m, float(spec.y0))
    clips = 0
    for k in range(n):
        yc = spec.clip(y)
        if yc is not y:
            clips += int(np.count_nonzero(yc != y))
        y = y + spec.drift(yc) * dt + spec.diffusion(yc) * sq * zeta[:, k]
        if not np.all(np.isfinite(y)):
            bad = int(np.flatnonzero(~np.isfinite(y))[0])
            raise RuntimeError(
                f"euler state non-finite at step {k + 1}, path {bad} ({spec.name})"
            )
        values[:, k + 1] = y
    return PathSet(values=values, grid=grid, scheme_tag=f"euler:{spec.name}",
                   stats={"domain_clips": clips})


# ----------------------------------------------------------------------
# discrete convolution
# ----------------------------------------------------------------------

def _fft_length(n: int) -> int:
    size = 1
    while size < 2 * n - 1:
        size *= 2
    return size


def convolve_gfo(weights: np.ndarray, increments: np.ndarray, grid: Grid,
                 method: str = "fft") -> PathSet:
    """Causal convolution: out(t_i) = sum_{k<=i} weights[i-k+1] * dY(t_k).

    `fft` zero-pads both vectors to a power of two >= 2n-1, multiplies
    the transforms pointwise and truncates (linear convolution). `naive`
    evaluates the defining double loop and serves as the oracle. The
    output carries a zero first column.
    """
    weights = np.asarray(weights, dtype=float)
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    m, n = increments.shape
    if weights.shape != (n,):
        raise ValueError(f"weights shape {weights.shape} does not match n={n}")
    if n != grid.n:
        raise ValueError(f"increment columns {n} do not match grid n={grid.n}")
    out = np.zeros((m, n + 1))
    if method == "fft":
        size = _fft_length(n)
        workers = _config.get_threads()
        what = sfft.rfft(weights, size)
        ihat = sfft.rfft(increments, size, axis=1, workers=workers)
        conv = sfft.irfft(ihat * what[None, :], size, axis=1, workers=workers)
        out[:, 1:] = conv[:, :n]
    elif method == "naive":
        for i in range(1, n + 1):
            out[:, i] = increments[:, :i] @ weights[i - 1:: -1]
    else:
        raise ValueError(f"unknown convolution method {method!r}")
    return PathSet(values=out, grid=grid, scheme_tag=f"conv:{method}")


def rdonsker_volterra(kernel: KernelSpec, driver, shocks: np.ndarray, grid: Grid,
                      eval_mode: str = "moment_matched",
                      method: str = "fft") -> PathSet:
    """G^alpha Y paths by the rDonsker weight convolution.

    Parameters
    ----------
    driver : "brownian" or DiffusionSpec
        Brownian drivers skip the Euler stage: increments are
        sqrt(T/n) * zeta directly. A DiffusionSpec is Euler-stepped and
        differenced.
    eval_mode : str
        "moment_matched" (optimal evaluation points; Brownian drivers
        only, since variance matching presumes unit-variance iid
        increments) or "left_point".
    """
    if eval_mode not in ("moment_matched", "left_point"):
        raise ValueError(f"unknown eval_mode {eval_mode!r}")
    stats = {}
    if isinstance(driver, DiffusionSpec):
        if eval_mode == "moment_matched":
            raise ValueError("moment_matched weights need a Brownian driver")
        ypaths = euler_diffusion(driver, shocks, grid)
        increments = np.diff(ypaths.values, axis=1)
        stats = ypaths.stats
    elif driver == "brownian":
        increments = np.sqrt(grid.dt) * shocks
    else:
        raise ValueError(f"unknown driver {driver!r}")
    if eval_mode == "moment_matched":
        weights = optimal_eval_weights(kernel, grid)
        tag = "rdonsker_matched"
    else:
        weights = left_point_weights(kernel, grid)
        tag = "rdonsker_left"
    out = convolve_gfo(weights, increments, grid, method=method)
    return PathSet(values=out.values, grid=grid, scheme_tag=tag, stats=stats)


# ----------------------------------------------------------------------
# hybrid-scheme comparator (kappa = 1)
# ----------------------------------------------------------------------

def _hybrid_history_weights(alpha: float, grid: Grid) -> np.ndarray:
    """Lag weights for the kappa=1 hybrid history sum.

    Lag 1 is handled by the exact integral, so the weight vector starts
    at 0; lags m >= 2 evaluate g at the L2-optimal point of the lag
    interval [(m-1)dt, m*dt]:
    b*_m = dt * ((m^(a+1) - (m-1)^(a+1)) / (a+1))^(1/a).
    """
    w = np.zeros(grid.n)
    if grid.n == 1:
        return w
    m = np.arange(2, grid.n + 1, dtype=float)
    if alpha == 0.0:
        w[1:] = 1.0
    else:
        a1 = alpha + 1.0
        bstar = grid.dt * ((m ** a1 - (m - 1.0) ** a1) / a1) ** (1.0 / alpha)
        w[1:] = bstar ** alpha
    return w


def hybrid_scheme_rl(hurst: float, shocks_base: np.ndarray, grid: Grid,
                     seed: int, antithetic_group: int = 1,
                     base_offset: int = 0) -> PathSet:
    """Hybrid-scheme paths of G^alpha W for the RL kernel, kappa = 1.

    The nearest interval integrates the kernel exactly: the pair
    (xi_k, I_k) with xi_k the Brownian increment and
    I_k = int_{t_{k-1}}^{t_k} (t_k - s)^alpha dW_s is jointly Gaussian
    with Cov = dt^(a+1)/(a+1) and Var(I) = dt^(2a+1)/(2a+1), realised as
    I = c1*xi + c2*eta with an auxiliary normal eta drawn from the
    per-path stream (seed, row). Earlier lags use the optimal-point
    weights: evaluating g at a lag interval's far endpoint instead
    carries an order-of-magnitude covariance bias on coarse grids.

    With `antithetic_group` g > 1, rows arrive as contiguous groups of g
    sign variates per base path; one eta is drawn per base path (stream
    index `base_offset` + group ordinal) and applied with + on the first
    g/2 rows and - on the rest, so mirrored shock rows yield exactly
    mirrored paths. `base_offset` likewise shifts per-row streams when
    g = 1, letting chunked calls reproduce a single full call.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    alpha = hurst - 0.5
    m, n = shocks_base.shape
    if n != grid.n:
        raise ValueError(f"shock columns {n} do not match grid n={grid.n}")
    if antithetic_group not in (1, 2, 4):
        raise ValueError(f"antithetic_group must be 1, 2 or 4, got {antithetic_group}")
    if m % antithetic_group:
        raise ValueError("rows must be a whole number of antithetic groups")
    dt = grid.dt
    xi = np.sqrt(dt) * shocks_base
    c1 = dt ** alpha / (alpha + 1.0)
    var_i = dt ** (2 * alpha + 1.0) / (2 * alpha + 1.0)
    c2 = np.sqrt(max(var_i - c1 * c1 * dt, 0.0))
    if c2 > 0.0:
        g = antithetic_group
        h = max(g // 2, 1)  # rows of each group that carry +eta
        # filled group by group: mirroring a whole (m/g, n) draw block
        # allocates and frees a temporary that size, and so raises peak RSS
        eta = np.empty((m, n))
        for group, rng in zip(eta.reshape(m // g, g, n), path_generators(
                seed, base_offset, base_offset + m // g, STREAM_HYBRID_AUX)):
            rng.standard_normal(out=group[0])
            group[1:h] = group[0]
            np.negative(group[0], out=group[h:])
        exact = c1 * xi + c2 * eta
    else:
        exact = c1 * xi  # alpha = 0: the integral is the increment itself
    weights = _hybrid_history_weights(alpha, grid)
    out = convolve_gfo(weights, xi, grid, method="fft").values
    out[:, 1:] += exact
    return PathSet(values=out, grid=grid, scheme_tag="hybrid", seed=seed)


# ----------------------------------------------------------------------
# exact sampler and its covariance oracle
# ----------------------------------------------------------------------

def _covariance_entry(kernel: KernelSpec, s: float, t: float) -> float:
    """int_0^s g(t-u) g(s-u) du for 0 < s <= t, by adaptive quadrature."""
    gap = t - s
    if gap == 0.0:
        f = lambda v: eval_g(kernel, v) ** 2
        head = 2.0 * kernel.alpha
    else:
        f = lambda v: eval_g(kernel, v) * eval_g(kernel, gap + v)
        head = kernel.alpha
    return _quad_piecewise(f, 0.0, float(s), head)


def _covariance_quadrature(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """The grid covariance entry by entry by quadrature, for any kernel.

    O(n^2) adaptive integrals: the gamma and power-law kernels' only
    route, and the test oracle for the Riemann-Liouville closed form.
    """
    t = grid.times
    cov = np.zeros((grid.n + 1, grid.n + 1))
    for i in range(1, grid.n + 1):
        for j in range(i, grid.n + 1):
            cov[i, j] = cov[j, i] = _covariance_entry(kernel, t[i], t[j])
    return cov


def _covariance_rl(alpha: float, grid: Grid) -> np.ndarray:
    """The Riemann-Liouville grid covariance in closed form.

    For 0 < s < t, int_0^s (t-u)^a (s-u)^a du
    = s^(a+1) t^a / (a+1) * 2F1(-a, 1; a+2; s/t), filled over the upper
    triangle and mirrored, so the matrix is exactly symmetric; the
    diagonal is t^(2H) / (2H) with 2H = 2a + 1.
    """
    two_h = 2.0 * alpha + 1.0
    if two_h <= 0.0:
        raise ValueError(f"covariance needs alpha > -1/2, got {alpha}")
    t = grid.times[1:]
    upper_i, upper_j = np.triu_indices(grid.n, k=1)
    s, u = t[upper_i], t[upper_j]
    upper = (s ** (alpha + 1.0) * u ** alpha / (alpha + 1.0)
             * hyp2f1(-alpha, 1.0, alpha + 2.0, s / u))
    cov = np.zeros((grid.n + 1, grid.n + 1))
    inner = cov[1:, 1:]
    inner[upper_i, upper_j] = upper
    inner[upper_j, upper_i] = upper
    np.fill_diagonal(inner, t ** two_h / two_h)
    return cov


@lru_cache(maxsize=8)
def _covariance_cached(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    if kernel.kind == "rl":
        cov = _covariance_rl(kernel.alpha, grid)
    else:
        cov = _covariance_quadrature(kernel, grid)
    cov.setflags(write=False)
    return cov


def volterra_covariance(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """Cov(Z_s, Z_t) = int_0^{s^t} g(t-u) g(s-u) du on the grid.

    In closed form (a Gauss hypergeometric function) for the
    Riemann-Liouville kernel, by adaptive quadrature for the others.
    Entry [i, j] covers times (t_i, t_j); row and column 0 are zero. The
    result is cached per (kernel, grid) and returned read-only.
    """
    return _covariance_cached(kernel, grid)


def cholesky_exact_rl(kernel: KernelSpec, grid: Grid, num_paths: int,
                      seed: int) -> PathSet:
    """Exact joint Gaussian samples of (G^alpha W)(t_1..t_n).

    Dense Cholesky of the closed-form covariance (jitter 1e-12), driven by
    the STREAM_CHOLESKY normals of paths 0..num_paths-1; meant for
    validation, so the grid is capped at n <= 512.
    """
    if grid.n > 512:
        raise ValueError("exact sampler is limited to n <= 512")
    cov = volterra_covariance(kernel, grid)[1:, 1:]
    try:
        factor = np.linalg.cholesky(cov + 1e-12 * np.eye(grid.n))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("covariance not positive definite after jitter") from exc
    normals = np.empty((num_paths, grid.n))
    for row, rng in zip(normals, path_generators(seed, 0, num_paths,
                                                 STREAM_CHOLESKY)):
        rng.standard_normal(out=row)
    values = np.zeros((num_paths, grid.n + 1))
    values[:, 1:] = normals @ factor.T
    return PathSet(values=values, grid=grid, scheme_tag="cholesky", seed=seed)
