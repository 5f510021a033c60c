"""Driver paths (Euler) and Volterra paths G^alpha Y (discrete convolution).

The rDonsker construction convolves per-lag kernel weights with driver
increments; the FFT path zero-pads to a power of two >= 2n-1 so the
circular convolution equals the linear one. The kappa=1 hybrid scheme is
the same convolution with cell-mean weights plus a normal per cell (law
dt*T*T' + c2^2*I); it and an exact Cholesky sampler serve as comparators.
"""

from __future__ import annotations

import struct
from dataclasses import InitVar, dataclass, field
from functools import lru_cache, partial

import numpy as np
from scipy import fft as sfft
from scipy.special import hyp2f1

from roughsim.kernels import (
    Grid,
    KernelSpec,
    eval_g,
    left_point_weights,
    optimal_eval_weights,
    _quad_piecewise,
)
# path_rng is not called here but stays importable from this module, where
# callers have looked it up; the normals come from `shocks.path_normals`
from roughsim.shocks import (  # noqa: F401
    STREAM_CHOLESKY,
    STREAM_HYBRID_AUX,
    _mirror,
    check_real,
    path_normals,
    path_rng,
)

_BINARY_MAGIC = b"RVOL1"
_HEADER = struct.Struct("<IId")  # M, n+1, T
# the FFT convolution works on as many rows as fill this many bytes once
# zero-padded (32 rows at n=2048), so a block's transforms stay in cache
_FFT_BLOCK_BYTES = 1 << 20
# time steps per block of the Euler loop (`euler_diffusion`). Its Euler
# time for 4096 CIR paths at n=2048 (2-core x86-64 VM, median of 7), at
# blocks of 16/32/64/128/256/512 steps: 0.188/0.191/0.187/0.189/0.204/0.220 s
# in 1024-row chunks inline, 0.441/0.373/0.377/0.380/0.354/0.408 s in
# 512-row chunks on two threads; a step at a time, 0.221 s and 0.711 s
_EULER_BLOCK_STEPS = 64


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionSpec:
    """Ito diffusion dY = b(Y)dt + a(Y)dW for the Euler driver.

    `drift` and `diffusion` must accept numpy arrays (vectorized over
    paths). `domain` clips the state before coefficient evaluation (full
    truncation); pass None bounds for an unrestricted state space. The
    start `y0` must be finite.
    """

    drift: callable
    diffusion: callable
    y0: float
    domain: tuple = (None, None)
    name: str = "diffusion"

    def __post_init__(self):
        check_real("y0", self.y0)
        lo, hi = self.domain
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"domain {self.domain} is empty")

    def clip(self, state, out=None):
        """The state clipped to `domain` (into `out` if given); `state`
        itself if unbounded.

        Calls the ufunc `np.clip` resolves to for the bounds given
        (`np.maximum` for a lower bound alone, `np.minimum` for an upper
        one), so the result is bitwise `np.clip`'s without its frames.
        """
        lo, hi = self.domain
        if hi is None:
            return state if lo is None else np.maximum(state, lo, out=out)
        if lo is None:
            return np.minimum(state, hi, out=out)
        return np.clip(state, lo, hi, out=out)

    def clip_count(self, states) -> int:
        """How many of `states` lie outside `domain`, i.e. are clipped."""
        lo, hi = self.domain
        return sum(int(np.count_nonzero(outside(states, bound)))
                   for bound, outside in ((lo, np.less), (hi, np.greater))
                   if bound is not None)


class NonFinitePath(Exception):
    """Base of the errors that name a bad value by path and time index (or
    by path alone, when `step` is None).

    A caller that ran the computation on some of its rows maps the row
    the error names to its own path index with `renumber`, which rewrites
    the message, and re-raises it.
    """

    def __init__(self, head: str, path: int, step, value, tail: str = ""):
        self.head, self.path = head, int(path)
        self.step = None if step is None else int(step)
        self.value, self.tail = value, tail
        super().__init__(self._message())

    def _message(self) -> str:
        at = "" if self.step is None else f", time index {self.step}"
        return f"{self.head}: path {self.path}{at} is {self.value}{self.tail}"

    def renumber(self, path: int) -> None:
        self.path = int(path)
        self.args = (self._message(),)


class NonFiniteValues(NonFinitePath, ValueError):
    """Path values that are not finite (`check_finite`)."""


class NonFiniteState(NonFinitePath, RuntimeError):
    """An Euler state that is not finite (`euler_diffusion`)."""


def first_non_finite(values: np.ndarray) -> int | None:
    """Flat index of `values`' first non-finite entry, None if there is
    none. One summing pass decides; only a non-finite sum looks further."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.sum(values)):
            return None
    bad = np.flatnonzero(~np.isfinite(values))
    return int(bad[0]) if bad.size else None  # else a finite sum overflowed


def check_finite(values: np.ndarray, label: str, cause: str = "") -> None:
    """Raise a NonFiniteValues (a ValueError) naming `label`, the path
    (row) and time index (column) of `values`' first non-finite entry,
    and `cause` if given."""
    index = first_non_finite(values)
    if index is not None:
        path, step = np.unravel_index(index, values.shape)
        raise NonFiniteValues(f"{label} paths are not finite", path, step,
                              values[path, step], f"; {cause}" if cause else "")


@dataclass
class PathSet:
    """M x (n+1) process values on a grid, with provenance metadata.

    The values are checked to be finite (`check_finite`) unless the
    caller passes `checked=True`, vouching that they already were: the
    same array, or its negation, re-wrapped, or checked with a cause.
    """

    values: np.ndarray
    grid: Grid
    scheme_tag: str
    seed: int | None = None
    stats: dict = field(default_factory=dict)
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.n + 1:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        if not checked:
            check_finite(self.values, self.scheme_tag)

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
        fh.write(_HEADER.pack(m, cols, paths.grid.T))
        fh.write(np.ascontiguousarray(paths.values, dtype="<f8").tobytes())


def load_binary(filename) -> PathSet:
    """Read a path set written by save_binary."""
    with open(filename, "rb") as fh:
        magic = fh.read(len(_BINARY_MAGIC))
        if magic != _BINARY_MAGIC:
            raise ValueError(f"bad magic {magic!r}, not a path-set file")
        header = fh.read(_HEADER.size)
        data = fh.read()
    if len(header) < _HEADER.size:
        raise ValueError("truncated path-set file")
    m, cols, horizon = _HEADER.unpack(header)
    if len(data) != 8 * m * cols:
        raise ValueError("truncated path-set file")
    values = np.frombuffer(data, dtype="<f8").reshape(m, cols).copy()
    return PathSet(values=values, grid=Grid(n=cols - 1, T=horizon),
                   scheme_tag="loaded")


# ----------------------------------------------------------------------
# Euler driver
# ----------------------------------------------------------------------

def euler_diffusion(spec: DiffusionSpec, zeta: np.ndarray, grid: Grid) -> PathSet:
    """Forward Euler for dY = b dt + a dW with shocks zeta.

    Y(t_i) = Y(t_{i-1}) + b(Y+)*dt + a(Y+)*sqrt(dt)*zeta_i where Y+ is
    the state clipped to the domain (full truncation); the number of
    clipped cells lands in stats["domain_clips"]. A non-finite state
    aborts with a NonFiniteState (a RuntimeError) naming the
    `euler:<name>` tag and, by `check_finite`'s row-major rule, the
    lowest bad path at its first non-finite time index, and its value.

    A 1-D shock row is one path, as in `convolve_gfo`.

    The steps run in blocks of `_EULER_BLOCK_STEPS`: a block's shock
    columns are copied once into a contiguous time-major buffer, each
    step reads one contiguous shock row and writes its state row, as
    (Y + b*dt) + (a*sqrt(dt))*zeta, into a second such buffer, and the
    block's states go into the levels in one transposed write. The
    clips are counted after the loop; a state that is not finite stays
    so at every later step, as each step adds to it, so the last states
    name the bad paths. The values are bitwise those of a loop that steps
    one strided column at a time, which took, for 4096 CIR paths at
    n=2048 (2-core x86-64 VM, median of 5), 0.32 s inline in 1024-row
    chunks and 0.68 s in 512-row chunks on two threads, against 0.21 s
    and 0.32 s here. Pooled chunks still take turns at the interpreter
    lock between each step's small ufunc calls, so two threads gain
    little over one.
    """
    zeta = np.atleast_2d(zeta)
    m, n = zeta.shape
    if n != grid.n:
        raise ValueError(f"shock columns {n} do not match grid n={grid.n}")
    dt = grid.dt
    sq = np.sqrt(dt)
    values = np.empty((m, n + 1))
    values[:, 0] = spec.y0
    y = np.full(m, float(spec.y0))
    clipped, drift, noise = np.empty(m), np.empty(m), np.empty(m)
    block = min(_EULER_BLOCK_STEPS, n)
    shocks, states = np.empty((block, m)), np.empty((block, m))
    clip, b, a = spec.clip, spec.drift, spec.diffusion
    multiply, add = np.multiply, np.add
    # the steps after a non-finite state may warn; it is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, block):
            steps = min(block, n - start)
            shocks[:steps] = zeta[:, start:start + steps].T
            for k in range(steps):
                yc = clip(y, out=clipped)
                multiply(b(yc), dt, out=drift)
                add(y, drift, out=drift)
                multiply(a(yc), sq, out=noise)
                multiply(noise, shocks[k], out=noise)
                y = add(drift, noise, out=states[k])
            values[:, start + 1:start + steps + 1] = states[:steps].T
    path = first_non_finite(y)
    if path is not None:
        step = first_non_finite(values[path])
        raise NonFiniteState(f"euler:{spec.name} state non-finite", path,
                             step, values[path, step])
    return PathSet(values=values, grid=grid, scheme_tag=f"euler:{spec.name}",
                   stats={"domain_clips": spec.clip_count(values[:, :n])},
                   checked=True)


# ----------------------------------------------------------------------
# discrete convolution
# ----------------------------------------------------------------------

def _fft_length(n: int) -> int:
    size = 1
    while size < 2 * n - 1:
        size *= 2
    return size


def convolve_gfo(weights: np.ndarray, increments: np.ndarray, grid: Grid,
                 method: str = "fft", scale=None, *,
                 levels: bool = False) -> PathSet:
    """Causal convolution: out(t_i) = sum_{k<=i} weights[i-k+1] * dY(t_k).

    `fft` zero-pads both vectors to a power of two >= 2n-1, multiplies
    the transforms pointwise and truncates (linear convolution). It runs
    over blocks of rows sized by `_FFT_BLOCK_BYTES`: each block is
    transformed, weighted in place and inverted while it is in cache, and
    its first n columns go straight into the output. The weight spectrum
    is computed once per call. pocketfft transforms every row on its own,
    so the result is bitwise that of one transform of the whole batch,
    whatever the block size. `naive` evaluates the defining double loop
    and serves as the oracle. The output carries a zero first column.
    A `scale` multiplies the increments first, dY = scale * increments,
    one row block at a time, so no scaled copy of the whole batch is held.

    With `levels`, the second argument holds a driver's levels
    Y(t_0), ..., Y(t_n) (M x (n+1)) and dY = diff(Y). `fft` differences
    one row block at a time and writes that block's convolution over the
    same rows, so the output is the levels array itself and no increments
    of the whole batch are held; the result is bitwise that of convolving
    np.diff(Y). `naive` differences the whole batch first.
    """
    weights = np.asarray(weights, dtype=float)
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    m, n = increments.shape
    if levels:
        n -= 1
    if weights.shape != (n,):
        raise ValueError(f"weights shape {weights.shape} does not match n={n}")
    if n != grid.n:
        raise ValueError(f"increment columns {n} do not match grid n={grid.n}")

    def block_increments(a: int, b: int) -> np.ndarray:
        block = increments[a:b]
        if levels:
            block = np.diff(block, axis=1)
        return block if scale is None else scale * block

    out = increments if levels else np.empty((m, n + 1))
    if method == "fft":
        size = _fft_length(n)
        what = sfft.rfft(weights, size)
        rows = max(1, _FFT_BLOCK_BYTES // (8 * size))
        for a in range(0, m, rows):
            ihat = sfft.rfft(block_increments(a, a + rows), size, axis=1)
            ihat *= what
            conv = sfft.irfft(ihat, size, axis=1, overwrite_x=True)
            out[a:a + rows, 1:] = conv[:, :n]
    elif method == "naive":
        dy = block_increments(0, m)
        for i in range(1, n + 1):
            out[:, i] = dy[:, :i] @ weights[i - 1:: -1]
    else:
        raise ValueError(f"unknown convolution method {method!r}")
    out[:, 0] = 0.0
    return PathSet(values=out, grid=grid, scheme_tag=f"conv:{method}")


def rdonsker_volterra(kernel: KernelSpec, driver, shocks: np.ndarray, grid: Grid,
                      eval_mode: str = "moment_matched") -> PathSet:
    """G^alpha Y paths by the rDonsker weight convolution.

    Parameters
    ----------
    driver : "brownian" or DiffusionSpec
        Brownian drivers skip the Euler stage: increments are
        sqrt(T/n) * zeta directly. A DiffusionSpec is Euler-stepped, and
        its levels are differenced and convolved in place
        (`convolve_gfo(..., levels=True)`), so the paths returned are the
        Euler array.
    eval_mode : str
        "moment_matched" (optimal evaluation points; Brownian drivers
        only, since variance matching presumes unit-variance iid
        increments) or "left_point".
    """
    if eval_mode not in ("moment_matched", "left_point"):
        raise ValueError(f"unknown eval_mode {eval_mode!r}")
    scale, levels = None, False
    if isinstance(driver, DiffusionSpec):
        if eval_mode == "moment_matched":
            raise ValueError("moment_matched weights need a Brownian driver")
        ypaths = euler_diffusion(driver, shocks, grid)
        # differenced block by block and convolved over the levels in place
        increments, levels, stats = ypaths.values, True, ypaths.stats
    elif driver == "brownian":
        # scaled block by block inside the convolution
        increments, scale, stats = shocks, np.sqrt(grid.dt), {}
    else:
        raise ValueError(f"unknown driver {driver!r}")
    if eval_mode == "moment_matched":
        weights = optimal_eval_weights(kernel, grid)
        tag = "rdonsker_matched"
    else:
        weights = left_point_weights(kernel, grid)
        tag = "rdonsker_left"
    out = convolve_gfo(weights, increments, grid, scale=scale, levels=levels)
    stats["scheme_rows"] = out.num_paths
    return PathSet(values=out.values, grid=grid, scheme_tag=tag, stats=stats,
                   checked=True)


# ----------------------------------------------------------------------
# hybrid-scheme comparator (kappa = 1)
# ----------------------------------------------------------------------

def _hybrid_weights(alpha: float, grid: Grid) -> np.ndarray:
    """Lag weights of the kappa=1 hybrid: the mean of g(u) = u^alpha over
    each lag cell [(k-1)dt, k*dt], k = 1..n,
    m_k = dt^alpha * (k^(a+1) - (k-1)^(a+1)) / (a+1).

    For k >= 2 this is g at Bennedsen, Lunde and Pakkanen's optimal point
    (g at the cell's far end instead biases the covariance by an order of
    magnitude on coarse grids); m_1*dt is the covariance of the nearest
    cell's exact integral with its increment.
    """
    k = np.arange(1, grid.n + 1, dtype=float)
    a1 = alpha + 1.0
    return grid.dt ** alpha * (k ** a1 - (k - 1.0) ** a1) / a1


def hybrid_scheme_rl(hurst: float, shocks_base: np.ndarray, grid: Grid,
                     seed: int, antithetic_group: int = 1,
                     base_offset: int = 0) -> PathSet:
    """Hybrid-scheme paths of G^alpha W for the RL kernel, kappa = 1.

    One causal convolution of the Brownian increments xi with the cell
    means m_k of g (`_hybrid_weights`), lag 1 included, plus c2*eta per
    cell, eta an auxiliary normal from the per-path stream (seed, row).
    With c2^2 = dt^(2a+1)/(2a+1) - m_1^2*dt, m_1*xi + c2*eta has the
    joint law with xi of the nearest cell's exact integral
    int_{t_{k-1}}^{t_k} (t_k - s)^alpha dW_s. The paths' covariance is
    dt*T*T' + c2^2*I, T the lower-triangular Toeplitz matrix of the m_k.

    With `antithetic_group` g > 1, rows arrive as contiguous groups of g
    sign variates per base path, the last g/2 rows of each negating the
    first g/2 (a ValueError names the first row that does not). One eta
    is drawn per base path (stream index `base_offset` + group ordinal)
    and applied with + on the first g/2 rows and - on the rest, so the
    paths are mirrored exactly as the rows are: the scheme runs on the
    first g/2 rows of each group and their negation fills the others.
    `base_offset` likewise shifts per-row streams when g = 1, letting
    chunked calls reproduce a single full call. The convolution is an FFT.
    """
    check_real("hurst", hurst, 0.0, 1.0)
    if shocks_base.shape[1] != grid.n:
        raise ValueError(f"shock columns {shocks_base.shape[1]} do not match "
                         f"grid n={grid.n}")
    # each run of `share` rows passed on (the + rows of one group) shares an eta
    share = max(antithetic_group // 2, 1)
    return _mirrored(
        partial(_hybrid_rows, hurst - 0.5, grid=grid, seed=seed, share=share,
                base_offset=base_offset), shocks_base, antithetic_group)


def _hybrid_rows(alpha: float, shocks: np.ndarray, *, grid: Grid, seed: int,
                 share: int, base_offset: int) -> PathSet:
    """The hybrid scheme on rows whose consecutive runs of `share` rows
    share one auxiliary normal row, drawn from stream `base_offset` + run:
    one convolution, then c2*eta added in place."""
    m, n = shocks.shape
    dt = grid.dt
    weights = _hybrid_weights(alpha, grid)
    # the increments are scaled block by block inside the convolution
    out = convolve_gfo(weights, shocks, grid, scale=np.sqrt(dt)).values
    var_i = dt ** (2 * alpha + 1.0) / (2 * alpha + 1.0)
    c2 = np.sqrt(max(var_i - weights[0] * weights[0] * dt, 0.0))
    if c2 > 0.0:  # at alpha = 0 the integral is the increment itself
        eta = path_normals(seed, base_offset, base_offset + m // share, (n,),
                           STREAM_HYBRID_AUX)
        eta *= c2
        out.reshape(m // share, share, n + 1)[:, :, 1:] += eta[:, None, :]
    return PathSet(values=out, grid=grid, scheme_tag="hybrid", seed=seed,
                   stats={"scheme_rows": m})


def _mirrored(scheme, shocks: np.ndarray, group: int) -> PathSet:
    """`scheme(shocks)` for rows in antithetic groups of `group`, run on half.

    With `group` 2 or 4, the last group/2 rows of each contiguous group
    must negate the first group/2 bitwise; a ValueError names the first
    row that does not. The schemes passed here are odd in their shocks
    (every operation is sign-symmetric), so `scheme` runs on the first
    group/2 rows of each group only and their paths, negated by
    `shocks._mirror`, fill the others. A non-finite
    error of the scheme names its row of `shocks`, as a run on every row
    would.
    """
    if group == 1:
        return scheme(shocks)
    if group not in (2, 4):
        raise ValueError(f"antithetic_group must be 1, 2 or 4, got {group}")
    m, n = shocks.shape
    if m % group:
        raise ValueError("rows must be a whole number of antithetic groups")
    half = group // 2
    rows = shocks.reshape(m // group, group, n)
    plus, minus = rows[:, :half], rows[:, half:]
    if not np.array_equal(minus, -plus):
        bad = np.flatnonzero(np.any(minus != -plus, axis=2))[0]
        row = (bad // half) * group + half + bad % half
        raise ValueError(f"antithetic row {row} is not the negation of row "
                         f"{row - half}")
    try:
        computed = scheme(plus.reshape(-1, n))
    except NonFinitePath as exc:  # name the row of the whole set
        exc.renumber((exc.path // half) * group + exc.path % half)
        raise
    values = _mirror(computed.values.reshape(m // group, half, -1))
    return PathSet(values=values, grid=computed.grid,
                   scheme_tag=computed.scheme_tag, seed=computed.seed,
                   stats=computed.stats, checked=True)


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
def volterra_covariance(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """Cov(Z_s, Z_t) = int_0^{s^t} g(t-u) g(s-u) du on the grid.

    In closed form (a Gauss hypergeometric function) for the
    Riemann-Liouville kernel, by adaptive quadrature for the others.
    Entry [i, j] covers times (t_i, t_j); row and column 0 are zero. The
    result is cached per (kernel, grid) and returned read-only.
    """
    if kernel.kind == "rl":
        cov = _covariance_rl(kernel.alpha, grid)
    else:
        cov = _covariance_quadrature(kernel, grid)
    cov.setflags(write=False)
    return cov


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
    normals = path_normals(seed, 0, num_paths, (grid.n,), STREAM_CHOLESKY)
    values = np.zeros((num_paths, grid.n + 1))
    values[:, 1:] = normals @ factor.T
    return PathSet(values=values, grid=grid, scheme_tag="cholesky", seed=seed)
