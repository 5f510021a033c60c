"""Correlated iid shock matrices (zeta, xi) with per-path counter streams.

The volatility driver sees zeta; the stock driver sees
xi = rho*zeta + sqrt(1-rho^2)*zeta_perp. Every path draws from its own
Philox stream keyed by (seed, path index), so results are deterministic,
parallel-safe and stable when the path count grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# stream tags packed into the high bits of the second Philox key word so
# different consumers of the same (seed, path) never collide
STREAM_SHOCKS = 0
STREAM_HYBRID_AUX = 1
STREAM_CHOLESKY = 2
_TAG_SHIFT = 48
_PATHS = 2 ** _TAG_SHIFT  # path indices below the stream tag
_SEEDS = 2 ** 64  # Philox key words are unsigned 64-bit


def _check_index(name: str, value, bound: int) -> int:
    """`value` as an int; a ValueError naming it unless it is an integer in [0, bound)."""
    if type(value) is int and 0 <= value < bound:  # cheap: checked once a path
        return value
    if isinstance(value, np.integer) and 0 <= int(value) < bound:
        return int(value)
    raise ValueError(f"{name} must be an integer in "
                     f"[0, 2**{bound.bit_length() - 1}), got {value!r}")


def check_seed(seed) -> int:
    """`seed` as an int; a ValueError naming it unless it is an integer in [0, 2**64).

    Philox keys are unsigned 64-bit words, so a negative or larger seed
    has no stream, and a float would be silently truncated to one.
    """
    return _check_index("seed", seed, _SEEDS)


# the state of a Philox bit generator that has drawn nothing, less its key
_FRESH_PHILOX = np.random.Philox(key=np.zeros(2, dtype=np.uint64)).state
_FRESH_COUNTER = _FRESH_PHILOX["state"]["counter"]


def check_path(path) -> int:
    """`path` as an int; a ValueError naming it unless it is an integer in [0, 2**48).

    The path index shares the second Philox key word with the stream tag
    above bit 48, so a larger index would draw another stream's numbers.
    """
    return _check_index("path", path, _PATHS)


def path_rng(seed: int, path: int, stream: int = STREAM_SHOCKS, *,
             reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Counter-based generator for one path: key = (seed, tag<<48 | path).

    With `reuse`, a generator an earlier call returned, that generator's
    Philox is reset to this key with a zero counter and an empty buffer,
    and returned in place of a new one: it draws what a new one would,
    without building two objects per path.
    """
    key = (check_seed(seed), (stream << _TAG_SHIFT) | check_path(path))
    if reuse is None:
        return np.random.Generator(
            np.random.Philox(key=np.array(key, dtype=np.uint64)))
    reuse.bit_generator.state = {
        **_FRESH_PHILOX, "state": {"counter": _FRESH_COUNTER, "key": key}}
    return reuse


def path_generators(seed: int, start: int, stop: int,
                    stream: int = STREAM_SHOCKS):
    """Yield, for paths start..stop-1, a generator drawing what `path_rng` draws.

    One generator serves every path: `path_rng` re-keys it for each, so
    the yielded object is the same one, valid until the next is taken.
    Each path is keyed by a call to the module's `path_rng`, so whatever
    wraps that name (the traced benchmark does) sees every path. A range
    reaching outside [0, 2**48) is rejected before anything is drawn.
    """
    check_seed(seed)
    if stop > start:
        check_path(start)
        check_path(stop - 1)
    return _rekeyed(seed, start, stop, stream)


def _rekeyed(seed: int, start: int, stop: int, stream: int):
    rng = None
    for path in range(start, stop):
        rng = path_rng(seed, path, stream, reuse=rng)
        yield rng


def path_normals(seed: int, start: int, stop: int, shape: tuple,
                 stream: int = STREAM_SHOCKS) -> np.ndarray:
    """Standard normals of `shape` per path start..stop-1, as one array.

    Row j is what path start + j's `stream` draws first; every normal the
    package draws is drawn here.
    """
    out = np.empty((stop - start, *shape))
    for row, rng in zip(out, path_generators(seed, start, stop, stream)):
        rng.standard_normal(out=row)
    return out


@dataclass(frozen=True)
class NoiseConfig:
    """Shock-generation request: iid standard normal drivers.

    Parameters
    ----------
    paths : int
        Number of output rows M.
    steps : int
        Number of columns n.
    rho : float
        Driver correlation in [-1, 1].
    seed : int
        Base seed, an integer in [0, 2**64); per-path streams derive from
        (seed, path index).
    antithetic : bool
        Expand sign-combination variates; requires M divisible by 4
        (by 2 when |rho| = 1, where the four tuples collapse pairwise).
    """

    paths: int
    steps: int
    rho: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        check_seed(self.seed)
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if self.antithetic:
            if abs(self.rho) == 1.0:
                if self.paths % 2:
                    raise ValueError("antithetic with |rho| = 1 needs M divisible by 2")
            elif self.paths % 4:
                raise ValueError("antithetic needs M divisible by 4")


class ShockMatrices:
    """Paired M x n shock matrices: zeta drives volatility, xi the stock.

    `xi` is an array, or a function of no arguments that builds one: then
    the stock matrix is built on the first read of `.xi` and kept, so a
    consumer that reads only zeta (the conditional estimator) never pays
    for it. Either way its shape must be zeta's. The builder reads the
    arrays it closes over when `.xi` is first read, so `draw_shocks` hands
    out its drawn normals read-only: without antithetics zeta is one of
    them.
    """

    __slots__ = ("zeta", "antithetic_group", "_xi")

    def __init__(self, zeta: np.ndarray, xi, antithetic_group: int = 1):
        self.zeta = zeta
        self.antithetic_group = antithetic_group
        self._xi = xi if callable(xi) else self._checked(xi)

    def _checked(self, xi: np.ndarray) -> np.ndarray:
        if xi.shape != self.zeta.shape:
            raise ValueError("zeta and xi must share a shape")
        return xi

    @property
    def xi(self) -> np.ndarray:
        if callable(self._xi):
            self._xi = self._checked(self._xi())
        return self._xi


def base_group(config: NoiseConfig) -> int:
    """Rows emitted per base path (4/2 antithetic variates, else 1)."""
    if not config.antithetic:
        return 1
    return 2 if abs(config.rho) == 1.0 else 4


def draw_shocks(config: NoiseConfig, base_range: tuple | None = None) -> ShockMatrices:
    """Generate the correlated shock matrices described by `config`.

    Without antithetics, xi = rho*zeta + rhobar*zeta_perp entrywise. With
    antithetics the four sign-combination variates of each base path are
    emitted contiguously (two at |rho| = 1, where they collapse pairwise).
    The stock matrix xi is built when first read (see `ShockMatrices`).

    `base_range=(start, stop)` restricts the draw to those base paths
    (stream keys use absolute indices, so chunked draws concatenate to
    exactly the full matrix). Default: all of them.
    """
    rho = config.rho
    group = base_group(config)
    total_base = config.paths // group
    if base_range is None:
        base_range = (0, total_base)
    start, stop = base_range
    if not 0 <= start < stop <= total_base:
        raise ValueError(f"base_range {base_range} outside [0, {total_base}]")
    # two independent draws per base path
    block = path_normals(config.seed, start, stop, (2, config.steps))
    block.setflags(write=False)  # a lazy xi reads it later
    first, second = block[:, 0], block[:, 1]

    if config.antithetic and abs(rho) == 1.0:
        # pairs (rho*xi, xi), (-rho*xi, -xi) of the second draw; the first
        # is drawn to keep the stream layout identical across modes but
        # carries no weight here
        return ShockMatrices(zeta=_signed_pairs(rho * second),
                             xi=lambda: _signed_pairs(second),
                             antithetic_group=2)
    if config.antithetic:
        return antithetic_expand(ShockMatrices(zeta=first, xi=second), rho)
    rhobar = np.sqrt(1.0 - rho ** 2)
    return ShockMatrices(zeta=first, xi=lambda: rho * first + rhobar * second)


def _signed_pairs(rows: np.ndarray) -> np.ndarray:
    """Rows r_0, -r_0, r_1, -r_1, ... of `rows`."""
    out = np.empty((2 * rows.shape[0], rows.shape[1]))
    pairs = out.reshape(rows.shape[0], 2, rows.shape[1])
    pairs[:, 0] = rows
    np.negative(rows, out=pairs[:, 1])
    return out


def antithetic_expand(shocks: ShockMatrices, rho: float) -> ShockMatrices:
    """Expand base draws into the four antithetic variates per path.

    The base matrices hold two independent draws (zeta, xi) per path; the
    output pairs (volatility shock, stock shock) are
    (rho*xi + rhobar*zeta, xi), (rho*xi - rhobar*zeta, xi),
    (-rho*xi - rhobar*zeta, -xi), (-rho*xi + rhobar*zeta, -xi),
    grouped contiguously per base path. The volatility rows are written
    in place into one M x n array; the stock rows are built from
    `shocks.xi` when the result's `xi` is first read.
    """
    zeta_b, xi_b = shocks.zeta, shocks.xi
    m_base, n = zeta_b.shape
    rhobar = np.sqrt(1.0 - rho ** 2)
    vol = np.empty((4 * m_base, n))
    variates = vol.reshape(m_base, 4, n)
    plus, minus = variates[:, 0], variates[:, 1]
    np.multiply(zeta_b, rhobar, out=variates[:, 2])  # scratch until negated
    np.multiply(xi_b, rho, out=plus)
    np.subtract(plus, variates[:, 2], out=minus)
    plus += variates[:, 2]
    np.negative(variates[:, :2], out=variates[:, 2:])

    def stock():
        out = np.empty((4 * m_base, n))
        signed = out.reshape(m_base, 2, 2, n)
        signed[:, 0] = xi_b[:, None]
        np.negative(signed[:, 0], out=signed[:, 1])
        return out

    return ShockMatrices(zeta=vol, xi=stock, antithetic_group=4)
