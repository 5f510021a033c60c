"""Correlated iid shock matrices (zeta, xi) with per-path counter streams.

The volatility driver sees zeta; the stock driver sees
xi = rho*zeta + sqrt(1-rho^2)*zeta_perp. Every path draws from its own
Philox stream keyed by (seed, path index), so results are deterministic,
parallel-safe and stable when the path count grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_DISTRIBUTIONS = ("gaussian", "rademacher")

# stream tags packed into the high bits of the second Philox key word so
# different consumers of the same (seed, path) never collide
STREAM_SHOCKS = 0
STREAM_HYBRID_AUX = 1
STREAM_CHOLESKY = 2
_TAG_SHIFT = 48


def check_seed(seed) -> int:
    """`seed` as an int; a ValueError naming it unless it is an integer in [0, 2**64).

    Philox keys are unsigned 64-bit words, so a negative or larger seed
    has no stream, and a float would be silently truncated to one.
    """
    if (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
            and 0 <= int(seed) < 2 ** 64):
        return int(seed)
    raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


# the state of a Philox bit generator that has drawn nothing, less its key
_FRESH_PHILOX = np.random.Philox(key=np.zeros(2, dtype=np.uint64)).state
_FRESH_COUNTER = _FRESH_PHILOX["state"]["counter"]


def path_rng(seed: int, path: int, stream: int = STREAM_SHOCKS, *,
             reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Counter-based generator for one path: key = (seed, tag<<48 | path).

    With `reuse`, a generator an earlier call returned, that generator's
    Philox is reset to this key with a zero counter and an empty buffer,
    and returned in place of a new one: it draws what a new one would,
    without building two objects per path.
    """
    key = (check_seed(seed), (stream << _TAG_SHIFT) | path)
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
    wraps that name (the traced benchmark does) sees every path.
    """
    rng = None
    for path in range(start, stop):
        rng = path_rng(seed, path, stream, reuse=rng)
        yield rng


@dataclass(frozen=True)
class NoiseConfig:
    """Shock-generation request.

    Parameters
    ----------
    distribution : str
        "gaussian" or "rademacher" (both mean 0, variance 1).
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

    distribution: str
    paths: int
    steps: int
    rho: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
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


@dataclass(frozen=True)
class ShockMatrices:
    """Paired M x n shock matrices: zeta drives volatility, xi the stock."""

    zeta: np.ndarray
    xi: np.ndarray
    antithetic_group: int = 1

    def __post_init__(self):
        if self.zeta.shape != self.xi.shape:
            raise ValueError("zeta and xi must share a shape")


def _draw_base(distribution: str, start: int, stop: int, steps: int,
               seed: int) -> tuple:
    """Two independent draws per base path in [start, stop)."""
    first = np.empty((stop - start, steps))
    second = np.empty((stop - start, steps))
    for i, rng in enumerate(path_generators(seed, start, stop)):
        if distribution == "gaussian":
            block = rng.standard_normal((2, steps))
        else:
            block = rng.integers(0, 2, size=(2, steps)) * 2.0 - 1.0
        first[i] = block[0]
        second[i] = block[1]
    return first, second


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

    if config.antithetic and abs(rho) == 1.0:
        zeta_b, xi_b = _draw_base(config.distribution, start, stop,
                                  config.steps, config.seed)
        # pairs (rho*xi, xi), (-rho*xi, -xi); zeta_b is drawn to keep the
        # stream layout identical across modes but carries no weight here
        xi = np.empty((2 * (stop - start), config.steps))
        xi[0::2] = xi_b
        xi[1::2] = -xi_b
        return ShockMatrices(zeta=rho * xi, xi=xi, antithetic_group=2)
    if config.antithetic:
        zeta_b, xi_b = _draw_base(config.distribution, start, stop,
                                  config.steps, config.seed)
        return antithetic_expand(ShockMatrices(zeta=zeta_b, xi=xi_b), rho)

    zeta, zeta_perp = _draw_base(config.distribution, start, stop,
                                 config.steps, config.seed)
    rhobar = np.sqrt(1.0 - rho ** 2)
    xi = rho * zeta + rhobar * zeta_perp
    return ShockMatrices(zeta=zeta, xi=xi)


def antithetic_expand(shocks: ShockMatrices, rho: float) -> ShockMatrices:
    """Expand base draws into the four antithetic variates per path.

    The base matrices hold two independent draws (zeta, xi) per path; the
    output pairs (volatility shock, stock shock) are
    (rho*xi + rhobar*zeta, xi), (rho*xi - rhobar*zeta, xi),
    (-rho*xi - rhobar*zeta, -xi), (-rho*xi + rhobar*zeta, -xi),
    grouped contiguously per base path.
    """
    zeta_b, xi_b = shocks.zeta, shocks.xi
    m_base, n = zeta_b.shape
    rhobar = np.sqrt(1.0 - rho ** 2)
    vol = np.empty((4 * m_base, n))
    stock = np.empty((4 * m_base, n))
    vol[0::4] = rho * xi_b + rhobar * zeta_b
    vol[1::4] = rho * xi_b - rhobar * zeta_b
    vol[2::4] = -vol[0::4]
    vol[3::4] = -vol[1::4]
    stock[0::4] = xi_b
    stock[1::4] = xi_b
    stock[2::4] = -xi_b
    stock[3::4] = -xi_b
    return ShockMatrices(zeta=vol, xi=stock, antithetic_group=4)
