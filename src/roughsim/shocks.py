"""Correlated iid shock matrices (zeta, xi) with per-path counter streams.

The volatility driver sees zeta; the stock driver sees
xi = rho*zeta + sqrt(1-rho^2)*zeta_perp. Every normal is drawn by
`path_normals` from a Philox stream keyed by (seed, path index), so results
are deterministic, parallel-safe and stable when the path count grows.
`NoiseConfig.group` gives the rows each base path expands into.
`check_int` and `check_real` are the package's one count and range check.
"""

from __future__ import annotations

import math
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


def check_int(name: str, value, low: int = 1, bound=math.inf) -> int:
    """`value` as an int; a ValueError naming it unless it is an integer in
    [low, bound). A float, even a whole one, and a bool are refused."""
    if type(value) is int and low <= value < bound:  # cheap: checked once a path
        return value
    if isinstance(value, np.integer) and low <= int(value) < bound:
        return int(value)
    span = ("" if low == -math.inf else f" >= {low}") if bound == math.inf \
        else f" in [{low}, 2**{bound.bit_length() - 1})"
    raise ValueError(f"{name} must be an integer{span}, got {value!r}")


def check_real(name: str, value, low: float = -math.inf,
               high: float = math.inf, ends: str = "()"):
    """`value`, unchanged; a ValueError naming it unless every entry of it,
    scalar or array, lies between `low` and `high`, each end open or closed
    as `ends` writes it ("()", "[)", "(]" or "[]"). NaN lies in no interval,
    so the default bounds ask for a finite value. The message's words
    follow from the bounds ("positive and finite", "nonnegative and
    finite", "finite" or "in (a, b]"); of an array it names the first entry
    outside and its flat index.
    """
    above = np.greater_equal if ends[0] == "[" else np.greater
    below = np.less_equal if ends[1] == "]" else np.less
    try:
        inside = above(value, low) & below(value, high)
    except TypeError:  # None, a string: no number at all
        inside = False
    if np.all(inside):
        return value
    if low == 0.0 and high == math.inf:
        words = ("nonnegative" if ends[0] == "[" else "positive") + " and finite"
    elif low == -math.inf and high == math.inf:
        words = "finite"
    else:
        words = f"in {ends[0]}{low:g}, {high:g}{ends[1]}"
    if np.ndim(inside):
        index = int(np.argmin(inside))
        value = f"{np.ravel(value)[index]} at index {index}"
    raise ValueError(f"{name} must be {words}, got {value}")


def check_seed(seed) -> int:
    """`seed` as an int; a ValueError naming it unless it is an integer in [0, 2**64).

    Philox keys are unsigned 64-bit words, so a negative or larger seed
    has no stream, and a float would be silently truncated to one.
    """
    return check_int("seed", seed, 0, _SEEDS)


# the state of a Philox bit generator that has drawn nothing, less its key
_FRESH_PHILOX = np.random.Philox(key=np.zeros(2, dtype=np.uint64)).state
_FRESH_COUNTER = _FRESH_PHILOX["state"]["counter"]


def check_path(path) -> int:
    """`path` as an int; a ValueError naming it unless it is an integer in [0, 2**48).

    The path index shares the second Philox key word with the stream tag
    above bit 48, so a larger index would draw another stream's numbers.
    """
    return check_int("path", path, 0, _PATHS)


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


def path_normals(seed: int, start: int, stop: int, shape: tuple,
                 stream: int = STREAM_SHOCKS) -> np.ndarray:
    """Standard normals of `shape` per path start..stop-1, as one array.

    Row j is what path start + j's `stream` draws first; every normal the
    package draws is drawn here. The seed and the whole range, within
    [0, 2**48), are checked before anything is drawn. Then one generator
    is re-keyed for each path by a call to the module's `path_rng`, looked
    up by name, so whatever wraps that name (the traced benchmark does)
    sees every path.
    """
    check_seed(seed)
    if stop > start:
        check_path(start)
        check_path(stop - 1)
    out = np.empty((stop - start, *shape))
    rng = None
    for path, row in enumerate(out, start):
        rng = path_rng(seed, path, stream, reuse=rng)
        rng.standard_normal(out=row)
    return out


@dataclass(frozen=True)
class NoiseConfig:
    """Shock-generation request: iid standard normal drivers.

    Parameters
    ----------
    paths : int
        Number of output rows M, a multiple of `group`.
    steps : int
        Number of columns n.
    rho : float
        Driver correlation in [-1, 1].
    seed : int
        Base seed, an integer in [0, 2**64); per-path streams derive from
        (seed, path index).
    antithetic : bool
        Expand each base path into the `group` sign-combination variates.
    """

    paths: int
    steps: int
    rho: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        check_seed(self.seed)
        check_int("paths", self.paths)
        check_int("steps", self.steps)
        check_real("rho", self.rho, -1.0, 1.0, "[]")
        if self.paths % self.group:
            raise ValueError(f"paths must be a multiple of the antithetic "
                             f"group of {self.group}, got {self.paths}")

    @property
    def group(self) -> int:
        """Rows per base path: 4 antithetic variates, 2 at |rho| = 1, where
        the four collapse pairwise, and 1 without antithetics."""
        if not self.antithetic:
            return 1
        return 2 if abs(self.rho) == 1.0 else 4


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


def draw_shocks(config: NoiseConfig, base_range: tuple | None = None) -> ShockMatrices:
    """Generate the correlated shock matrices described by `config`.

    Two independent normal rows (zeta, zeta_perp) are drawn per base path.
    Without antithetics, xi = rho*zeta + rhobar*zeta_perp entrywise. With
    them each base path gives `config.group` contiguous rows: the four of
    `antithetic_expand`, or at |rho| = 1 the mirrored pair of zeta_perp.
    The stock matrix xi is built when first read (see `ShockMatrices`).

    `base_range=(start, stop)` restricts the draw to those base paths
    (stream keys use absolute indices, so chunked draws concatenate to
    exactly the full matrix). Default: all of them.
    """
    rho, group = config.rho, config.group
    total_base = config.paths // group
    if base_range is None:
        base_range = (0, total_base)
    start, stop = base_range
    if not 0 <= start < stop <= total_base:
        raise ValueError(f"base_range {base_range} outside [0, {total_base}]")
    block = path_normals(config.seed, start, stop, (2, config.steps))
    block.setflags(write=False)  # a lazy xi reads it later
    first, second = block[:, 0], block[:, 1]
    if group == 4:
        return antithetic_expand(first, second, rho)
    if group == 2:
        # the first draw keeps the stream layout of the other modes but
        # carries no weight here; a compact copy of the second lets the
        # block go when this returns
        second = second.copy()
        return ShockMatrices(zeta=_mirror(rho * second[:, None]),
                             xi=lambda: _mirror(second[:, None]),
                             antithetic_group=2)
    rhobar = np.sqrt(1.0 - rho ** 2)
    return ShockMatrices(zeta=first, xi=lambda: rho * first + rhobar * second)


def _mirror(half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows p_1..p_h, -p_1..-p_h of each group of `half` (groups x h x n),
    into `out` if given (its + rows may be `half`). The package's one sign
    mirror, of shocks and Volterra paths: 0 - p keeps a +0.0, as running
    a scheme on the negated rows does."""
    groups, h, n = half.shape
    if out is None:
        out = np.empty((groups * 2 * h, n))
    signed = out.reshape(groups, 2, h, n)
    signed[:, 0] = half  # a no-op when `half` is these rows
    np.subtract(0.0, half, out=signed[:, 1])
    return out


def antithetic_expand(zeta_b: np.ndarray, xi_b: np.ndarray,
                      rho: float) -> ShockMatrices:
    """Expand two base draws per path into its four antithetic variates.

    `zeta_b` and `xi_b` hold two independent draws per base path; the
    output pairs (volatility shock, stock shock) are
    (rho*xi + rhobar*zeta, xi), (rho*xi - rhobar*zeta, xi),
    (-rho*xi - rhobar*zeta, -xi), (-rho*xi + rhobar*zeta, -xi),
    grouped contiguously per base path. The volatility rows are written
    in place into one M x n array, by `_mirror` for the last two; the
    stock rows are mirrored from a compact copy of `xi_b` when the
    result's `xi` is first read, so the arrays passed in are not kept.
    """
    m_base, n = zeta_b.shape
    xi_b = xi_b.copy()
    rhobar = np.sqrt(1.0 - rho ** 2)
    vol = np.empty((4 * m_base, n))
    variates = vol.reshape(m_base, 4, n)
    plus, minus = variates[:, 0], variates[:, 1]
    np.multiply(zeta_b, rhobar, out=variates[:, 2])  # scratch until negated
    np.multiply(xi_b, rho, out=plus)
    np.subtract(plus, variates[:, 2], out=minus)
    plus += variates[:, 2]
    return ShockMatrices(
        zeta=_mirror(variates[:, :2], out=vol), antithetic_group=4,
        xi=lambda: _mirror(np.broadcast_to(xi_b[:, None], (m_base, 2, n))))
