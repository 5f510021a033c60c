"""Bushy fractional binomial trees and Snell-envelope American pricing.

Rough volatility is non-Markovian, so the tree cannot recombine: every
node carries its full shock history. Level i holds branching^i nodes;
node k's children are branching*k .. branching*k + branching-1. Each
level stores the driver increments, the Volterra-mapped variance and the
log-stock, built with the same per-lag weight convolution and Euler
stock step as the Monte-Carlo engine, but over Rademacher shocks that
enumerate every sign combination exactly once.

Child ordering for branching 4 encodes (zeta, zeta_perp) as
(+,+), (+,-), (-,+), (-,-); branching 2 (forced by |rho| = 1, where the
orthogonal shock carries no weight) encodes zeta = +1, -1.

All level computations are vectorized reshaped-view updates applied in a
fixed lag order, so any leaf value is bitwise reproducible by replaying
its shock string through the same scalar recursion (`replay_leaf`).
Level arrays spill to disk-backed scratch when the tree exceeds the
configured in-memory byte budget.

Calls and puts are `VanillaPayoff` values, `(kind, strike)`. For them
both pricers take the last step, level n-1 to n, in closed form: given a
level-(n-1) node the Euler stock step with a Gaussian shock is lognormal
with forward S e^{(r-q)dt} and total variance v dt, so the node's value
is the discounted Black-Scholes price (the BBS method of Broadie and
Detemple, 1996). The strike's position between the leaves, which the
variance compensator shifts with depth, then no longer sets the error.
Any other payoff callable is averaged over the leaves.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from roughsim.kernels import Grid, left_point_weights, optimal_eval_weights
from roughsim.models import (
    BERGOMI_VARIANTS,
    squared_integral_profile,
    variance_map,
)
from roughsim.volterra import DiffusionSpec

_MAX_DEPTH = {4: 12, 2: 24}
WEIGHTS = ("moment_matched", "left_point")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TreeConfig:
    """Bushy-tree build description.

    `branching` is derived from the model correlation (2 when |rho| = 1,
    else 4) unless forced explicitly; `weights` defaults to the
    moment-matched rule for Brownian drivers and to left-point kernel
    evaluations for diffusion drivers (moment matching presumes
    unit-variance iid increments). `max_in_memory_bytes` caps the level
    arrays held in RAM before spilling to scratch files.
    """

    model: object
    depth: int
    rate: float = 0.0
    dividend: float = 0.0
    horizon: float = 1.0
    weights: str | None = None
    branching: int | None = None
    max_in_memory_bytes: int = 1 << 29

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        derived = 2 if abs(self.model.rho) == 1.0 else 4
        if self.branching is None:
            object.__setattr__(self, "branching", derived)
        elif self.branching not in (2, 4):
            raise ValueError("branching must be 2 or 4")
        elif self.branching == 2 and derived == 4:
            raise ValueError("branching 2 requires |rho| = 1")
        if self.depth > _MAX_DEPTH[self.branching]:
            raise ValueError(
                f"depth {self.depth} exceeds the {self.branching}-branch "
                f"guard ({_MAX_DEPTH[self.branching]}: "
                f"{self.branching}**depth leaves)"
            )
        is_diffusion = isinstance(self.model.driver(), DiffusionSpec)
        if self.weights is None:
            object.__setattr__(
                self, "weights",
                "left_point" if is_diffusion else "moment_matched")
        elif self.weights not in WEIGHTS:
            raise ValueError(f"unknown weights rule {self.weights!r}")
        elif self.weights == "moment_matched" and is_diffusion:
            raise ValueError("moment_matched weights need a Brownian driver")

    @property
    def grid(self) -> Grid:
        return Grid(n=self.depth, T=self.horizon)


@dataclass
class BushyTree:
    """Per-level node arrays of a built tree.

    `log_stock[i]`, `variance[i]` and `driver_increments[i]` hold one
    value per node at level i (`driver_increments[0]` is None: the root
    has no increment). `stats` holds what `build_tree` did: `nodes` over
    all levels, the level arrays' `ram_bytes` and `spilled_bytes` (held in
    disk-backed scratch) and `build_s`.

    A built tree is read-only once priced: the pricers record on it the
    last American pass's `exercise_counts` and, per call or put, the
    European price, which `tree_price_european` then returns instead of
    recomputing the closed-form last step. Editing the level arrays
    afterwards leaves those records stale.
    """

    config: TreeConfig
    log_stock: list
    variance: list
    driver_increments: list
    exercise_counts: np.ndarray | None = None
    stats: dict = field(default_factory=dict)
    _scratch: object = None
    _european: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def depth(self) -> int:
        return self.config.depth

    @property
    def branching(self) -> int:
        return self.config.branching

    def num_nodes(self, level: int) -> int:
        return self.branching ** level


# ----------------------------------------------------------------------
# payoffs
# ----------------------------------------------------------------------

class VanillaPayoff(NamedTuple):
    """Call or put payoff as data; calling it on stock values vectorizes.

    The tree pricers read `kind` and `strike` to price the last step in
    closed form.
    """

    kind: str
    strike: float

    def __call__(self, s):
        if self.kind == "call":
            return np.maximum(s - self.strike, 0.0)
        return np.maximum(self.strike - s, 0.0)


def _vanilla(kind: str, strike: float) -> VanillaPayoff:
    strike = float(strike)
    if not strike > 0.0:
        raise ValueError(f"strike must be positive, got {strike}")
    return VanillaPayoff(kind, strike)


def call_payoff(strike: float) -> VanillaPayoff:
    """European call payoff s -> (s - K)+."""
    return _vanilla("call", strike)


def put_payoff(strike: float) -> VanillaPayoff:
    """European put payoff s -> (K - s)+."""
    return _vanilla("put", strike)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def _shock_patterns(branching: int, rho: float) -> tuple:
    """Per-child (zeta, stock shock) scalars in child order."""
    rhobar = math.sqrt(max(1.0 - rho * rho, 0.0))
    if branching == 2:
        zetas = (1.0, -1.0)
        stocks = tuple(rho * z for z in zetas)
    else:
        zetas = (1.0, 1.0, -1.0, -1.0)
        perps = (1.0, -1.0, 1.0, -1.0)
        stocks = tuple(rho * z + rhobar * p for z, p in zip(zetas, perps))
    return np.array(zetas), np.array(stocks)


def _tree_weights(config: TreeConfig) -> np.ndarray:
    kernel = config.model.kernel()
    if config.weights == "moment_matched":
        return optimal_eval_weights(kernel, config.grid)
    return left_point_weights(kernel, config.grid)


class _LevelAllocator:
    """Allocate level arrays in RAM or in a disk-backed scratch dir."""

    def __init__(self, budget_bytes: int):
        self._remaining = budget_bytes
        self._scratch = None
        self._count = 0

    def make(self, size: int) -> np.ndarray:
        nbytes = 8 * size
        if nbytes <= self._remaining:
            self._remaining -= nbytes
            return np.empty(size)
        if self._scratch is None:
            self._scratch = tempfile.TemporaryDirectory(prefix="roughsim-tree-")
        self._count += 1
        path = os.path.join(self._scratch.name, f"level{self._count}.f64")
        return np.memmap(path, dtype=np.float64, mode="w+", shape=(size,))

    @property
    def scratch(self):
        return self._scratch


def _variance_inputs(model, grid: Grid) -> list:
    """Per-level (q, xi) arguments of `variance_map`.

    Q(t_i) and xi0(t_i) for the Bergomi variants; the affine map of
    RoughHestonGJRS takes neither.
    """
    if isinstance(model, BERGOMI_VARIANTS):
        q = squared_integral_profile(model.kernel(), grid)
        return list(zip(q, model.xi0(grid.times)))
    return [(None, None)] * (grid.n + 1)


def build_tree(config: TreeConfig) -> BushyTree:
    """Construct all levels of the bushy tree.

    Per level: enumerate the child shocks, extend the driver increments,
    rebuild the Volterra value phi(t_i) by the per-lag weight sum over
    ancestor increments (ascending lag order, reshaped-view updates) and
    map to variance and log-stock.
    """
    start = time.perf_counter()
    model = config.model
    grid = config.grid
    b = config.branching
    n = config.depth
    dt = grid.dt
    zetas, stock_shocks = _shock_patterns(b, model.rho)
    weights = _tree_weights(config)
    driver = model.driver()
    diffusion = driver if isinstance(driver, DiffusionSpec) else None
    inputs = _variance_inputs(model, grid)

    alloc = _LevelAllocator(config.max_in_memory_bytes)
    log_stock = [np.zeros(1)]
    variance = [np.array([variance_map(model, 0.0, *inputs[0])])]
    increments = [None]
    sqrt_dt = np.sqrt(dt)
    growth = (config.rate - config.dividend) * dt
    half_dt = -0.5 * dt
    y_state = None if diffusion is None else np.full(1, diffusion.y0)

    for i in range(1, n + 1):
        parents = b ** (i - 1)
        size = b * parents

        # driver increments for the new level
        dy = alloc.make(size)
        dy_view = dy.reshape(parents, b)
        if diffusion is None:
            dy_view[:] = (sqrt_dt * zetas)[None, :]
        else:
            clipped = diffusion.clip(y_state)
            drift = np.asarray(diffusion.drift(clipped), dtype=float)
            diff = np.asarray(diffusion.diffusion(clipped), dtype=float)
            dy_view[:] = drift[:, None] * dt + diff[:, None] * (sqrt_dt * zetas)
            y_state = np.repeat(y_state, b) + dy
        increments.append(dy)

        # Volterra value phi(t_i): ascending lags over ancestor increments
        phi = np.zeros(size)
        for m in range(1, i + 1):
            level = i - m + 1
            contrib = weights[m - 1] * increments[level]
            phi.reshape(b ** level, -1)[...] += contrib[:, None]

        v = alloc.make(size)
        v[:] = variance_map(model, phi, *inputs[i])
        variance.append(v)

        # log-stock Euler step from the parent level
        v_prev = variance[i - 1]
        x = alloc.make(size)
        x_view = x.reshape(parents, b)
        base = (log_stock[i - 1] + growth) + half_dt * v_prev
        vol = np.sqrt(dt * v_prev)
        for r in range(b):
            x_view[:, r] = base + vol * stock_shocks[r]
        log_stock.append(x)

    arrays = log_stock + variance + increments[1:]
    spilled = sum(a.nbytes for a in arrays if isinstance(a, np.memmap))
    stats = {"nodes": sum(b ** i for i in range(n + 1)),
             "ram_bytes": sum(a.nbytes for a in arrays) - spilled,
             "spilled_bytes": spilled,
             "build_s": time.perf_counter() - start}
    return BushyTree(config=config, log_stock=log_stock, variance=variance,
                     driver_increments=increments, stats=stats,
                     _scratch=alloc.scratch)


def replay_leaf(tree: BushyTree, leaf: int) -> float:
    """Recompute one leaf's log-stock from its shock string alone.

    Follows the identical scalar operation sequence as the vectorized
    builder, so the result is bitwise equal to the stored leaf value.
    """
    config = tree.config
    model = config.model
    b = config.branching
    n = config.depth
    if not 0 <= leaf < b ** n:
        raise ValueError(f"leaf {leaf} outside level {n}")
    grid = config.grid
    dt = grid.dt
    zetas, stock_shocks = _shock_patterns(b, model.rho)
    weights = _tree_weights(config)
    driver = model.driver()
    diffusion = driver if isinstance(driver, DiffusionSpec) else None
    inputs = _variance_inputs(model, grid)

    digits = [(leaf // b ** (n - l)) % b for l in range(1, n + 1)]
    sqrt_dt = np.sqrt(dt)
    growth = (config.rate - config.dividend) * dt
    half_dt = -0.5 * dt
    x = np.float64(0.0)
    v_prev = np.float64(variance_map(model, 0.0, *inputs[0]))
    y_state = None if diffusion is None else np.float64(diffusion.y0)
    dy_path = []
    for i in range(1, n + 1):
        r = digits[i - 1]
        if diffusion is None:
            dy = np.float64(sqrt_dt * zetas[r])
        else:
            clipped = diffusion.clip(y_state)
            drift = np.float64(diffusion.drift(clipped))
            diff = np.float64(diffusion.diffusion(clipped))
            dy = drift * np.float64(dt) + diff * (sqrt_dt * zetas[r])
            y_state = y_state + dy
        dy_path.append(dy)
        phi = np.float64(0.0)
        for m in range(1, i + 1):
            phi += weights[m - 1] * dy_path[i - m]
        v = np.float64(variance_map(model, phi, *inputs[i]))
        base = (x + growth) + half_dt * v_prev
        x = base + np.sqrt(dt * v_prev) * stock_shocks[r]
        v_prev = v
    return float(x)


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------

def _leaf_stock(tree: BushyTree) -> np.ndarray:
    return tree.config.model.spot * np.exp(tree.log_stock[tree.depth])


def _log_forward(tree: BushyTree) -> np.ndarray:
    """log(S e^{(r-q)dt}) at each level-(n-1) node."""
    config = tree.config
    shift = (math.log(config.model.spot)
             + (config.rate - config.dividend) * config.grid.dt)
    return tree.log_stock[config.depth - 1] + shift


def _last_step_values(tree: BushyTree, payoff: VanillaPayoff) -> np.ndarray:
    """Undiscounted Black-Scholes value of `payoff` at each level-(n-1) node.

    Forward S e^{(r-q)dt}, total variance v dt: the law of the node's
    Euler stock step when its shock is Gaussian. d1 is formed from the
    stored log-stock, without a log of the forward array.
    """
    config = tree.config
    strike = payoff.strike
    log_forward = _log_forward(tree)
    forward = np.exp(log_forward)
    s = np.sqrt(config.grid.dt * tree.variance[config.depth - 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (log_forward - math.log(strike)) / s
    d1 += 0.5 * s
    if payoff.kind == "call":
        value = forward * ndtr(d1)
        value -= strike * ndtr(d1 - s)
    else:
        value = strike * ndtr(s - d1)
        value -= forward * ndtr(-d1)
    flat = s == 0.0
    if flat.any():
        value[flat] = payoff(forward[flat])
    return value


def _continuation(values: np.ndarray, b: int, disc: float) -> np.ndarray:
    """disc times the mean over each node's b children.

    Strided sums, bitwise equal to disc * values.reshape(-1, b).mean(1)
    and several times faster at b = 2.
    """
    total = values[0::b] + values[1::b]
    for r in range(2, b):
        total += values[r::b]
    total /= b
    total *= disc
    return total


def tree_forward(tree: BushyTree) -> float:
    """Forward of the pricing rule: mean over level n-1 of S e^{(r-q)dt}.

    This is the equal-weight expectation of the closed-form last step, so
    call - put = e^{-rT} (tree_forward - K) on one tree.
    """
    return float(np.mean(np.exp(_log_forward(tree))))


def _european_from_last_step(tree: BushyTree, last: np.ndarray) -> float:
    """e^{-rT} times the mean closed-form last-step value over level n-1."""
    config = tree.config
    return math.exp(-config.rate * config.horizon) * float(np.mean(last))


def tree_price_european(tree: BushyTree, payoff) -> float:
    """Discounted equal-weight expectation e^{-rT} * E[payoff(S_T)].

    Calls and puts (`VanillaPayoff`) average the closed-form last step
    over level n-1; any other callable is averaged over the leaves. A
    call or put's price is recorded on the tree, by this pricer or by
    `tree_price_american`, and later calls return the record: the same
    expression on the same array, so the price does not depend on the
    order of pricer calls.
    """
    if isinstance(payoff, VanillaPayoff):
        price = tree._european.get(payoff)
        if price is None:
            price = _european_from_last_step(
                tree, _last_step_values(tree, payoff))
            tree._european[payoff] = price
        return price
    config = tree.config
    disc = math.exp(-config.rate * config.horizon)
    return disc * float(np.mean(payoff(_leaf_stock(tree))))


def _snell_violation(level, payoff, amer, euro, exercise) -> str:
    """Name the first node where the American value fails to dominate."""
    exercise = np.broadcast_to(exercise, amer.shape)
    bad = ~((amer >= euro) & (amer >= exercise))
    node = int(np.flatnonzero(bad)[0])
    if not amer[node] >= euro[node]:
        other = f"European value {float(euro[node])!r}"
    else:
        other = f"exercise value {float(exercise[node])!r}"
    if isinstance(payoff, VanillaPayoff):
        contract = f"{payoff.kind} with strike {payoff.strike!r}"
    else:
        contract = f"payoff {payoff!r}"
    return (f"Snell domination violated at level {level}, node {node} "
            f"({contract}): American value {float(amer[node])!r} "
            f"is not >= {other}")


def tree_price_american(tree: BushyTree, payoff, details: bool = False):
    """Snell-envelope backward induction.

    Per level: node value = max(discount * mean(children), exercise)
    with per-step discount e^{-rate * T/n}. At level n-1 the continuation
    of a call or put is the discounted closed-form last step, as in
    `tree_price_european`; any other callable starts from the leaves.
    Dominance over both the European continuation and the exercise value
    is asserted at every node. With `details`, returns a dict carrying the
    American and European root values, the early-exercise premium and
    per-level exercising-node counts (the exercise boundary's level
    profile, also stored on the tree) and the pass's `induction_s`. A call
    or put's European price, as `tree_price_european` computes it from the
    same last-step array, is recorded on the tree.
    """
    start = time.perf_counter()
    config = tree.config
    b = config.branching
    n = config.depth
    spot = config.model.spot
    disc = math.exp(-config.rate * config.horizon / n)
    vanilla = isinstance(payoff, VanillaPayoff)
    if vanilla:
        last = _last_step_values(tree, payoff)
        european = _european_from_last_step(tree, last)
        cont_a = euro = disc * last
        del last
    else:
        cont_a = euro = _continuation(payoff(_leaf_stock(tree)), b, disc)
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            cont_a = _continuation(amer, b, disc)
            euro = _continuation(euro, b, disc)
        exercise = payoff(spot * np.exp(tree.log_stock[i]))
        amer = np.maximum(cont_a, exercise)
        if not (np.all(amer >= euro) and np.all(amer >= exercise)):
            raise AssertionError(
                _snell_violation(i, payoff, amer, euro, exercise))
        counts[i] = np.count_nonzero(exercise > cont_a)
    tree.exercise_counts = counts
    if vanilla:
        tree._european[payoff] = european
    price = float(amer[0])
    if not details:
        return price
    return {
        "price": price,
        "european_price": float(euro[0]),
        "early_exercise_premium": price - float(euro[0]),
        "exercise_counts": counts,
        "depth": n,
        "branching": b,
        "induction_s": time.perf_counter() - start,
    }
