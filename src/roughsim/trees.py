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
its shock string through the same recursion on one-node arrays
(`replay_leaf`). Every node's variance comes from the Monte-Carlo variance
stage, `models.variance_map`, which names a non-finite one. Building a
level and each step of the backward induction run over blocks of
`_TREE_BLOCK_NODES` nodes, so that every elementwise pass over a block
stays in cache; each node sees the same operations in the same order as
in one pass over the whole level, so the block size changes no bit of
any result. Level arrays spill to disk-backed scratch when the tree
exceeds the configured in-memory byte budget.

Calls and puts are `VanillaPayoff` values, `(kind, strike)`. For them
both pricers take the last step, level n-1 to n, in closed form: given a
level-(n-1) node the Euler stock step with a Gaussian shock is lognormal
with forward S e^{(r-q)dt} and total variance v dt, so the node's value
is the discounted Black-Scholes price (the BBS method of Broadie and
Detemple, 1996). The strike's position between the leaves, which the
variance compensator shifts with depth, then no longer sets the error.
Any other payoff callable starts from the leaves. The European price is
the American pass with exercise switched off, the discounted backward
mean of these values, so American >= European holds bitwise.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from roughsim.kernels import Grid, left_point_weights, optimal_eval_weights
from roughsim.models import (  # noqa: F401 - Q stays importable from here
    squared_integral_profile,
    variance_map,
)
from roughsim.pricing import _black_scholes, _group_means, _intrinsic
from roughsim.shocks import check_int, check_real
from roughsim.volterra import DiffusionSpec

_MAX_DEPTH = {4: 12, 2: 24}
WEIGHTS = ("moment_matched", "left_point")
# Nodes per block of a level pass: 128 KB per float64 array. A power of 4,
# and so of 2, like every level size and every ancestor's subtree: a
# subtree then either holds whole blocks or tiles one exactly.
_TREE_BLOCK_NODES = 4 ** 7


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TreeConfig:
    """Bushy-tree build description.

    `branching` is derived: 2 when |rho| = 1, else 4. `weights` defaults
    to the moment-matched rule for Brownian drivers and to left-point
    kernel evaluations for diffusion drivers (moment matching presumes
    unit-variance iid increments). `max_in_memory_bytes` caps the level
    arrays held in RAM before spilling to scratch files.
    """

    model: object
    depth: int
    rate: float = 0.0
    dividend: float = 0.0
    horizon: float = 1.0
    weights: str | None = None
    max_in_memory_bytes: int = 1 << 29

    def __post_init__(self):
        check_int("depth", self.depth)
        check_int("max_in_memory_bytes", self.max_in_memory_bytes, 0)
        check_real("horizon", self.horizon, 0.0)
        check_real("rate", self.rate)
        check_real("dividend", self.dividend)
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
    def branching(self) -> int:
        return 2 if abs(self.model.rho) == 1.0 else 4

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
    disk-backed scratch), `clamp_cells` (nodes whose variance the map
    clamped to zero) and `domain_clips` (driver states clipped to their
    domain before an Euler step), both 0 for Bergomi trees, and `build_s`.

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
        return _intrinsic(self.kind, s, self.strike)


def _vanilla(kind: str, strike: float) -> VanillaPayoff:
    return VanillaPayoff(kind, check_real("strike", float(strike), 0.0))


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


def _step_inputs(config: TreeConfig) -> tuple:
    """What every level step of `build_tree` and `replay_leaf` reads."""
    model = config.model
    dt = config.grid.dt
    weigh = (optimal_eval_weights if config.weights == "moment_matched"
             else left_point_weights)
    driver = model.driver()
    return (*_shock_patterns(config.branching, model.rho),
            weigh(model.kernel(), config.grid),
            driver if isinstance(driver, DiffusionSpec) else None,
            dt, np.sqrt(dt), (config.rate - config.dividend) * dt, -0.5 * dt)


class _LevelAllocator:
    """Allocate level arrays in RAM or in a disk-backed `scratch` dir
    (None until a level spills)."""

    def __init__(self, budget_bytes: int):
        self._remaining = budget_bytes
        self.scratch = None
        self._count = 0

    def make(self, size: int) -> np.ndarray:
        nbytes = 8 * size
        if nbytes <= self._remaining:
            self._remaining -= nbytes
            return np.empty(size)
        if self.scratch is None:
            self.scratch = tempfile.TemporaryDirectory(prefix="roughsim-tree-")
        self._count += 1
        path = os.path.join(self.scratch.name, f"level{self._count}.f64")
        return np.memmap(path, dtype=np.float64, mode="w+", shape=(size,))


def _blocks(size: int, step: int):
    """(lo, hi) bounds of consecutive blocks of `step` covering `size`."""
    return ((lo, min(lo + step, size)) for lo in range(0, size, step))


def build_tree(config: TreeConfig) -> BushyTree:
    """Construct all levels of the bushy tree.

    Per level: enumerate the child shocks, extend the driver increments,
    rebuild the Volterra value phi(t_i) by the per-lag weight sum over
    ancestor increments (ascending lag order, reshaped-view updates) and
    map to variance and log-stock. A level is built in blocks of about
    `_TREE_BLOCK_NODES` nodes (whole parents' children), each finished
    before the next starts; phi is summed in the block's slice of the
    variance array and mapped there in place by `variance_map`.
    """
    start = time.perf_counter()
    model, grid = config.model, config.grid
    b, n = config.branching, config.depth
    (zetas, stock_shocks, weights, diffusion, dt, sqrt_dt, growth,
     half_dt) = _step_inputs(config)
    alloc = _LevelAllocator(config.max_in_memory_bytes)
    stats = {"clamp_cells": 0, "domain_clips": 0}
    log_stock = [np.zeros(1)]
    variance = [variance_map(model, np.zeros(1), grid, 0, stats=stats)]
    increments = [None]
    y_state = None if diffusion is None else np.full(1, diffusion.y0)
    parent_block = max(_TREE_BLOCK_NODES // b, 1)

    for i in range(1, n + 1):
        parents = b ** (i - 1)
        size = b * parents

        # driver increments for the new level
        dy = alloc.make(size)
        if diffusion is not None:
            stats["domain_clips"] += diffusion.clip_count(y_state)
            clipped = diffusion.clip(y_state)
            drift = np.asarray(diffusion.drift(clipped), dtype=float)
            diff = np.asarray(diffusion.diffusion(clipped), dtype=float)
            dy.reshape(parents, b)[:] = (drift[:, None] * dt
                                         + diff[:, None] * (sqrt_dt * zetas))
            y_state = np.repeat(y_state, b) + dy
        increments.append(dy)
        v = alloc.make(size)
        x = alloc.make(size)
        x_view = x.reshape(parents, b)
        x_prev, v_prev = log_stock[i - 1], variance[i - 1]

        for p_lo, p_hi in _blocks(parents, parent_block):
            lo, hi = b * p_lo, b * p_hi
            if diffusion is None:
                dy[lo:hi].reshape(-1, b)[:] = (sqrt_dt * zetas)[None, :]

            # Volterra value phi(t_i): ascending lags over ancestor
            # increments; an ancestor m - 1 levels up has span level-i
            # descendants, a whole number of blocks or a divisor of one
            phi = v[lo:hi]
            phi.fill(0.0)
            for m in range(1, i + 1):
                span = b ** (m - 1)
                ancestors = increments[i - m + 1]
                if span >= hi - lo:
                    phi += weights[m - 1] * ancestors[lo // span]
                else:
                    contrib = weights[m - 1] * ancestors[lo // span:hi // span]
                    phi.reshape(-1, span)[...] += contrib[:, None]
            variance_map(model, phi, grid, i, node=lo, stats=stats, out=phi)

            # log-stock Euler step from the parent level
            v_parent = v_prev[p_lo:p_hi]
            base = (x_prev[p_lo:p_hi] + growth) + half_dt * v_parent
            vol = np.sqrt(dt * v_parent)
            for r in range(b):
                x_view[p_lo:p_hi, r] = base + vol * stock_shocks[r]
        variance.append(v)
        log_stock.append(x)

    arrays = log_stock + variance + increments[1:]
    spilled = sum(a.nbytes for a in arrays if isinstance(a, np.memmap))
    stats.update(nodes=sum(b ** i for i in range(n + 1)),
                 ram_bytes=sum(a.nbytes for a in arrays) - spilled,
                 spilled_bytes=spilled, build_s=time.perf_counter() - start)
    return BushyTree(config=config, log_stock=log_stock, variance=variance,
                     driver_increments=increments, stats=stats,
                     _scratch=alloc.scratch)


def replay_leaf(tree: BushyTree, leaf: int) -> float:
    """Recompute one leaf's log-stock from its shock string alone.

    Follows the identical operation sequence as the vectorized builder,
    on one-node arrays, so the result is bitwise equal to the stored leaf
    value; a non-finite variance names the leaf's ancestor at its level.
    """
    config = tree.config
    model, grid = config.model, config.grid
    b, n = config.branching, config.depth
    if not 0 <= check_int("leaf", leaf, -math.inf) < b ** n:
        raise ValueError(f"leaf {leaf} outside level {n}")
    (zetas, stock_shocks, weights, diffusion, dt, sqrt_dt, growth,
     half_dt) = _step_inputs(config)
    x = np.float64(0.0)
    v_prev = variance_map(model, np.zeros(1), grid, 0)[0]
    y_state = None if diffusion is None else np.float64(diffusion.y0)
    dy_path = []
    for i in range(1, n + 1):
        node = leaf // b ** (n - i)  # the leaf's ancestor at level i
        r = node % b
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
        v = variance_map(model, np.array([phi]), grid, i, node=node)[0]
        base = (x + growth) + half_dt * v_prev
        x = base + np.sqrt(dt * v_prev) * stock_shocks[r]
        v_prev = v
    return float(x)


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------

def _forward_shift(config: TreeConfig) -> float:
    """log(S e^{(r-q)dt}) less the node's log-stock."""
    return (math.log(config.model.spot)
            + (config.rate - config.dividend) * config.grid.dt)


def _last_step_values(tree: BushyTree, payoff: VanillaPayoff) -> np.ndarray:
    """Undiscounted Black-Scholes value of `payoff` at each level-(n-1) node.

    Forward S e^{(r-q)dt}, total variance v dt: the law of the node's
    Euler stock step when its shock is Gaussian. The log-forward comes from
    the stored log-stock, and `pricing._black_scholes` prices each block of
    `_TREE_BLOCK_NODES` nodes into one array, a put floored at zero.
    """
    config = tree.config
    shift = _forward_shift(config)
    dt = config.grid.dt
    log_stock = tree.log_stock[config.depth - 1]
    variance = tree.variance[config.depth - 1]
    last = np.empty(len(log_stock))
    for lo, hi in _blocks(len(last), _TREE_BLOCK_NODES):
        log_forward = log_stock[lo:hi] + shift
        _black_scholes(payoff.kind, payoff.strike, log_forward,
                       np.exp(log_forward), np.sqrt(dt * variance[lo:hi]),
                       out=last[lo:hi])
    return last


def _continuation(values: np.ndarray, b: int, disc: float) -> np.ndarray:
    """disc times the mean over each node's b children (`_group_means`)."""
    total = _group_means(values, b)
    total *= disc
    return total


def tree_forward(tree: BushyTree) -> float:
    """Forward of the pricing rule: mean over level n-1 of S e^{(r-q)dt}.

    This is the equal-weight expectation of the closed-form last step, so
    call - put = e^{-rT} (tree_forward - K) on one tree, to rounding.
    """
    config = tree.config
    log_stock = tree.log_stock[config.depth - 1]
    return float(np.mean(np.exp(log_stock + _forward_shift(config))))


def tree_price_european(tree: BushyTree, payoff) -> float:
    """The discounted backward mean of `payoff` from level n-1 to the root.

    A call or put (`VanillaPayoff`) starts from its discounted closed-form
    last step, any other callable from its leaves: `_backward` with
    exercise off, so the American pass's European leg, bitwise. A call or
    put's price is recorded on the tree, by either pricer, and returned.
    """
    if isinstance(payoff, VanillaPayoff) and payoff in tree._european:
        return tree._european[payoff]
    return _backward(tree, payoff, exercise=False)[1]


def _snell_violation(level, offset, payoff, amer, euro, exercise) -> str:
    """Name the first node where the American value fails to dominate.

    The arrays hold the level's nodes from `offset` on.
    """
    exercise = np.broadcast_to(exercise, amer.shape)
    bad = ~((amer >= euro) & (amer >= exercise))
    index = int(np.flatnonzero(bad)[0])
    if not amer[index] >= euro[index]:
        other = f"European value {float(euro[index])!r}"
    else:
        other = f"exercise value {float(exercise[index])!r}"
    if isinstance(payoff, VanillaPayoff):
        contract = f"{payoff.kind} with strike {payoff.strike!r}"
    else:
        contract = f"payoff {payoff!r}"
    return (f"Snell domination violated at level {level}, node "
            f"{offset + index} ({contract}): American value "
            f"{float(amer[index])!r} is not >= {other}")


def _backward(tree: BushyTree, payoff, exercise: bool) -> tuple:
    """(American root or None, European root, exercise counts or None,
    last_step_s) of the backward pass; `exercise` switches the American
    leg and its Snell check on. Levels run in blocks of `_TREE_BLOCK_NODES`
    nodes, whose values overwrite the front of the level below's arrays,
    which no later block reads. A call or put's European root is recorded.
    """
    start = time.perf_counter()
    config = tree.config
    b, n = config.branching, config.depth
    spot = config.model.spot
    disc = math.exp(-config.rate * config.horizon / n)
    vanilla = isinstance(payoff, VanillaPayoff)
    last_step_s = 0.0
    if vanilla:
        euro = _last_step_values(tree, payoff)
        last_step_s = time.perf_counter() - start
        euro *= disc  # level n-1's continuation, American and European
    else:
        euro = np.empty(b ** (n - 1))
    amer = np.empty(b ** (n - 1)) if exercise else None
    counts = np.zeros(n, dtype=np.int64) if exercise else None
    for i in range(n - 1, -1, -1):
        for lo, hi in _blocks(b ** i, _TREE_BLOCK_NODES):
            if i < n - 1:
                if exercise:
                    cont = _continuation(amer[b * lo:b * hi], b, disc)
                euro[lo:hi] = _continuation(euro[b * lo:b * hi], b, disc)
            elif vanilla:
                cont = euro[lo:hi]
            else:
                leaves = spot * np.exp(tree.log_stock[n][b * lo:b * hi])
                cont = _continuation(payoff(leaves), b, disc)
                euro[lo:hi] = cont
            if not exercise:
                continue
            exercised = payoff(spot * np.exp(tree.log_stock[i][lo:hi]))
            value = np.maximum(cont, exercised, out=amer[lo:hi])
            if not (np.all(value >= euro[lo:hi]) and np.all(value >= exercised)):
                raise AssertionError(_snell_violation(
                    i, lo, payoff, value, euro[lo:hi], exercised))
            counts[i] += np.count_nonzero(exercised > cont)
    if vanilla:
        tree._european[payoff] = float(euro[0])
    return (float(amer[0]) if exercise else None, float(euro[0]), counts,
            last_step_s)


def tree_price_american(tree: BushyTree, payoff, details: bool = False):
    """Snell-envelope backward induction.

    Per level: node value = max(discount * mean(children), exercise)
    with per-step discount e^{-rate * T/n}. At level n-1 the continuation
    of a call or put is the discounted closed-form last step, as in
    `tree_price_european`; any other callable (which must act elementwise)
    starts from the leaves. Dominance over both the European continuation
    and the exercise value is asserted at every node. With `details`,
    returns a dict carrying the American and European root values (the
    latter `tree_price_european`'s price, bitwise), the early-exercise
    premium and per-level exercising-node counts (the exercise boundary's
    level profile, also stored on the tree), the pass's `induction_s` and
    `last_step_s`, the part of it spent on the closed-form last step (0
    for other callables).
    """
    start = time.perf_counter()
    price, european, counts, last_step_s = _backward(tree, payoff,
                                                     exercise=True)
    tree.exercise_counts = counts
    if not details:
        return price
    return {
        "price": price,
        "european_price": european,
        "early_exercise_premium": price - european,
        "exercise_counts": counts,
        "depth": tree.depth,
        "branching": tree.branching,
        "induction_s": time.perf_counter() - start,
        "last_step_s": last_step_s,
    }
