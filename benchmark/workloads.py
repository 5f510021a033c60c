"""The benchmark's workloads: inputs made from the seed, one op, its checks.

Every op calls only the entry points a user calls (`pricing.smile`,
`trees.build_tree`, `trees.tree_price_*`, `trees.replay_leaf`,
`validation.check_covariance`, `volterra.volterra_covariance`). Op `i` of a
run with workload seed `s` uses seed `s + i`, so ops draw fresh paths but do
identical work. The checks are pure functions of an op's outputs, so a
corrupted output can be fed to them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from roughsim import models, pricing, trees, validation, volterra
from roughsim.kernels import Grid, riemann_liouville
from roughsim.models import RoughBergomi, RoughHestonGJRS

STRIKES = np.linspace(0.80, 1.20, 9)
ATM = 4
MATURITY = 1.0
TARGET_SE = 1e-4           # the accuracy s_to_atm_se_1e-4 is stated at
IV_BAND = 0.01             # smallest allowed |ATM IV - reference|
IV_BAND_SIGMAS = 8.0       # the band also covers 8 IV standard errors
TREE_RATE = 0.05
TREE_CALL_STRIKE = 1.1
REPLAYED_LEAVES = 3
COVARIANCE_RTOL = 1e-9
HURST = 0.1                 # the rough regime of the smile and tree models
HURST_SHIFT = 1e-4
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class OpOutcome:
    """What one op did: its work count, failed checks and extra figures."""

    work: int
    failures: list
    extra: dict = field(default_factory=dict)


def _rough_bergomi(rho):
    return RoughBergomi(xi0=0.04, nu=1.0, hurst=0.1, rho=rho)


def _rough_heston():
    return RoughHestonGJRS(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1,
                           y0=0.04, hurst=0.1, rho=-0.7)


# ----------------------------------------------------------------------
# smiles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Leg:
    """One smile of a smile op.

    `atm_iv_ref` is the ATM implied vol of this model, scheme and grid,
    measured once at M = 1e5 (n = 256) or 2e4 (n = 2048); the schemes'
    discretisation biases differ, so each leg has its own.
    """

    label: str
    model: object
    scheme: str
    paths: int
    steps: int
    atm_iv_ref: float


def atm_iv_stderr(price_stderr: float, vol: float, maturity: float) -> float:
    """Implied-vol standard error from the ATM price's, through the vega."""
    sd = vol * math.sqrt(maturity)
    vega = math.sqrt(maturity) * math.exp(-0.125 * sd * sd) / math.sqrt(2.0 * math.pi)
    return price_stderr / vega


def check_smile(leg: Leg, implied_vols, atm_price_stderr: float) -> list:
    """Failures of one smile: a non-finite IV, or an ATM IV off its reference.

    The ATM band is the wider of IV_BAND and IV_BAND_SIGMAS standard
    errors, so no seed of a correct program leaves it.
    """
    failures = []
    vols = np.asarray(implied_vols, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(vols)))
    if bad:
        failures.append(f"{leg.label}: {bad} of {vols.size} implied vols not finite")
    band = max(IV_BAND, IV_BAND_SIGMAS * atm_iv_stderr(
        atm_price_stderr, leg.atm_iv_ref, MATURITY))
    atm = float(vols[ATM])
    if not abs(atm - leg.atm_iv_ref) <= band:
        failures.append(f"{leg.label}: ATM IV {atm} outside "
                        f"{leg.atm_iv_ref} +- {band:.4g}")
    return failures


class SmileWorkload:
    """Each op prices one smile per leg, conditional BS with antithetics."""

    def __init__(self, name, legs):
        self.name = name
        self.legs = tuple(legs)
        self.work_name = "path_steps_per_s"

    def setup(self):
        """Configs plus the per-process Q(t) tables the variance map reads."""
        configs = []
        for leg in self.legs:
            config = pricing.MCConfig(num_paths=leg.paths,
                                      grid=Grid(leg.steps, MATURITY),
                                      scheme=leg.scheme,
                                      variance_reduction="conditional_bs",
                                      antithetic=True)
            if isinstance(leg.model, RoughBergomi):
                models.squared_integral_profile(leg.model.kernel(), config.grid)
            configs.append(config)
        return configs

    def op(self, configs, seed, index, tracer) -> OpOutcome:
        failures = []
        seconds_to_target = 0.0
        iv_nan = 0
        for leg, config in zip(self.legs, configs):
            start = perf_counter()
            with tracer.span("pricing.smile"):
                result = pricing.smile(leg.model, replace(config, seed=seed + index),
                                       STRIKES)
            seconds = perf_counter() - start
            atm_se = float(result.stderrs[ATM])
            seconds_to_target += seconds * (atm_se / TARGET_SE) ** 2
            iv_nan += int(np.count_nonzero(np.isnan(result.implied_vols)))
            failures += check_smile(leg, result.implied_vols, atm_se)
        tracer.add("pricing.iv_nan", iv_nan)
        work = sum(leg.paths * leg.steps for leg in self.legs)
        return OpOutcome(work, failures,
                         {"s_to_atm_se_1e-4": seconds_to_target})


# ----------------------------------------------------------------------
# trees
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TreeSpec:
    label: str
    rho: float
    depth: int


def tree_nodes(branching: int, depth: int) -> int:
    return sum(branching ** level for level in range(depth + 1))


def check_tree(label, strikes, american_puts, european_puts, american_call,
               european_call, stored_leaves, replayed_leaves) -> list:
    """Failures of one tree: ordering at the root, the call, leaf replay."""
    failures = []
    for strike, amer, euro in zip(strikes, american_puts, european_puts):
        if not amer >= euro:
            failures.append(f"{label}: American put {amer} < European {euro} "
                            f"at K={strike:.6f}")
    gap = abs(american_call - european_call)
    if not gap < 1e-12:
        failures.append(f"{label}: |American call - European call| = {gap}")
    for leaf, (stored, replayed) in enumerate(zip(stored_leaves, replayed_leaves)):
        if stored != replayed:
            failures.append(f"{label}: replayed leaf {leaf} gives {replayed!r}, "
                            f"stored {stored!r}")
    return failures


class TreeWorkload:
    """Each op builds every tree and prices puts and a call on it."""

    def __init__(self, name, specs):
        self.name = name
        self.specs = tuple(specs)
        self.work_name = "tree_nodes_per_s"

    def setup(self):
        configs = []
        for spec in self.specs:
            config = trees.TreeConfig(model=_rough_bergomi(spec.rho),
                                      depth=spec.depth, rate=TREE_RATE)
            models.squared_integral_profile(config.model.kernel(), config.grid)
            configs.append(config)
        return configs

    def op(self, configs, seed, index, tracer) -> OpOutcome:
        rng = np.random.default_rng(seed + index)
        strikes = np.sort(rng.uniform(0.9, 1.1, 3))
        failures = []
        work = 0
        for spec, config in zip(self.specs, configs):
            with tracer.span("trees.build"):
                tree = trees.build_tree(config)
            arrays = tree.log_stock + tree.variance + tree.driver_increments[1:]
            spilled = sum(a.nbytes for a in arrays if isinstance(a, np.memmap))
            tracer.add("trees.spilled_bytes", spilled)
            tracer.add("trees.ram_bytes", sum(a.nbytes for a in arrays) - spilled)
            nodes = tree_nodes(config.branching, config.depth)
            tracer.add("trees.nodes", nodes)
            work += nodes
            with tracer.span("trees.induction"):
                american = [trees.tree_price_american(tree, trees.put_payoff(k))
                            for k in strikes]
                european = [trees.tree_price_european(tree, trees.put_payoff(k))
                            for k in strikes]
                call = trees.call_payoff(TREE_CALL_STRIKE)
                american_call = trees.tree_price_american(tree, call)
                european_call = trees.tree_price_european(tree, call)
            leaves = rng.integers(0, config.branching ** config.depth,
                                  size=REPLAYED_LEAVES)
            stored = [float(tree.log_stock[config.depth][leaf]) for leaf in leaves]
            replayed = [trees.replay_leaf(tree, int(leaf)) for leaf in leaves]
            failures += check_tree(spec.label, strikes, american, european,
                                   american_call, european_call, stored, replayed)
            del tree, arrays
        return OpOutcome(work, failures)


# ----------------------------------------------------------------------
# exact law
# ----------------------------------------------------------------------

def op_hurst(seed: int, index: int) -> float:
    """H of op `index`: HURST raised by less than HURST_SHIFT.

    Quadrature cost falls roughly like 1/H (about 2 s at H=0.05 against
    0.6 s at H=0.45 for n=4), so H drawn afresh for each op would make op
    times, and the median of a run, swing with the draws. Every op therefore
    uses the same H, shifted by an amount far too small to change the work
    but enough to make it new to the process, so that the covariance cache
    is cold in every op. The shifts follow a golden-ratio sequence started
    by the seed, so no two ops of a run share one.
    """
    offset = np.random.default_rng(seed).random()
    return HURST + HURST_SHIFT * ((offset + index * GOLDEN) % 1.0)


def check_covariance_matrix(cov, times, hurst: float) -> list:
    """Failures of the exact covariance: its diagonal law and symmetry."""
    failures = []
    cov = np.asarray(cov)
    exact = times[1:] ** (2.0 * hurst) / (2.0 * hurst)
    rel = float(np.max(np.abs(np.diag(cov)[1:] - exact) / exact))
    if not rel <= COVARIANCE_RTOL:
        failures.append(f"H={hurst}: covariance diagonal off t^2H/2H by {rel:.3g} "
                        "relative")
    if not np.array_equal(cov, cov.T):
        failures.append(f"H={hurst}: covariance not exactly symmetric")
    return failures


class ExactLawWorkload:
    """Each op runs the Cholesky covariance gate at an H new to the process."""

    def __init__(self, name, steps, paths):
        self.name = name
        self.steps = steps
        self.paths = paths
        self.work_name = "cov_entries_per_s"

    def setup(self):
        return Grid(self.steps, 1.0)

    def op(self, grid, seed, index, tracer) -> OpOutcome:
        hurst = op_hurst(seed, index)
        with tracer.span("validation.check"):
            results = validation.check_covariance(
                hurst=hurst, steps=self.steps, paths=self.paths,
                seeds={"cholesky": seed + index})
        # the call above cached this matrix; reading it back is free
        cov = volterra.volterra_covariance(riemann_liouville(hurst=hurst), grid)
        failures = check_covariance_matrix(cov, grid.times, hurst)
        entries = self.steps * (self.steps + 1) // 2
        return OpOutcome(entries, failures,
                         {"gate_passed": all(r.passed for r in results)})


# ----------------------------------------------------------------------
# the workload set
# ----------------------------------------------------------------------

def make_workloads(scale: str = "full") -> dict:
    """The four workloads by name; `small` shrinks every size for tests.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """
    if scale not in ("full", "small"):
        raise ValueError(f"unknown scale {scale!r}")
    full = scale == "full"
    rb = _rough_bergomi(-0.7)
    short = (16_384, 256) if full else (256, 16)
    long = (4_096, 2048) if full else (128, 64)
    items = [
        SmileWorkload("smile-n256", [
            Leg("rbergomi/rdonsker_matched", rb, "rdonsker_matched", *short, 0.1637),
            Leg("rbergomi/hybrid", rb, "hybrid", *short, 0.1647),
        ]),
        SmileWorkload("smile-n2048", [
            Leg("rbergomi/rdonsker_matched", rb, "rdonsker_matched", *long, 0.1636),
            Leg("rheston/rdonsker_left", _rough_heston(), "rdonsker_left", *long,
                0.1965),
        ]),
        TreeWorkload("american-trees", [
            TreeSpec("binary", -1.0, 20 if full else 8),
            TreeSpec("4-branch", -0.7, 11 if full else 4),
        ]),
        ExactLawWorkload("exact-law", steps=4 if full else 3,
                         paths=20_000 if full else 2_000),
    ]
    return {w.name: w for w in items}
