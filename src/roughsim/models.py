"""Variance maps V = Phi(G^alpha Y) for three stochastic-volatility models.

Each model pairs a kernel and a driver for the Volterra stage with a
functional Phi applied pathwise:

* RoughBergomi / GammaBergomi: Wick exponential of the Gaussian Volterra
  path, V(t) = xi0(t) * exp(2*nu*C_H*phi(t) - 2*nu^2*C_H^2*Q(t)) with
  Q(t) = int_0^t g^2, so that E[V(t)] = xi0(t) under the exact law.
* RoughHestonGJRS: affine shift V(t) = eta + phi(t) over a CIR-driven
  Volterra path, clamped at zero (positivity is not automatic; clamps
  are counted and reported).

C_H := sqrt(2H), which makes the Bergomi compensator exactly half the
variance of the Gaussian exponent (a genuine Wick exponential). This
convention is recorded in run metadata.

`variance_map` is the one variance stage, for Monte-Carlo chunks
(`phi_apply`), tree levels and `replay_leaf`; it also checks the result.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from numbers import Real

import numpy as np

from roughsim.kernels import (
    Grid,
    KernelSpec,
    gamma_fractional,
    riemann_liouville,
    squared_cell_integrals,
    squared_kernel_integral,
)
from roughsim.volterra import (
    DiffusionSpec,
    PathSet,
    check_finite,
    first_non_finite,
)


# ----------------------------------------------------------------------
# forward variance curve
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ForwardVarianceCurve:
    """Piecewise-constant curve xi0(t), right-continuous in t.

    `times` are ascending knot times starting at 0; the curve takes the
    value values[k] on [times[k], times[k+1]) and values[-1] beyond the
    last knot. All values must be strictly positive.
    """

    times: tuple
    values: tuple

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("times and values must be equal-length and nonempty")
        if self.times[0] != 0.0:
            raise ValueError("first curve knot must sit at t=0")
        if not all(a < b < math.inf for a, b in zip(self.times, self.times[1:])):
            raise ValueError("curve knot times must be finite and strictly "
                             f"increasing, got {self.times}")
        if not all(0.0 < v < math.inf for v in self.values):
            raise ValueError("forward variance must be positive and finite, "
                             f"got {self.values}")

    @classmethod
    def constant(cls, value: float) -> "ForwardVarianceCurve":
        return cls(times=(0.0,), values=(float(value),))

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("curve lookup requires t >= 0")
        idx = np.searchsorted(np.asarray(self.times), t, side="right") - 1
        return np.asarray(self.values)[idx]


def as_curve(value) -> ForwardVarianceCurve:
    """Coerce scalar / [[t, v], ...] pairs / curve into a curve."""
    if isinstance(value, ForwardVarianceCurve):
        return value
    if isinstance(value, Real):
        return ForwardVarianceCurve.constant(float(value))
    pairs = [(float(t), float(v)) for t, v in value]
    return ForwardVarianceCurve(times=tuple(t for t, _ in pairs),
                                values=tuple(v for _, v in pairs))


def _check_common(rho: float, spot: float, hurst: float) -> None:
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if not 0.0 < spot < math.inf:
        raise ValueError(f"spot must be positive and finite, got {spot}")
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")


# ----------------------------------------------------------------------
# model variants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RoughBergomi:
    """Lognormal variance over a Riemann-Liouville Gaussian Volterra path."""

    xi0: ForwardVarianceCurve
    nu: float
    hurst: float
    rho: float
    spot: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "xi0", as_curve(self.xi0))
        _check_common(self.rho, self.spot, self.hurst)
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"nu must be nonnegative and finite, got {self.nu}")

    def kernel(self) -> KernelSpec:
        return riemann_liouville(hurst=self.hurst)

    def driver(self):
        return "brownian"


@dataclass(frozen=True)
class GammaBergomi:
    """Lognormal variance over a Gamma-kernel Gaussian Volterra path."""

    xi0: ForwardVarianceCurve
    nu: float
    hurst: float
    rho: float
    beta_decay: float = 1.0
    spot: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "xi0", as_curve(self.xi0))
        _check_common(self.rho, self.spot, self.hurst)
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"nu must be nonnegative and finite, got {self.nu}")
        if not 0.0 < self.beta_decay < math.inf:
            raise ValueError("beta_decay must be positive and finite, got "
                             f"{self.beta_decay}")

    def kernel(self) -> KernelSpec:
        return gamma_fractional(alpha=self.hurst - 0.5, beta=-self.beta_decay)

    def driver(self):
        return "brownian"


@dataclass(frozen=True)
class RoughHestonGJRS:
    """Affine variance V = eta + G^alpha Y over a CIR driver Y."""

    eta: float
    kappa: float
    theta: float
    vol_of_vol: float
    y0: float
    hurst: float
    rho: float
    spot: float = 1.0

    def __post_init__(self):
        _check_common(self.rho, self.spot, self.hurst)
        for name in ("eta", "kappa", "theta", "y0"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.vol_of_vol < math.inf:
            raise ValueError("vol_of_vol must be nonnegative and finite, got "
                             f"{self.vol_of_vol}")
        if not 2.0 * self.kappa * self.theta > self.vol_of_vol ** 2:
            raise ValueError(
                "Feller condition 2*kappa*theta > vol_of_vol^2 violated: "
                f"2*{self.kappa}*{self.theta} <= {self.vol_of_vol}**2"
            )

    def kernel(self) -> KernelSpec:
        return riemann_liouville(hurst=self.hurst)

    def driver(self) -> DiffusionSpec:
        kappa, theta, xi = self.kappa, self.theta, self.vol_of_vol
        return DiffusionSpec(
            drift=lambda y: kappa * (theta - y),
            diffusion=lambda y: xi * np.sqrt(y),
            y0=self.y0,
            domain=(0.0, None),
            name="cir",
        )


# config `type` -> model class
MODELS = {"rbergomi": RoughBergomi, "gbergomi": GammaBergomi,
          "rheston_gjrs": RoughHestonGJRS}
# model fields whose config keys keep other names
_CONFIG_NAMES = {"vol_of_vol": "xi", "beta_decay": "beta"}


# ----------------------------------------------------------------------
# the variance map
# ----------------------------------------------------------------------

@lru_cache(maxsize=16)
def squared_integral_profile(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """Q(t_i) = int_0^{t_i} g^2 at every grid time (deterministic, shared):
    closed form for RL, else the running sum of `squared_cell_integrals`."""
    q = np.zeros(grid.n + 1)
    if kernel.kind == "rl":
        times = grid.times
        for i in range(1, grid.n + 1):
            q[i] = squared_kernel_integral(kernel, 0.0, times[i])
    else:
        np.cumsum(squared_cell_integrals(kernel, grid), out=q[1:])
    q.setflags(write=False)
    return q


@lru_cache(maxsize=16)
def _wick_inputs(model, grid: Grid) -> tuple:
    """(Q, xi0) at every time of `grid` for a Bergomi variant, read-only."""
    xi = model.xi0(grid.times)
    xi.setflags(write=False)
    return squared_integral_profile(model.kernel(), grid), xi


def variance_map(model, phi, grid: Grid, level=None, *, node: int = 0,
                 stats=None, out=None, label: str = "variance"):
    """V = Phi(phi), into a new array or in place into `out` (maybe `phi`).

    `phi` holds paths over every time of `grid` (M x (n+1)), or with a
    `level` i the values at t_i of consecutive tree nodes from `node` on.
    Bergomi variants: xi0(t) exp(2 nu C_H phi - 2 nu^2 C_H^2 Q(t)).
    RoughHestonGJRS: max(eta + phi, 0), adding the clamped cells to
    `stats["clamp_cells"]`. A non-finite variance raises a ValueError
    naming `label`, path and time index (`check_finite`) or level and
    node, and for a Bergomi variant the overflow, with nu and H.
    """
    cause = ""
    if isinstance(model, (RoughBergomi, GammaBergomi)):
        q, xi = _wick_inputs(model, grid)
        if level is not None:
            q, xi = q[level], xi[level]
        c_h = math.sqrt(2.0 * model.hurst)
        # a float64 square overflows to inf where a Python float raises
        # OverflowError, so a huge nu gives a non-finite variance; numpy's
        # overflow warning is silenced, as the check below names the
        # overflow with nu and H
        with np.errstate(over="ignore"):
            compensator = 2.0 * np.float64(model.nu) ** 2 * c_h ** 2
            v = np.multiply(2.0 * model.nu * c_h, phi, out=out)
            v -= compensator * q
            np.exp(v, out=v)
            v *= xi
        cause = (f"the variance map's exp(2 nu C_H phi - 2 nu^2 C_H^2 Q) "
                 f"overflowed (nu={model.nu}, H={model.hurst})")
    elif isinstance(model, RoughHestonGJRS):
        v = np.add(model.eta, phi, out=out)
        if stats is not None:
            stats["clamp_cells"] = (stats.get("clamp_cells", 0)
                                    + int(np.count_nonzero(v < 0.0)))
        np.maximum(v, 0.0, out=v)
    else:
        raise TypeError(f"unsupported model {type(model).__name__}")
    if level is None:
        check_finite(v, label, cause)
        return v
    index = first_non_finite(v)
    if index is not None:
        raise ValueError(f"{label} is not finite: level {level}, node "
                         f"{node + index} is {v[index]}"
                         + (f"; {cause}" if cause else ""))
    return v


def phi_apply(model, volterra: PathSet, grid: Grid, *, out=None) -> PathSet:
    """Variance paths V = Phi(phi) of Volterra paths, by `variance_map`,
    into `out` if given (`volterra.values` maps them in place); for
    RoughHestonGJRS the stats gain `clamp_cells` / `clamp_fraction`."""
    if volterra.grid != grid:
        raise ValueError(
            f"path grid {volterra.grid} does not match requested grid {grid}"
        )
    stats = dict(volterra.stats)
    v = variance_map(model, volterra.values, grid, stats=stats, out=out,
                     label=f"{volterra.scheme_tag} variance")
    if "clamp_cells" in stats:
        stats["clamp_fraction"] = stats["clamp_cells"] / v.size
    return PathSet(values=v, grid=grid, scheme_tag=volterra.scheme_tag,
                   seed=volterra.seed, stats=stats, checked=True)


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------

def config_fields(cls) -> dict:
    """{config key: dataclass field} of a model class, in field order."""
    return {_CONFIG_NAMES.get(f.name, f.name): f for f in fields(cls)}


def model_from_config(cfg: dict):
    """Build a model from flat config keys (`type`, `hurst`, `rho`, ...).

    The keys are the model class's field names, but for `xi`
    (`vol_of_vol`) and `beta` (`beta_decay`); a field with a default may
    be left out. A missing or unknown key is named in the ValueError.
    """
    cfg = dict(cfg)
    kind = cfg.pop("type", None)
    if kind is None:
        raise ValueError("model config requires a 'type' key")
    if kind not in MODELS:
        raise ValueError(f"unknown model type {kind!r}")
    values = {}
    for key, f in config_fields(MODELS[kind]).items():
        if key in cfg:
            values[f.name] = cfg.pop(key)
        elif f.default is MISSING:
            raise ValueError(f"model config missing key {key!r}")
    if cfg:
        raise ValueError(f"unknown model config keys: {sorted(cfg)}")
    return MODELS[kind](**values)
