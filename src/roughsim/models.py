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
from roughsim.volterra import DiffusionSpec, PathSet, check_finite


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
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("curve knot times must be strictly increasing")
        if any(v <= 0.0 for v in self.values):
            raise ValueError("forward variance must be strictly positive")

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
    if spot <= 0.0:
        raise ValueError(f"spot must be positive, got {spot}")
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
        if self.nu < 0.0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")

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
        if self.nu < 0.0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")
        if self.beta_decay <= 0.0:
            raise ValueError(f"beta_decay must be positive, got {self.beta_decay}")

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
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.vol_of_vol < 0.0:
            raise ValueError("vol_of_vol must be nonnegative")
        if 2.0 * self.kappa * self.theta <= self.vol_of_vol ** 2:
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


BERGOMI_VARIANTS = (RoughBergomi, GammaBergomi)
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
        for i in range(1, grid.n + 1):
            q[i] = squared_kernel_integral(kernel, 0.0, grid.times[i])
    else:
        np.cumsum(squared_cell_integrals(kernel, grid), out=q[1:])
    q.setflags(write=False)
    return q


def variance_map(model, phi, q, xi, stats=None, out=None):
    """V = Phi(phi) on an array of Volterra values or on one value.

    Bergomi variants: xi * exp(2 nu C_H phi - 2 nu^2 C_H^2 q), where q =
    Q(t) and xi = xi0(t) are taken at phi's times (they broadcast).
    RoughHestonGJRS: max(eta + phi, 0), ignoring q and xi; when `stats` is
    given, the clamped cells are counted into it. Monte Carlo
    (`phi_apply`) and the trees both call this map, so they agree bitwise.
    An array `phi` is mapped into one new array, or into `out` (which may
    be `phi` itself), in place, by the same operations in the same order
    as one value is.
    """
    scalar = np.ndim(phi) == 0
    if isinstance(model, BERGOMI_VARIANTS):
        c_h = math.sqrt(2.0 * model.hurst)
        # a float64 square overflows to inf where a Python float raises
        # OverflowError, so a huge nu gives a non-finite variance, which is
        # then reported with nu and H
        compensator = 2.0 * np.float64(model.nu) ** 2 * c_h ** 2
        if scalar:
            v = xi * np.exp(2.0 * model.nu * c_h * phi - compensator * q)
            if not np.isfinite(v):
                raise ValueError(f"variance {v} is not finite; "
                                 f"{_bergomi_overflow(model)}")
            return v
        v = np.multiply(2.0 * model.nu * c_h, phi, out=out)
        v -= compensator * q
        np.exp(v, out=v)
        v *= xi
        return v
    if isinstance(model, RoughHestonGJRS):
        v = np.add(model.eta, phi, out=out)
        if stats is not None:
            clamped = int(np.count_nonzero(v < 0.0))
            stats["clamp_cells"] = clamped
            stats["clamp_fraction"] = clamped / np.size(v)
        return np.maximum(v, 0.0) if scalar else np.maximum(v, 0.0, out=v)
    raise TypeError(f"unsupported model {type(model).__name__}")


def _bergomi_overflow(model) -> str:
    return (f"the variance map's exp(2 nu C_H phi - 2 nu^2 C_H^2 Q) overflowed "
            f"(nu={model.nu}, H={model.hurst})")


def phi_apply(model, volterra: PathSet, grid: Grid) -> PathSet:
    """Map Volterra paths phi to variance paths V = Phi(phi).

    Bergomi variants exponentiate with the Wick compensator (V > 0
    always); RoughHestonGJRS shifts by eta and clamps at zero, recording
    `clamp_cells` / `clamp_fraction` in the output stats. The variance is
    checked to be finite here, once; for a Bergomi variant the error says
    that the exponential overflowed, with nu and H.
    """
    if volterra.grid != grid:
        raise ValueError(
            f"path grid {volterra.grid} does not match requested grid {grid}"
        )
    stats = dict(volterra.stats)
    q = xi = None
    if isinstance(model, BERGOMI_VARIANTS):
        q = squared_integral_profile(model.kernel(), grid)
        xi = model.xi0(grid.times)
    v = variance_map(model, volterra.values, q, xi, stats)
    check_finite(v, f"{volterra.scheme_tag} variance",
                 _bergomi_overflow(model) if q is not None else "")
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
