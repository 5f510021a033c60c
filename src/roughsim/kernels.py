"""GFO kernels g(u) = u^alpha * L(u) and their integrals.

Three kernel families are supported:

    rl        g(u) = u^alpha
    gamma     g(u) = u^alpha * exp(beta*u),        beta <= 0
    powerlaw  g(u) = u^alpha * (1+u)^(beta-alpha), beta < -1

together with the antiderivative G(t) = int_0^t g(u) du, the squared
integral int_a^b g(u)^2 du, and the two per-lag convolution weight
conventions (left-point kernel evaluation and moment-matched optimal
evaluation points). All functions are pure; results depend only on the
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from roughsim.shocks import check_int, check_real

_QUAD_TOL = 1e-12
KERNEL_KINDS = ("rl", "gamma", "powerlaw")


@dataclass(frozen=True)
class Grid:
    """Uniform partition t_i = i*T/n of [0, T].

    Parameters
    ----------
    n : int
        Number of steps, n >= 1.
    T : float
        Horizon, T > 0.
    """

    n: int
    T: float

    def __post_init__(self):
        check_int("grid n", self.n)
        check_real("grid T", self.T, 0.0)

    @property
    def dt(self) -> float:
        return self.T / self.n

    @property
    def times(self) -> np.ndarray:
        """Grid times t_0 = 0, ..., t_n = T."""
        return np.linspace(0.0, self.T, self.n + 1)


@dataclass(frozen=True)
class KernelSpec:
    """A GFO kernel g(u) = u^alpha * L(u), identified by `kind`.

    `beta` is the signed decay rate for the gamma kernel (stored <= 0;
    Bergomi-style e^{-beta*u} with beta > 0 is converted by the model
    layer) and the tail exponent for the power-law kernel (beta < -1).
    """

    kind: str
    alpha: float
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(
                f"unknown kernel kind {self.kind!r}, want one of {KERNEL_KINDS}")
        check_real("kernel alpha", self.alpha, -1.0, 1.0)
        if self.kind == "rl":
            if self.beta is not None:
                raise ValueError("rl kernel takes no beta")
        elif self.kind == "gamma":  # the signed rate
            check_real("gamma kernel beta", self.beta, high=0.0, ends="(]")
        else:
            check_real("powerlaw kernel beta", self.beta, high=-1.0)

    @property
    def hurst(self) -> float:
        """H = alpha + 1/2 (meaningful for simulation kernels)."""
        return self.alpha + 0.5


def riemann_liouville(alpha: float | None = None, hurst: float | None = None) -> KernelSpec:
    """RL kernel u^alpha; pass either alpha or hurst = alpha + 1/2."""
    if (alpha is None) == (hurst is None):
        raise ValueError("give exactly one of alpha, hurst")
    if hurst is not None:  # checked by its own name, on alpha's interval
        alpha = check_real("hurst", hurst, -0.5, 1.5) - 0.5
    return KernelSpec(kind="rl", alpha=float(alpha))


def gamma_fractional(alpha: float, beta: float) -> KernelSpec:
    """Gamma kernel u^alpha * e^{beta*u} with signed rate beta <= 0."""
    return KernelSpec(kind="gamma", alpha=float(alpha), beta=float(beta))


def power_law(alpha: float, beta: float) -> KernelSpec:
    """Power-law kernel u^alpha * (1+u)^{beta-alpha} with beta < -1."""
    return KernelSpec(kind="powerlaw", alpha=float(alpha), beta=float(beta))


def kernel_from_config(cfg: dict) -> KernelSpec:
    """Build a KernelSpec from a config mapping.

    Accepted keys: type ("rl" | "gamma" | "powerlaw"), alpha, beta, and
    for type "rl" the sugar key hurst (= alpha + 1/2). A key that the
    type does not take (beta for "rl", hurst otherwise) is rejected by
    name rather than ignored.
    """
    if "type" not in cfg:
        raise ValueError("kernel config needs a 'type' key")
    kind = cfg["type"]
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel type {kind!r}")
    foreign = set(cfg) - {"type", "alpha", "hurst" if kind == "rl" else "beta"}
    if foreign:
        raise ValueError(
            f"unknown kernel config keys for type {kind!r}: {sorted(foreign)}")
    if kind == "rl":
        if "hurst" in cfg:
            if "alpha" in cfg:
                raise ValueError("give either alpha or hurst, not both")
            return riemann_liouville(hurst=float(cfg["hurst"]))
        if "alpha" not in cfg:
            raise ValueError("rl kernel config needs alpha or hurst")
        return riemann_liouville(alpha=float(cfg["alpha"]))
    if "alpha" not in cfg or "beta" not in cfg:
        raise ValueError(f"{kind} kernel config needs alpha and beta")
    make = gamma_fractional if kind == "gamma" else power_law
    return make(float(cfg["alpha"]), float(cfg["beta"]))


# ----------------------------------------------------------------------
# pointwise evaluation
# ----------------------------------------------------------------------

def eval_g(kernel: KernelSpec, u) -> np.ndarray | float:
    """Evaluate g(u); vectorized over u.

    Raises on negative arguments and on u = 0 when alpha < 0 (the kernel
    is singular at the origin). g(0) = 0 for alpha > 0 and 1 for alpha = 0.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0):
        raise ValueError("kernel argument must be nonnegative")
    if kernel.alpha < 0 and np.any(u_arr == 0.0):
        raise ValueError("kernel singular at u = 0 for alpha < 0")
    with np.errstate(divide="ignore"):
        base = np.where(u_arr > 0, u_arr, 1.0) ** kernel.alpha
    base = np.where(u_arr > 0, base, 0.0 if kernel.alpha > 0 else 1.0)
    if kernel.kind == "rl":
        out = base
    elif kernel.kind == "gamma":
        out = base * np.exp(kernel.beta * u_arr)
    else:
        out = base * (1.0 + u_arr) ** (kernel.beta - kernel.alpha)
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(out)
    return out


# ----------------------------------------------------------------------
# integrals
# ----------------------------------------------------------------------

def _quad_piecewise(f, a: float, b: float, head_exponent: float) -> float:
    """Integrate f over [a, b] where f ~ u^head_exponent near 0.

    For a = 0 the interval is split dyadically toward the origin (design
    choice: pieces [b*2^-(j+1), b*2^-j]) until the analytic head bound
    max|L| * eps^p / p with p = head_exponent + 1 drops below tolerance;
    the remaining head is below quadrature accuracy and is dropped. The
    catalogue kernels all have L <= 1 near 0, so the bound is eps^p / p.
    """
    if a > 0:
        return quad(f, a, b, epsabs=_QUAD_TOL, limit=200)[0]
    p = head_exponent + 1.0
    if p <= 0:
        raise ValueError("integrand not integrable at the origin")
    total = 0.0
    hi = b
    while hi ** p / p > _QUAD_TOL / 4:
        lo = hi / 2.0
        total += quad(f, lo, hi, epsabs=_QUAD_TOL, limit=200)[0]
        hi = lo
    return total


def _eval_G_quadrature(kernel: KernelSpec, t: float) -> float:
    """G(t) by adaptive quadrature with origin splitting (non-RL path)."""
    if t == 0.0:
        return 0.0
    return _quad_piecewise(lambda u: eval_g(kernel, u), 0.0, t, kernel.alpha)


def eval_G(kernel: KernelSpec, t: float) -> float:
    """Antiderivative G(t) = int_0^t g(u) du.

    Closed form t^{alpha+1}/(alpha+1) for the RL kernel; adaptive
    quadrature (absolute tolerance 1e-12) otherwise.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if kernel.kind == "rl":
        return t ** (kernel.alpha + 1.0) / (kernel.alpha + 1.0)
    return _eval_G_quadrature(kernel, float(t))


def _squared_integral_quadrature(kernel: KernelSpec, a: float, b: float) -> float:
    """int_a^b g(u)^2 du by quadrature with origin splitting."""
    f = lambda u: eval_g(kernel, u) ** 2
    return _quad_piecewise(f, a, b, 2.0 * kernel.alpha)


def squared_kernel_integral(kernel: KernelSpec, a: float, b: float) -> float:
    """int_a^b g(u)^2 du for 0 <= a < b.

    Closed form (b^{2H} - a^{2H})/(2H), H = alpha + 1/2, for RL;
    quadrature otherwise. The origin singularity is integrable only for
    2*alpha > -1, so a = 0 with alpha <= -1/2 is rejected.
    """
    if a < 0 or a >= b:
        raise ValueError(f"need 0 <= a < b, got a={a}, b={b}")
    if a == 0.0 and 2.0 * kernel.alpha <= -1.0:
        raise ValueError("int g^2 diverges at 0 for alpha <= -1/2")
    if kernel.kind == "rl":
        two_h = 2.0 * kernel.alpha + 1.0
        return (b ** two_h - a ** two_h) / two_h
    return _squared_integral_quadrature(kernel, float(a), float(b))


# ----------------------------------------------------------------------
# convolution weights
# ----------------------------------------------------------------------

@lru_cache(maxsize=32)
def squared_cell_integrals(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """Read-only int_{t_k}^{t_{k+1}} g^2, k < n: closed form for RL, else
    one quadrature per cell. The moment-matched weights and Q share it."""
    t = grid.times
    if kernel.kind == "rl":
        two_h = 2.0 * kernel.alpha + 1.0
        if two_h <= 0:
            raise ValueError("moment matching needs alpha > -1/2")
        cells = np.diff(t ** two_h) / two_h
    else:
        cells = np.array(
            [squared_kernel_integral(kernel, t[k], t[k + 1]) for k in range(grid.n)]
        )
    cells.setflags(write=False)
    return cells


def optimal_eval_weights(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """Moment-matched weights w_k = sqrt((n/T) * int_{t_{k-1}}^{t_k} g^2).

    On the uniform grid the per-step squared integral depends only on the
    lag, so the weights form a length-n convolution vector. By
    construction (T/n) * sum_{k<=i} w_k^2 telescopes to int_0^{t_i} g^2
    exactly for every i.
    """
    return np.sqrt(squared_cell_integrals(kernel, grid) / grid.dt)


def left_point_weights(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """Left-point weights w_k = g(t_k) for k = 1..n."""
    return np.asarray(eval_g(kernel, grid.times[1:]))
