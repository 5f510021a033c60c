"""Kernel evaluation, antiderivatives, squared integrals and weights.

Frozen oracle values come from independent closed forms (incomplete
gamma/beta functions), not from the quadrature code under test.
"""

import math

import numpy as np
import pytest

from roughsim.kernels import (
    Grid,
    KernelSpec,
    eval_g,
    eval_G,
    gamma_fractional,
    kernel_from_config,
    left_point_weights,
    optimal_eval_weights,
    power_law,
    riemann_liouville,
    squared_kernel_integral,
    _eval_G_quadrature,
    _squared_integral_quadrature,
)

# Oracles: scipy.special.gammainc(1.25,1)*gamma(1.25) etc., computed once
# and frozen here.
G_GAMMA_A025_B1 = 0.4769591535856601     # int_0^1 u^0.25 e^{-u} du
SQ_GAMMA_A025_B1 = 0.2314043617123455    # int_0^1 u^0.5 e^{-2u} du
G_POWERLAW_A05_B2 = 0.23570226039551584  # int_0^1 u^0.5 (1+u)^{-2.5} du
SQ_POWERLAW_A025_B15 = 0.16499158227686112  # int_0^1 u^0.5 (1+u)^{-3.5} du


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------

def test_grid_basics():
    grid = Grid(n=4, T=2.0)
    assert grid.dt == 0.5
    assert Grid(n=np.int64(4), T=2.0).dt == 0.5
    np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.times[0] == 0.0 and grid.times[-1] == grid.T


def test_grid_invalid():
    with pytest.raises(ValueError):
        Grid(n=0, T=1.0)
    with pytest.raises(ValueError):
        Grid(n=10, T=0.0)
    with pytest.raises(ValueError):
        Grid(n=10, T=-1.0)


# (build, parameter name, test id): build() must raise a ValueError naming
# the parameter; a NaN fails every comparison, so each check asks for the
# good case
_REFUSED = [pytest.param(*case[:2], id=case[-1]) for case in [
    (lambda: Grid(4, math.inf), "T", "grid T=inf"),
    (lambda: Grid(4, math.nan), "T", "grid T=nan"),
    (lambda: Grid(True, 1.0), "grid", "grid n=True"),
    (lambda: Grid(2.0, 1.0), "grid", "grid n=2.0"),
    (lambda: gamma_fractional(-0.2, math.nan), "beta", "gamma beta=nan"),
    (lambda: gamma_fractional(-0.2, -math.inf), "beta", "gamma beta=-inf"),
    (lambda: KernelSpec("gamma", -0.2), "beta", "gamma beta=None"),
    (lambda: power_law(-0.2, math.nan), "beta", "powerlaw beta=nan"),
    (lambda: power_law(-0.2, -math.inf), "beta", "powerlaw beta=-inf"),
    # hurst = alpha + 1/2, refused by the name the caller gave
    (lambda: riemann_liouville(hurst=1.5), r"^hurst must be in \(-0.5, 1.5\)",
     "rl hurst=1.5"),
    (lambda: riemann_liouville(hurst=math.nan), "^hurst", "rl hurst=nan"),
]]


@pytest.mark.parametrize("build, name", _REFUSED)
def test_nan_and_infinite_inputs_are_refused_by_name(build, name):
    with pytest.raises(ValueError, match=name):
        build()


def test_kernel_validation():
    riemann_liouville(alpha=0.3)
    riemann_liouville(hurst=0.3)
    with pytest.raises(ValueError):
        riemann_liouville(alpha=1.5)
    with pytest.raises(ValueError):
        gamma_fractional(alpha=0.25, beta=0.5)  # signed rate must be <= 0
    with pytest.raises(ValueError):
        power_law(alpha=0.25, beta=-0.5)  # requires beta < -1
    with pytest.raises(ValueError):
        KernelSpec(kind="nope", alpha=0.0)


def test_hurst_mapping():
    k = riemann_liouville(hurst=0.3)
    assert k.alpha == pytest.approx(-0.2)
    assert k.hurst == pytest.approx(0.3)


def test_kernel_from_config():
    k = kernel_from_config({"type": "rl", "hurst": 0.3})
    assert k.kind == "rl" and k.alpha == pytest.approx(-0.2)
    k = kernel_from_config({"type": "rl", "alpha": 0.1})
    assert k.alpha == pytest.approx(0.1)
    k = kernel_from_config({"type": "gamma", "alpha": 0.25, "beta": -1.0})
    assert k.kind == "gamma" and k.beta == -1.0
    k = kernel_from_config({"type": "powerlaw", "alpha": 0.5, "beta": -2.0})
    assert k.kind == "powerlaw"
    with pytest.raises(ValueError):
        kernel_from_config({"type": "rl"})  # needs alpha or hurst
    with pytest.raises(ValueError):
        kernel_from_config({"type": "mystery", "alpha": 0.0})
    with pytest.raises(ValueError):
        kernel_from_config({"type": "gamma", "alpha": 0.25})  # beta required


def test_kernel_from_config_rejects_keys_of_other_types():
    with pytest.raises(ValueError, match="beta"):
        kernel_from_config({"type": "rl", "hurst": 0.1, "beta": -1.0})
    with pytest.raises(ValueError, match="hurst"):
        kernel_from_config({"type": "gamma", "alpha": -0.2, "beta": -1.0,
                            "hurst": 0.4})
    with pytest.raises(ValueError, match="hurst"):
        kernel_from_config({"type": "powerlaw", "alpha": 0.5, "beta": -2.0,
                            "hurst": 0.3})
    with pytest.raises(ValueError, match="gamma"):
        kernel_from_config({"type": "rl", "alpha": 0.1, "gamma": 1.0})


# ----------------------------------------------------------------------
# eval_g
# ----------------------------------------------------------------------

def test_eval_g_examples():
    assert eval_g(riemann_liouville(alpha=0.0), 0.7) == pytest.approx(1.0)
    assert eval_g(riemann_liouville(alpha=0.25), 1.0) == pytest.approx(1.0)
    got = eval_g(gamma_fractional(alpha=0.25, beta=-1.0), 1.0)
    assert got == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_eval_g_vectorized():
    k = riemann_liouville(alpha=-0.2)
    u = np.array([0.25, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(eval_g(k, u), u ** -0.2)


def test_eval_g_powerlaw():
    k = power_law(alpha=0.5, beta=-2.0)
    u = 0.7
    assert eval_g(k, u) == pytest.approx(u ** 0.5 * (1 + u) ** -2.5)


def test_eval_g_origin():
    # singular kernel at u=0 is a domain error; alpha > 0 vanishes there
    with pytest.raises(ValueError):
        eval_g(riemann_liouville(alpha=-0.2), 0.0)
    with pytest.raises(ValueError):
        eval_g(riemann_liouville(alpha=-0.2), np.array([0.5, 0.0]))
    assert eval_g(riemann_liouville(alpha=0.25), 0.0) == 0.0
    assert eval_g(riemann_liouville(alpha=0.0), 0.0) == 1.0
    with pytest.raises(ValueError):
        eval_g(riemann_liouville(alpha=0.25), -0.5)


# ----------------------------------------------------------------------
# eval_G
# ----------------------------------------------------------------------

def test_eval_G_examples():
    assert eval_G(riemann_liouville(alpha=0.0), 2.0) == pytest.approx(2.0)
    assert eval_G(riemann_liouville(alpha=-0.4), 1.0) == pytest.approx(1 / 0.6)
    got = eval_G(gamma_fractional(alpha=0.0, beta=-1.0), 1.0)
    assert got == pytest.approx(1 - np.exp(-1.0), abs=1e-10)


def test_eval_G_oracles():
    got = eval_G(gamma_fractional(alpha=0.25, beta=-1.0), 1.0)
    assert got == pytest.approx(G_GAMMA_A025_B1, abs=1e-10)
    got = eval_G(power_law(alpha=0.5, beta=-2.0), 1.0)
    assert got == pytest.approx(G_POWERLAW_A05_B2, abs=1e-10)


def test_eval_G_zero_and_monotone():
    rng = np.random.default_rng(11)
    kernels = [
        riemann_liouville(alpha=-0.45),
        riemann_liouville(alpha=0.3),
        gamma_fractional(alpha=-0.2, beta=-0.7),
        power_law(alpha=-0.3, beta=-1.5),
    ]
    for k in kernels:
        assert eval_G(k, 0.0) == 0.0
        ts = np.sort(rng.uniform(0.01, 3.0, size=6))
        vals = [eval_G(k, t) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_eval_G_quadrature_matches_rl_closed_form():
    # same machinery the non-RL kernels use, checked against the RL closed form
    rng = np.random.default_rng(7)
    for _ in range(100):
        alpha = rng.uniform(-0.9, 0.9)
        t = rng.uniform(0.05, 4.0)
        k = riemann_liouville(alpha=alpha)
        exact = t ** (alpha + 1) / (alpha + 1)
        assert _eval_G_quadrature(k, t) == pytest.approx(exact, rel=1e-9)


# ----------------------------------------------------------------------
# squared_kernel_integral
# ----------------------------------------------------------------------

def test_squared_integral_examples():
    assert squared_kernel_integral(riemann_liouville(alpha=0.0), 0.0, 1.0) == pytest.approx(1.0)
    got = squared_kernel_integral(riemann_liouville(alpha=-0.45), 0.0, 1.0)
    assert got == pytest.approx(10.0)
    got = squared_kernel_integral(riemann_liouville(alpha=0.25), 0.5, 1.0)
    assert got == pytest.approx((1 - 0.5 ** 1.5) / 1.5)


def test_squared_integral_oracles():
    got = squared_kernel_integral(gamma_fractional(alpha=0.25, beta=-1.0), 0.0, 1.0)
    assert got == pytest.approx(SQ_GAMMA_A025_B1, abs=1e-10)
    got = squared_kernel_integral(power_law(alpha=0.25, beta=-1.5), 0.0, 1.0)
    assert got == pytest.approx(SQ_POWERLAW_A025_B15, abs=1e-10)


def test_squared_integral_quadrature_matches_rl_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(100):
        alpha = rng.uniform(-0.45, 0.9)
        a = rng.uniform(0.0, 1.0)
        b = a + rng.uniform(0.05, 2.0)
        k = riemann_liouville(alpha=alpha)
        two_h = 2 * alpha + 1
        exact = (b ** two_h - a ** two_h) / two_h
        assert _squared_integral_quadrature(k, a, b) == pytest.approx(exact, rel=1e-9)


def test_squared_integral_errors():
    k = riemann_liouville(alpha=0.25)
    with pytest.raises(ValueError):
        squared_kernel_integral(k, 1.0, 1.0)
    with pytest.raises(ValueError):
        squared_kernel_integral(k, -0.1, 1.0)
    with pytest.raises(ValueError):
        squared_kernel_integral(k, 1.0, 0.5)
    # divergent at the origin once 2*alpha <= -1
    with pytest.raises(ValueError):
        squared_kernel_integral(riemann_liouville(alpha=-0.6), 0.0, 1.0)
    # but fine away from it
    val = squared_kernel_integral(riemann_liouville(alpha=-0.6), 0.5, 1.0)
    assert val > 0


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------

def test_optimal_weights_examples():
    grid = Grid(n=1, T=1.0)
    w = optimal_eval_weights(riemann_liouville(alpha=-0.45), grid)
    np.testing.assert_allclose(w, [np.sqrt(10.0)])

    grid = Grid(n=2, T=1.0)
    w = optimal_eval_weights(riemann_liouville(alpha=0.25), grid)
    np.testing.assert_allclose(w, [0.6865890479690393, 0.9284012131305633])

    grid = Grid(n=16, T=2.0)
    w = optimal_eval_weights(riemann_liouville(alpha=0.0), grid)
    np.testing.assert_allclose(w, np.ones(16))


def test_optimal_weights_nonrl_match_quadrature():
    k = gamma_fractional(alpha=-0.2, beta=-1.0)
    grid = Grid(n=4, T=1.0)
    w = optimal_eval_weights(k, grid)
    t = grid.times
    for i in range(4):
        expect = np.sqrt(
            squared_kernel_integral(k, t[i], t[i + 1]) / grid.dt
        )
        assert w[i] == pytest.approx(expect, rel=1e-10)


def test_moment_matching_identity():
    # (T/n) * cumsum(w^2) must reproduce int_0^{t_i} g^2 exactly, per step
    for hurst in (0.05, 0.1, 0.3, 0.75):
        k = riemann_liouville(hurst=hurst)
        grid = Grid(n=500, T=1.0)
        w = optimal_eval_weights(k, grid)
        lhs = grid.dt * np.cumsum(w ** 2)
        t = grid.times[1:]
        rhs = t ** (2 * hurst) / (2 * hurst)
        rel = np.abs(lhs - rhs) / rhs
        assert rel.max() < 1e-10


def test_left_point_weights_examples():
    w = left_point_weights(riemann_liouville(alpha=0.0), Grid(n=4, T=1.0))
    np.testing.assert_allclose(w, np.ones(4))
    w = left_point_weights(riemann_liouville(alpha=0.25), Grid(n=2, T=1.0))
    np.testing.assert_allclose(w, [0.8408964152537145, 1.0])
    w = left_point_weights(gamma_fractional(alpha=0.0, beta=-1.0), Grid(n=2, T=2.0))
    np.testing.assert_allclose(w, [np.exp(-1.0), np.exp(-2.0)])


def test_weight_ordering_for_singular_kernels():
    # left-point underestimates the first (singular) lag when alpha < 0
    for hurst in (0.05, 0.2, 0.4):
        k = riemann_liouville(hurst=hurst)
        grid = Grid(n=32, T=1.0)
        w_left = left_point_weights(k, grid)
        w_opt = optimal_eval_weights(k, grid)
        assert w_left[0] <= w_opt[0]
        assert np.all(w_left >= 0)
        assert np.all(w_opt >= 0)
