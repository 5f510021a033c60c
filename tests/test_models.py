"""Variance-map models: curve lookup, Wick mean, clamping, config."""

import math
import warnings

import numpy as np
import pytest

from roughsim import kernels
from roughsim.kernels import (
    Grid,
    gamma_fractional,
    optimal_eval_weights,
    power_law,
    riemann_liouville,
    squared_cell_integrals,
    squared_kernel_integral,
)
from roughsim.models import (
    ForwardVarianceCurve,
    GammaBergomi,
    RoughBergomi,
    RoughHestonGJRS,
    as_curve,
    model_from_config,
    phi_apply,
    squared_integral_profile,
)
from roughsim.pricing import MCConfig, smile
from roughsim.shocks import NoiseConfig, draw_shocks
from roughsim.trees import TreeConfig, call_payoff, put_payoff
from roughsim.volterra import PathSet, cholesky_exact_rl, rdonsker_volterra


def _flat_path_set(values, grid, tag="rdonsker_matched"):
    return PathSet(values=values, grid=grid, scheme_tag=tag)


# ----------------------------------------------------------------------
# forward variance curve
# ----------------------------------------------------------------------

def test_curve_constant_and_scalar_coercion():
    c = as_curve(0.04)
    np.testing.assert_array_equal(c(np.array([0.0, 0.5, 3.0])), 0.04)


def test_curve_piecewise_right_continuous():
    c = ForwardVarianceCurve(times=(0.0, 1.0, 2.0), values=(0.04, 0.09, 0.01))
    t = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 10.0])
    np.testing.assert_array_equal(c(t), [0.04, 0.04, 0.09, 0.09, 0.01, 0.01])


def test_curve_validation():
    with pytest.raises(ValueError):
        ForwardVarianceCurve(times=(0.5,), values=(0.04,))
    with pytest.raises(ValueError):
        ForwardVarianceCurve(times=(0.0, 0.0), values=(0.04, 0.05))
    with pytest.raises(ValueError):
        ForwardVarianceCurve(times=(0.0,), values=(0.0,))
    with pytest.raises(ValueError):
        as_curve(0.04)(np.array([-0.1]))


def test_curve_from_pairs():
    c = as_curve([[0.0, 0.04], [1.0, 0.05]])
    assert c(0.5) == 0.04 and c(1.0) == 0.05


# ----------------------------------------------------------------------
# Bergomi variants
# ----------------------------------------------------------------------

def test_nu_zero_collapses_to_forward_curve():
    grid = Grid(n=8, T=2.0)
    curve = ForwardVarianceCurve(times=(0.0, 1.0), values=(0.04, 0.09))
    model = RoughBergomi(xi0=curve, nu=0.0, hurst=0.3, rho=-0.7)
    phi = np.random.default_rng(0).standard_normal((5, 9))
    v = phi_apply(model, _flat_path_set(phi, grid), grid)
    np.testing.assert_array_equal(v.values, np.tile(curve(grid.times), (5, 1)))


@pytest.fixture(scope="module")
def exact_gaussian_paths():
    grid = Grid(n=32, T=1.0)
    kernel = riemann_liouville(hurst=0.3)
    return grid, cholesky_exact_rl(kernel, grid, num_paths=200_000, seed=707)


def test_wick_mean_matches_forward_variance(exact_gaussian_paths):
    # exact Gaussian law => V(t) is a unit-mean lognormal times xi0(t)
    grid, paths = exact_gaussian_paths
    model = RoughBergomi(xi0=0.04, nu=1.0, hurst=0.3, rho=-0.7)
    v = phi_apply(model, paths, grid).values
    terminal = v[:, -1]
    stderr = terminal.std(ddof=1) / np.sqrt(len(terminal))
    assert abs(terminal.mean() - 0.04) < 3 * stderr


def test_forward_variance_consistency_probe_times(exact_gaussian_paths):
    grid, paths = exact_gaussian_paths
    model = RoughBergomi(xi0=0.04, nu=1.0, hurst=0.3, rho=-0.7)
    v = phi_apply(model, paths, grid).values
    for i in range(4, 33, 4):
        col = v[:, i]
        stderr = col.std(ddof=1) / np.sqrt(len(col))
        assert abs(col.mean() - 0.04) < 3 * stderr, f"probe {i}"


def test_gamma_bergomi_scheme_mean_and_positivity():
    # moment-matched weights reproduce Q(t_i) exactly, so the scheme's
    # Gaussian law keeps E[V] = xi0 at every grid time
    grid = Grid(n=64, T=1.0)
    model = GammaBergomi(xi0=0.04, nu=1.0, hurst=0.3, rho=-0.7, beta_decay=1.0)
    shocks = draw_shocks(NoiseConfig(paths=50_000, steps=64, rho=0.0,
                                     seed=11))
    paths = rdonsker_volterra(model.kernel(), "brownian", shocks.zeta, grid)
    v = phi_apply(model, paths, grid).values
    assert np.all(v > 0.0)
    terminal = v[:, -1]
    stderr = terminal.std(ddof=1) / np.sqrt(len(terminal))
    assert abs(terminal.mean() - 0.04) < 3 * stderr


def test_monotone_response_in_volterra_value():
    grid = Grid(n=4, T=1.0)
    model = RoughBergomi(xi0=0.04, nu=0.5, hurst=0.3, rho=0.0)
    base = np.zeros((1, 5))
    bumped = base.copy()
    bumped[0, 3] = 0.25
    v0 = phi_apply(model, _flat_path_set(base, grid), grid).values
    v1 = phi_apply(model, _flat_path_set(bumped, grid), grid).values
    assert v1[0, 3] > v0[0, 3]
    mask = np.ones(5, dtype=bool)
    mask[3] = False
    np.testing.assert_array_equal(v1[0, mask], v0[0, mask])


def test_grid_mismatch_rejected():
    model = RoughBergomi(xi0=0.04, nu=1.0, hurst=0.3, rho=0.0)
    grid_a = Grid(n=4, T=1.0)
    ps = _flat_path_set(np.zeros((2, 5)), grid_a)
    with pytest.raises(ValueError, match="grid"):
        phi_apply(model, ps, Grid(n=4, T=2.0))


# ----------------------------------------------------------------------
# the compensator Q(t) = int_0^t g^2
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [gamma_fractional(-0.4, -1.0),
                                    power_law(-0.2, -2.5)],
                         ids=["gamma", "powerlaw"])
def test_q_profile_is_the_running_sum_of_the_weight_cells(kernel):
    grid = Grid(n=16, T=1.0)
    q = squared_integral_profile(kernel, grid)
    assert q[0] == 0.0
    oracle = [squared_kernel_integral(kernel, 0.0, t) for t in grid.times[1:]]
    np.testing.assert_allclose(q[1:], oracle, rtol=1e-12, atol=0.0)
    w = optimal_eval_weights(kernel, grid)
    np.testing.assert_allclose(q[1:], grid.dt * np.cumsum(w ** 2),
                               rtol=1e-12, atol=0.0)


def test_q_profile_integrates_no_more_than_the_weights(monkeypatch):
    kernel = gamma_fractional(-0.4, -1.0)  # H = 0.1
    grid = Grid(n=64, T=1.0)
    calls = []
    real = kernels.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "quad", counted)
    counts = []
    for build in (optimal_eval_weights, squared_integral_profile):
        squared_cell_integrals.cache_clear()
        squared_integral_profile.cache_clear()
        calls.clear()
        build(kernel, grid)
        counts.append(len(calls))
    assert 0 < counts[1] <= counts[0]
    # and the two share one table
    squared_integral_profile(kernel, grid)
    optimal_eval_weights(kernel, grid)
    assert len(calls) == counts[1]


# ----------------------------------------------------------------------
# rough Heston (GJRS form)
# ----------------------------------------------------------------------

def _heston(**kw):
    base = dict(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1, y0=0.04,
                hurst=0.3, rho=-0.7)
    base.update(kw)
    return RoughHestonGJRS(**base)


def test_heston_deterministic_when_vol_of_vol_zero():
    # y0 = theta kills the drift too: Y is constant, phi == 0, V == eta
    grid = Grid(n=16, T=1.0)
    model = _heston(vol_of_vol=0.0)
    shocks = draw_shocks(NoiseConfig(paths=8, steps=16, rho=0.0, seed=5))
    paths = rdonsker_volterra(model.kernel(), model.driver(), shocks.zeta,
                              grid, eval_mode="left_point")
    v = phi_apply(model, paths, grid).values
    np.testing.assert_allclose(v, model.eta, atol=1e-14)
    assert v[0, 0] == model.eta


def test_heston_clamp_telemetry():
    grid = Grid(n=3, T=1.0)
    model = _heston()
    phi = np.array([[0.0, 0.01, -0.05, -0.041],
                    [0.0, 0.00, 0.002, -0.039]])
    v = phi_apply(model, _flat_path_set(phi, grid, tag="rdonsker_left"), grid)
    assert v.stats["clamp_cells"] == 2
    assert v.stats["clamp_fraction"] == 2 / 8
    assert np.all(v.values >= 0.0)
    np.testing.assert_allclose(v.values[1], [0.04, 0.04, 0.042, 0.001])


def test_heston_clamp_fraction_regression_guard():
    # desk parameters with a comfortable Feller margin keep clamping rare
    grid = Grid(n=256, T=1.0)
    model = _heston(vol_of_vol=0.05)
    shocks = draw_shocks(NoiseConfig(paths=20_000, steps=256, rho=0.0,
                                     seed=31))
    paths = rdonsker_volterra(model.kernel(), model.driver(), shocks.zeta,
                              grid, eval_mode="left_point")
    v = phi_apply(model, paths, grid)
    assert v.stats["clamp_fraction"] < 0.01


def test_feller_condition_enforced():
    with pytest.raises(ValueError, match="Feller"):
        _heston(vol_of_vol=0.3)


def _bergomi(**kw):
    return RoughBergomi(**{"xi0": 0.04, "nu": 1.0, "hurst": 0.3, "rho": -0.7,
                           **kw})


def _smile_at(strikes):
    smile(_bergomi(), MCConfig(num_paths=8, grid=Grid(n=4, T=1.0)), strikes)


# (build, parameter name[, test id]): build() must raise a ValueError naming
# the parameter; the test id is the name unless given
_REFUSED = [pytest.param(*case[:2], id=case[-1]) for case in [
    (lambda: _bergomi(nu=math.nan), "nu"),
    (lambda: GammaBergomi(xi0=0.04, nu=1.0, hurst=0.3, rho=-0.7,
                          beta_decay=math.nan), "beta_decay"),
    *[(lambda name=name: _heston(**{name: math.nan}), name)
      for name in ("eta", "kappa", "theta", "y0", "vol_of_vol")],
    (lambda: ForwardVarianceCurve.constant(math.nan), "forward variance"),
    (lambda: _bergomi(spot=math.nan), "spot"),
    (lambda: TreeConfig(model=_bergomi(), depth=2, horizon=math.nan), "horizon"),
    (lambda: TreeConfig(model=_bergomi(), depth=2, rate=math.nan), "rate"),
    (lambda: TreeConfig(model=_bergomi(), depth=2, dividend=math.inf),
     "dividend"),
    (lambda: _smile_at([math.nan]), "strikes"),
    (lambda: _smile_at([1.0, math.inf]), "strikes"),
    (lambda: _bergomi(spot=math.inf), "spot", "spot=inf"),
    (lambda: _bergomi(xi0=math.inf), "forward variance", "xi0=inf"),
    (lambda: _bergomi(xi0=[[0.0, 0.04], [math.nan, 0.05]]), "knot times",
     "xi0 knot=nan"),
    (lambda: _bergomi(xi0=[[0.0, 0.04], [math.inf, 0.05]]), "knot times",
     "xi0 knot=inf"),
    (lambda: _bergomi(nu=math.inf), "nu", "nu=inf"),
    (lambda: GammaBergomi(xi0=0.04, nu=1.0, hurst=0.3, rho=-0.7,
                          beta_decay=math.inf), "beta_decay", "beta_decay=inf"),
    *[(lambda name=name: _heston(**{name: math.inf}), name, f"{name}=inf")
      for name in ("eta", "kappa", "theta", "y0", "vol_of_vol")],
    (lambda: TreeConfig(model=_bergomi(), depth=2, horizon=math.inf), "horizon",
     "horizon=inf"),
    (lambda: TreeConfig(model=_bergomi(), depth=2.5), "depth", "depth=2.5"),
    (lambda: TreeConfig(model=_bergomi(), depth=2,
                        max_in_memory_bytes=math.nan), "max_in_memory_bytes"),
    (lambda: put_payoff(math.inf), "strike", "put strike=inf"),
    (lambda: call_payoff(math.nan), "strike", "call strike=nan"),
]]


@pytest.mark.parametrize("build, name", _REFUSED)
def test_nan_and_infinite_inputs_are_refused_by_name(build, name):
    # a NaN fails every comparison, so each check asks for the good case
    with pytest.raises(ValueError, match=name):
        build()


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------

def test_model_from_config_variants():
    m = model_from_config({"type": "rbergomi", "hurst": 0.3, "nu": 1.0,
                           "xi0": 0.04, "rho": -0.7})
    assert isinstance(m, RoughBergomi) and m.spot == 1.0
    g = model_from_config({"type": "gbergomi", "hurst": 0.1, "nu": 0.5,
                           "xi0": [[0.0, 0.04], [1.0, 0.05]], "beta": 2.0,
                           "rho": -1.0, "spot": 100.0})
    assert isinstance(g, GammaBergomi) and g.kernel().beta == -2.0
    h = model_from_config({"type": "rheston_gjrs", "hurst": 0.3, "eta": 0.04,
                           "kappa": 1.0, "theta": 0.04, "xi": 0.1,
                           "y0": 0.04, "rho": -0.7})
    assert isinstance(h, RoughHestonGJRS)
    assert h.driver().name == "cir"


def test_model_from_config_errors():
    with pytest.raises(ValueError, match="type"):
        model_from_config({"hurst": 0.3})
    with pytest.raises(ValueError, match="missing"):
        model_from_config({"type": "rbergomi", "hurst": 0.3, "rho": 0.0})
    with pytest.raises(ValueError, match="unknown model config"):
        model_from_config({"type": "rbergomi", "hurst": 0.3, "nu": 1.0,
                           "xi0": 0.04, "rho": 0.0, "extra": 1})
    with pytest.raises(ValueError, match="unknown model type"):
        model_from_config({"type": "heston", "hurst": 0.3})


# ----------------------------------------------------------------------
# non-finite variance names its cause
# ----------------------------------------------------------------------

def test_huge_nu_variance_names_the_overflow_and_the_parameters():
    # nu^2 overflows, so the compensator is inf and V(0) = xi exp(0 - inf*0)
    from roughsim.pricing import MCConfig, smile
    model = RoughBergomi(xi0=0.04, nu=1e200, hurst=0.1, rho=-0.7)
    config = MCConfig(num_paths=16, grid=Grid(n=8, T=1.0), seed=1)
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError) as err:
        smile(model, config, [1.0])
    message = str(err.value)
    assert message.startswith("rdonsker_matched variance paths are not "
                              "finite: path 0, time index 0 is nan")
    assert "exp(2 nu C_H phi - 2 nu^2 C_H^2 Q) overflowed" in message
    assert "nu=1e+200, H=0.1" in message


def _overflowing_tree():
    from roughsim.trees import TreeConfig, build_tree
    model = RoughBergomi(xi0=np.finfo(float).max / 4, nu=2.0, hurst=0.3,
                         rho=-0.7)
    build_tree(TreeConfig(model=model, depth=6))


def _overflowing_smile():
    from roughsim.pricing import MCConfig, smile
    model = RoughBergomi(xi0=np.finfo(float).max / math.exp(3.0), nu=2.0,
                         hurst=0.3, rho=-0.7)
    smile(model, MCConfig(num_paths=64, grid=Grid(n=8, T=1.0), seed=0), [1.0])


@pytest.mark.parametrize("run", [_overflowing_tree, _overflowing_smile],
                         ids=["tree", "smile"])
def test_an_overflowing_variance_warns_nothing_before_its_error(run):
    # numpy's own "overflow encountered" warning would reach stderr next to
    # the error that names the same overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"variance (paths are|is) not "
                                             r"finite: .* overflowed "
                                             r"\(nu=2.0, H=0.3\)$"):
            run()


def test_nonfinite_heston_variance_names_the_path_without_an_overflow_cause():
    grid = Grid(n=4, T=1.0)
    model = RoughHestonGJRS(eta=0.02, kappa=1.0, theta=0.04, vol_of_vol=0.2,
                            y0=0.04, hurst=0.1, rho=-0.5)
    values = np.zeros((2, 5))
    ps = _flat_path_set(values, grid, tag="rdonsker_left")
    values[1, 4] = np.nan  # after the path set's own check
    with pytest.raises(ValueError, match=r"rdonsker_left variance paths are "
                                         r"not finite: path 1, time index 4 "
                                         r"is nan$"):
        phi_apply(model, ps, grid)
