"""Euler driver, GFO convolution, hybrid and Cholesky comparators, IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughsim.kernels import Grid, gamma_fractional, riemann_liouville
from roughsim.shocks import (
    STREAM_CHOLESKY,
    STREAM_HYBRID_AUX,
    NoiseConfig,
    draw_shocks,
    path_rng,
)
from roughsim.volterra import (
    _covariance_entry,
    _covariance_quadrature,
    DiffusionSpec,
    PathSet,
    check_diffusion_coefficients,
    cholesky_exact_rl,
    convolve_gfo,
    euler_diffusion,
    hybrid_scheme_rl,
    load_binary,
    rdonsker_volterra,
    save_binary,
    save_csv,
    volterra_covariance,
)


def _gauss(m, n, seed=0, rho=0.0):
    return draw_shocks(NoiseConfig(distribution="gaussian", paths=m, steps=n,
                                   rho=rho, seed=seed))


def _cir_spec(kappa=1.0, theta=0.04, xi=0.1, y0=0.04):
    return DiffusionSpec(
        drift=lambda y: kappa * (theta - y),
        diffusion=lambda y: xi * np.sqrt(y),
        y0=y0,
        domain=(0.0, None),
        name="cir",
    )


# ----------------------------------------------------------------------
# euler_diffusion
# ----------------------------------------------------------------------

def test_euler_brownian_walk():
    grid = Grid(n=16, T=2.0)
    zeta = _gauss(8, 16, seed=1).zeta
    spec = DiffusionSpec(drift=lambda y: 0.0 * y, diffusion=lambda y: np.ones_like(y),
                         y0=0.0)
    out = euler_diffusion(spec, zeta, grid)
    walk = np.sqrt(grid.dt) * np.cumsum(zeta, axis=1)
    np.testing.assert_allclose(out.values[:, 1:], walk, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(out.values[:, 0], 0.0)


def test_euler_deterministic_drift():
    grid = Grid(n=10, T=1.0)
    zeta = np.zeros((3, 10))
    spec = DiffusionSpec(drift=lambda y: np.ones_like(y),
                         diffusion=lambda y: 0.0 * y, y0=0.0)
    out = euler_diffusion(spec, zeta, grid)
    np.testing.assert_allclose(out.values, np.tile(grid.times, (3, 1)), atol=1e-15)


def test_euler_cir_mean():
    # y0 = theta makes the exact mean theta at every horizon
    grid = Grid(n=256, T=1.0)
    m = 100_000
    zeta = _gauss(m, 256, seed=42).zeta
    out = euler_diffusion(_cir_spec(), zeta, grid)
    terminal = out.values[:, -1]
    target = 0.04 + (0.04 - 0.04) * np.exp(-1.0)
    stderr = terminal.std(ddof=1) / np.sqrt(m)
    assert abs(terminal.mean() - target) < 3 * stderr
    assert out.stats["domain_clips"] < 0.001 * m * 256


def test_euler_nan_aborts():
    grid = Grid(n=8, T=1.0)
    zeta = np.ones((2, 8))
    spec = DiffusionSpec(drift=lambda y: y * np.inf, diffusion=lambda y: 0.0 * y,
                         y0=1.0)
    with pytest.raises(RuntimeError, match="non-finite"):
        euler_diffusion(spec, zeta, grid)


def test_coefficient_check():
    assert check_diffusion_coefficients(_cir_spec(xi=0.1), 0.0, 2.0,
                                        c_b=1.0 + 1e-9, c_a=0.1 + 1e-9)
    quad_spec = DiffusionSpec(drift=lambda y: y ** 2, diffusion=lambda y: 0 * y,
                              y0=0.0)
    assert not check_diffusion_coefficients(quad_spec, 0.0, 10.0, c_b=1.0, c_a=1.0)


# ----------------------------------------------------------------------
# convolve_gfo
# ----------------------------------------------------------------------

def test_convolution_unrolled_n3():
    grid = Grid(n=3, T=1.0)
    w = np.array([2.0, 3.0, 5.0])
    d = np.array([[7.0, 11.0, 13.0]])
    for method in ("fft", "naive"):
        out = convolve_gfo(w, d, grid, method=method).values[0]
        expect = [0.0, 2 * 7, 3 * 7 + 2 * 11, 5 * 7 + 3 * 11 + 2 * 13]
        np.testing.assert_allclose(out, expect, atol=1e-12)


def test_convolution_telescopes_with_unit_weights():
    grid = Grid(n=32, T=1.0)
    rng = np.random.default_rng(3)
    inc = rng.standard_normal((5, 32))
    out = convolve_gfo(np.ones(32), inc, grid, method="fft").values
    np.testing.assert_allclose(out[:, 1:], np.cumsum(inc, axis=1), atol=1e-12)


def test_fft_matches_naive():
    rng = np.random.default_rng(7)
    for n in list(range(1, 17)) + [1024]:
        grid = Grid(n=n, T=1.0)
        w = rng.standard_normal(n)
        d = rng.standard_normal((3, n))
        a = convolve_gfo(w, d, grid, method="fft").values
        b = convolve_gfo(w, d, grid, method="naive").values
        scale = max(np.abs(w).max() * np.abs(d).max() * n, 1.0)
        assert np.abs(a - b).max() < 1e-10 * scale


def test_convolution_dimension_errors():
    grid = Grid(n=4, T=1.0)
    with pytest.raises(ValueError):
        convolve_gfo(np.ones(3), np.ones((2, 4)), grid)
    with pytest.raises(ValueError):
        convolve_gfo(np.ones(5), np.ones((2, 5)), grid)
    with pytest.raises(ValueError):
        convolve_gfo(np.ones(4), np.ones((2, 4)), grid, method="magic")


# ----------------------------------------------------------------------
# rdonsker_volterra
# ----------------------------------------------------------------------

def test_rdonsker_alpha_zero_is_donsker_walk():
    kernel = riemann_liouville(alpha=0.0)
    grid = Grid(n=64, T=1.0)
    zeta = _gauss(6, 64, seed=5).zeta
    out = rdonsker_volterra(kernel, "brownian", zeta, grid,
                            eval_mode="moment_matched")
    walk = np.sqrt(grid.dt) * np.cumsum(zeta, axis=1)
    np.testing.assert_allclose(out.values[:, 1:], walk, atol=1e-12)


def test_rdonsker_matched_variance():
    hurst = 0.3
    kernel = riemann_liouville(hurst=hurst)
    grid = Grid(n=256, T=1.0)
    m = 100_000
    zeta = _gauss(m, 256, seed=11).zeta
    out = rdonsker_volterra(kernel, "brownian", zeta, grid,
                            eval_mode="moment_matched")
    terminal = out.values[:, -1]
    target = 1.0 / (2 * hurst)
    # variance estimator noise: Var(s^2) ~ 2 sigma^4 / M for Gaussians
    stderr = target * np.sqrt(2.0 / m)
    assert abs(terminal.var(ddof=1) - target) < 3 * stderr
    assert out.scheme_tag == "rdonsker_matched"


def test_rdonsker_left_point_variance_deficit():
    # deterministic: the left-point weight sum under-integrates g^2
    hurst = 0.3
    kernel = riemann_liouville(hurst=hurst)
    deficits = []
    for n in (64, 256, 1024):
        grid = Grid(n=n, T=1.0)
        from roughsim.kernels import left_point_weights
        w = left_point_weights(kernel, grid)
        scheme_var = grid.dt * np.sum(w ** 2)
        deficits.append(1.0 / (2 * hurst) - scheme_var)
    assert all(d > 0 for d in deficits)
    assert deficits[0] > deficits[1] > deficits[2]


def test_rdonsker_moment_matched_rejects_diffusion_driver():
    kernel = riemann_liouville(hurst=0.3)
    grid = Grid(n=8, T=1.0)
    zeta = np.zeros((2, 8))
    with pytest.raises(ValueError, match="Brownian"):
        rdonsker_volterra(kernel, _cir_spec(), zeta, grid,
                          eval_mode="moment_matched")


def test_rdonsker_diffusion_driver_left_point():
    kernel = riemann_liouville(alpha=0.0)
    grid = Grid(n=32, T=1.0)
    zeta = _gauss(4, 32, seed=9).zeta
    out = rdonsker_volterra(kernel, _cir_spec(), zeta, grid,
                            eval_mode="left_point")
    # alpha = 0 telescopes: G^0 Y = Y - y0
    ypaths = euler_diffusion(_cir_spec(), zeta, grid)
    np.testing.assert_allclose(out.values, ypaths.values - 0.04, atol=1e-12)


# ----------------------------------------------------------------------
# hybrid scheme
# ----------------------------------------------------------------------

def test_hybrid_reduces_to_donsker_walk_at_half():
    grid = Grid(n=64, T=1.0)
    zeta = _gauss(6, 64, seed=13).zeta
    out = hybrid_scheme_rl(0.5, zeta, grid, seed=13)
    walk = np.sqrt(grid.dt) * np.cumsum(zeta, axis=1)
    np.testing.assert_allclose(out.values[:, 1:], walk, atol=1e-12)


def test_hybrid_single_step_variance_exact():
    # n=1: output is the exact integral, Var = 1/(2H) deterministically
    hurst = 0.3
    grid = Grid(n=1, T=1.0)
    m = 200_000
    zeta = _gauss(m, 1, seed=17).zeta
    out = hybrid_scheme_rl(hurst, zeta, grid, seed=17)
    target = 1.0 / (2 * hurst)
    sample = out.values[:, 1]
    stderr = target * np.sqrt(2.0 / m)
    assert abs(sample.var(ddof=1) - target) < 3 * stderr


def test_hybrid_terminal_variance():
    hurst = 0.3
    grid = Grid(n=256, T=1.0)
    m = 100_000
    zeta = _gauss(m, 256, seed=19).zeta
    out = hybrid_scheme_rl(hurst, zeta, grid, seed=19)
    target = 1.0 / (2 * hurst)
    sample = out.values[:, -1]
    stderr = target * np.sqrt(2.0 / m)
    assert abs(sample.var(ddof=1) - target) < 3 * stderr


def test_hybrid_validation():
    grid = Grid(n=4, T=1.0)
    with pytest.raises(ValueError):
        hybrid_scheme_rl(0.0, np.zeros((2, 4)), grid, seed=1)
    with pytest.raises(ValueError):
        hybrid_scheme_rl(1.0, np.zeros((2, 4)), grid, seed=1)


# ----------------------------------------------------------------------
# covariance oracle and exact sampler
# ----------------------------------------------------------------------

def test_covariance_brownian_case():
    kernel = riemann_liouville(alpha=0.0)
    grid = Grid(n=8, T=2.0)
    cov = volterra_covariance(kernel, grid)
    t = grid.times
    expect = np.minimum(t[:, None], t[None, :])
    np.testing.assert_allclose(cov, expect, atol=1e-9)


def test_covariance_diagonal_closed_form():
    hurst = 0.3
    kernel = riemann_liouville(hurst=hurst)
    grid = Grid(n=16, T=1.0)
    cov = volterra_covariance(kernel, grid)
    t = grid.times
    np.testing.assert_allclose(np.diag(cov), t ** (2 * hurst) / (2 * hurst),
                               atol=1e-9)


_ORACLE_HURSTS = (0.05, 0.1, 0.3, 0.5, 0.75)


@pytest.mark.parametrize("hurst", _ORACLE_HURSTS)
@pytest.mark.parametrize("n", [3, 8])
def test_closed_form_covariance_matches_quadrature(hurst, n):
    # absolute, not relative: the quadrature's epsabs=1e-12 leaves tiny
    # entries at H > 1/2 off by ~1e-9 relative
    kernel = riemann_liouville(hurst=hurst)
    grid = Grid(n=n, T=1.3)
    np.testing.assert_allclose(volterra_covariance(kernel, grid),
                               _covariance_quadrature(kernel, grid),
                               rtol=0, atol=1e-11)


# one Hurst index on each side of 1/2 besides the oracle's
_ADJACENT_HURSTS = _ORACLE_HURSTS + (0.45, 0.55)


@pytest.mark.parametrize("hurst", _ADJACENT_HURSTS)
def test_closed_form_covariance_at_adjacent_times_n256(hurst):
    # s/t -> 1 is where 2F1 converges slowest (c - a - b = 2H), and where
    # scipy switches to its 1 - z transformation (z > 0.9)
    kernel = riemann_liouville(hurst=hurst)
    grid = Grid(n=256, T=1.0)
    cov = volterra_covariance(kernel, grid)
    t = grid.times
    for i, j in ((1, 2), (2, 3), (128, 129), (255, 256), (254, 256),
                 (100, 200), (1, 256)):
        assert abs(cov[i, j] - _covariance_entry(kernel, t[i], t[j])) < 1e-11


@pytest.mark.parametrize("hurst", _ADJACENT_HURSTS)
def test_closed_form_covariance_is_positive_definite_at_the_cap(hurst):
    cov = volterra_covariance(riemann_liouville(hurst=hurst),
                              Grid(n=512, T=1.0))
    assert np.all(np.isfinite(cov))
    assert np.linalg.eigvalsh(cov[1:, 1:]).min() > 0.0


@pytest.mark.parametrize("hurst", _ORACLE_HURSTS)
def test_closed_form_covariance_is_exact_on_its_diagonal_and_symmetric(hurst):
    kernel = riemann_liouville(hurst=hurst)
    grid = Grid(n=64, T=2.0)
    cov = volterra_covariance(kernel, grid)
    t = grid.times
    two_h = 2.0 * kernel.hurst
    assert np.all(np.diag(cov) == t ** two_h / two_h)
    assert np.array_equal(cov, cov.T)
    assert not np.any(cov[0]) and not np.any(cov[:, 0])
    assert not cov.flags.writeable


def test_covariance_of_other_kernels_is_quadrature():
    kernel = gamma_fractional(-0.2, -1.0)
    grid = Grid(n=3, T=1.0)
    np.testing.assert_array_equal(volterra_covariance(kernel, grid),
                                  _covariance_quadrature(kernel, grid))


def test_covariance_rejects_a_kernel_without_one():
    with pytest.raises(ValueError, match="alpha"):
        volterra_covariance(riemann_liouville(alpha=-0.6), Grid(n=2, T=1.0))


def test_cholesky_sampler_runs_at_its_cap():
    out = cholesky_exact_rl(riemann_liouville(hurst=0.05), Grid(n=512, T=1.0),
                            num_paths=4, seed=3)
    assert out.values.shape == (4, 513)
    assert np.all(np.isfinite(out.values))


_STREAM_SEEDS = st.one_of(st.sampled_from([0, 2 ** 64 - 1]),
                          st.integers(0, 2 ** 64 - 1))


@settings(max_examples=30, deadline=None)
@given(seed=_STREAM_SEEDS, num_paths=st.integers(1, 6), n=st.integers(1, 6))
def test_cholesky_normals_are_the_cholesky_streams(seed, num_paths, n):
    kernel = riemann_liouville(hurst=0.3)
    grid = Grid(n=n, T=1.0)
    normals = np.array([path_rng(seed, j, STREAM_CHOLESKY).standard_normal(n)
                        for j in range(num_paths)])
    cov = volterra_covariance(kernel, grid)[1:, 1:]
    factor = np.linalg.cholesky(cov + 1e-12 * np.eye(n))
    out = cholesky_exact_rl(kernel, grid, num_paths, seed)
    np.testing.assert_array_equal(out.values[:, 1:], normals @ factor.T)


@settings(max_examples=30, deadline=None)
@given(seed=_STREAM_SEEDS, group=st.sampled_from([1, 2, 4]),
       base_paths=st.integers(1, 5), offset=st.integers(0, 2 ** 40),
       n=st.integers(1, 6), cut=st.integers(1, 4))
def test_hybrid_eta_is_the_aux_streams_in_chunks(seed, group, base_paths,
                                                 offset, n, cut):
    # zero shocks leave only the auxiliary term c2 * eta on each row
    hurst = 0.1
    grid = Grid(n=n, T=1.0)
    alpha, dt = hurst - 0.5, grid.dt
    c1 = dt ** alpha / (alpha + 1.0)
    c2 = np.sqrt(dt ** (2 * alpha + 1.0) / (2 * alpha + 1.0) - c1 * c1 * dt)
    draws = [path_rng(seed, offset + b, STREAM_HYBRID_AUX).standard_normal(n)
             for b in range(base_paths)]
    signs = [1.0] if group == 1 else [1.0] * (group // 2) + [-1.0] * (group // 2)
    eta = np.array([s * d for d in draws for s in signs])
    zeros = np.zeros((group * base_paths, n))
    whole = hybrid_scheme_rl(hurst, zeros, grid, seed, group, offset).values
    np.testing.assert_array_equal(whole[:, 1:], c2 * eta)
    cut = min(cut, base_paths)
    parts = [hybrid_scheme_rl(hurst, zeros[group * a:group * b], grid, seed,
                              group, offset + a).values
             for a, b in ((0, cut), (cut, base_paths)) if b > a]
    np.testing.assert_array_equal(np.vstack(parts), whole)


def test_cholesky_sampler_brownian_increments():
    kernel = riemann_liouville(alpha=0.0)
    grid = Grid(n=16, T=1.0)
    out = cholesky_exact_rl(kernel, grid, num_paths=50_000, seed=23)
    inc = np.diff(out.values, axis=1)
    # Brownian increments: variance dt each, independent across steps
    var = inc.var(axis=0, ddof=1)
    np.testing.assert_allclose(var, grid.dt, rtol=0.06)
    corr = np.corrcoef(inc[:, 0], inc[:, 8])[0, 1]
    assert abs(corr) < 0.02


def test_cholesky_sampler_reproducible_and_capped():
    kernel = riemann_liouville(hurst=0.3)
    grid = Grid(n=8, T=1.0)
    a = cholesky_exact_rl(kernel, grid, num_paths=4, seed=1)
    b = cholesky_exact_rl(kernel, grid, num_paths=4, seed=1)
    np.testing.assert_array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        cholesky_exact_rl(kernel, Grid(n=513, T=1.0), num_paths=1, seed=1)


# ----------------------------------------------------------------------
# export formats
# ----------------------------------------------------------------------

def test_binary_round_trip(tmp_path):
    grid = Grid(n=5, T=2.5)
    values = np.random.default_rng(0).standard_normal((3, 6))
    values[:, 0] = 0.0
    ps = PathSet(values=values, grid=grid, scheme_tag="rdonsker_matched", seed=9)
    fn = tmp_path / "paths.bin"
    save_binary(ps, fn)
    back = load_binary(fn)
    np.testing.assert_array_equal(back.values, values)
    assert back.grid.n == 5 and back.grid.T == 2.5
    # layout: magic + u32 M + u32 cols + f64 T, little-endian
    raw = fn.read_bytes()
    assert raw[:5] == b"RVOL1"
    import struct
    m, cols, horizon = struct.unpack("<IId", raw[5:21])
    assert (m, cols, horizon) == (3, 6, 2.5)


def test_csv_export(tmp_path):
    grid = Grid(n=4, T=1.0)
    values = np.arange(10.0).reshape(2, 5)
    values[:, 0] = 0.0
    ps = PathSet(values=values, grid=grid, scheme_tag="hybrid", seed=3)
    fn = tmp_path / "paths.csv"
    save_csv(ps, fn)
    lines = fn.read_text().strip().splitlines()
    assert lines[0].startswith("# scheme=hybrid seed=3 paths=2 steps=4")
    assert len(lines) == 2 + 2  # metadata, time header, two rows
    data = np.loadtxt(fn, delimiter=",", skiprows=2)
    np.testing.assert_allclose(data, values)


def test_hybrid_antithetic_groups_mirror_and_chunk():
    grid = Grid(n=16, T=1.0)
    cfg = NoiseConfig(distribution="gaussian", paths=16, steps=16, rho=-0.7,
                      seed=29, antithetic=True)
    s = draw_shocks(cfg)
    out = hybrid_scheme_rl(0.3, s.zeta, grid, seed=29, antithetic_group=4)
    # mirrored shock rows give exactly mirrored paths
    np.testing.assert_array_equal(out.values[2::4], -out.values[0::4])
    np.testing.assert_array_equal(out.values[3::4], -out.values[1::4])
    # chunked generation reproduces the full run
    lo = draw_shocks(cfg, base_range=(0, 1))
    hi = draw_shocks(cfg, base_range=(1, 4))
    part0 = hybrid_scheme_rl(0.3, lo.zeta, grid, seed=29, antithetic_group=4,
                             base_offset=0)
    part1 = hybrid_scheme_rl(0.3, hi.zeta, grid, seed=29, antithetic_group=4,
                             base_offset=1)
    np.testing.assert_array_equal(np.vstack([part0.values, part1.values]),
                                  out.values)
