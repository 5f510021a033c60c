"""Euler driver, GFO convolution, hybrid and Cholesky comparators, IO."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as sfft
from scipy.integrate import quad

from roughsim import volterra

from roughsim.kernels import Grid, gamma_fractional, riemann_liouville
from roughsim.pricing import SCHEMES, scheme_paths
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
    _hybrid_weights,
    cholesky_exact_rl,
    convolve_gfo,
    euler_diffusion,
    hybrid_scheme_rl,
    load_binary,
    check_finite,
    rdonsker_volterra,
    save_binary,
    save_csv,
    volterra_covariance,
)


def _gauss(m, n, seed=0, rho=0.0):
    return draw_shocks(NoiseConfig(paths=m, steps=n, rho=rho, seed=seed))


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


@pytest.mark.parametrize("y0", [np.nan, np.inf, -np.inf])
def test_a_start_that_is_not_finite_is_refused_at_construction(y0):
    # refused by name before any Euler step, as every real parameter is
    with pytest.raises(ValueError, match=f"^y0 must be finite, got {y0}$"):
        DiffusionSpec(drift=lambda y: -y, diffusion=lambda y: np.ones_like(y),
                      y0=y0)


def test_euler_nan_names_tag_path_time_index_and_value():
    grid = Grid(n=8, T=1.0)
    zeta = np.zeros((3, 8))
    zeta[1, 3] = np.inf
    spec = DiffusionSpec(drift=lambda y: 0.0 * y,
                         diffusion=lambda y: np.ones_like(y), y0=0.0,
                         name="walk")
    with pytest.raises(RuntimeError,
                       match=r"^euler:walk state non-finite: path 1, "
                             r"time index 4 is inf$"):
        euler_diffusion(spec, zeta, grid)


def _euler_reference(spec, zeta, grid):
    """The Euler loop step by step, a clip and a count at every step, as
    (Y + b dt) + (a sqrt(dt)) zeta; then every state is checked, and the
    lowest path with a non-finite state is named at its first bad step."""
    m, n = zeta.shape
    sq = np.sqrt(grid.dt)
    values = np.empty((m, n + 1))
    values[:, 0] = spec.y0
    y = np.full(m, float(spec.y0))
    clips = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            lo, hi = spec.domain
            yc = y if lo is None and hi is None else np.clip(y, lo, hi)
            clips += int(np.count_nonzero(yc != y))
            y = (y + spec.drift(yc) * grid.dt
                 + spec.diffusion(yc) * sq * zeta[:, k])
            values[:, k + 1] = y
    for path in range(m):
        for step in range(n + 1):
            if not np.isfinite(values[path, step]):
                raise RuntimeError(
                    f"euler:{spec.name} state non-finite: path {path}, "
                    f"time index {step} is {values[path, step]}")
    return values, clips


_EULER_SPECS = [
    _cir_spec(xi=0.6),
    DiffusionSpec(drift=lambda y: 0.5 - y, diffusion=lambda y: 0.3 + 0.0 * y,
                  y0=0.1, domain=(-0.2, 0.4), name="band"),
    DiffusionSpec(drift=lambda y: -y, diffusion=lambda y: np.ones_like(y),
                  y0=0.0, name="ou"),
    # a constant drift and diffusion: the coefficients may be scalars
    DiffusionSpec(drift=lambda y: 0.1, diffusion=lambda y: 2.0, y0=1.0,
                  domain=(None, 1.5), name="scalar"),
]


_BLOCK = volterra._EULER_BLOCK_STEPS


def _at_step(step, n):
    """The fraction of `n` steps that `int(fraction * n)` maps to `step`."""
    return (step + 0.5) / n


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(_EULER_SPECS), m=st.integers(1, 9),
       n=st.integers(1, 3 * _BLOCK + 1), seed=st.integers(0, 2 ** 32 - 1),
       bad=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                              st.floats(0, 1, exclude_max=True),
                              st.sampled_from([np.inf, -np.inf, np.nan])),
                    max_size=3))
# the step blocks' edges: one short block, one whole, one and a step, and
# two and a short tail, each clipping and some with a bad shock there
@example(spec=_EULER_SPECS[0], m=5, n=_BLOCK - 1, seed=1, bad=[])
@example(spec=_EULER_SPECS[1], m=4, n=_BLOCK, seed=2,
         bad=[(0.5, _at_step(_BLOCK - 1, _BLOCK), np.inf)])
@example(spec=_EULER_SPECS[3], m=3, n=_BLOCK + 1, seed=3,
         bad=[(0.0, _at_step(_BLOCK, _BLOCK + 1), np.nan)])
@example(spec=_EULER_SPECS[0], m=6, n=2 * _BLOCK + 3, seed=4, bad=[])
@example(spec=_EULER_SPECS[1], m=6, n=2 * _BLOCK + 3, seed=5,
         bad=[(0.9, _at_step(2 * _BLOCK, 2 * _BLOCK + 3), -np.inf),
              (0.4, _at_step(_BLOCK + 7, 2 * _BLOCK + 3), np.nan)])
def test_euler_matches_the_per_step_reference(spec, m, n, seed, bad):
    grid = Grid(n=n, T=1.0)
    zeta = np.random.default_rng(seed).standard_normal((m, n))
    for path, step, value in bad:
        zeta[int(path * m), int(step * n)] = value
    try:
        want, clips = _euler_reference(spec, zeta, grid)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError) as got:
            euler_diffusion(spec, zeta, grid)
        assert str(got.value) == str(exc)
        return
    out = euler_diffusion(spec, zeta, grid)
    assert out.values.tobytes() == want.tobytes()
    assert out.stats["domain_clips"] == clips


def test_euler_takes_a_shock_row_as_one_path():
    grid = Grid(n=_BLOCK + 3, T=1.0)
    row = _gauss(1, grid.n, seed=6).zeta[0]
    out = euler_diffusion(_cir_spec(xi=0.6), row, grid)
    want = euler_diffusion(_cir_spec(xi=0.6), row[None, :], grid)
    assert out.values.shape == (1, grid.n + 1)
    assert out.values.tobytes() == want.values.tobytes()
    assert out.stats == want.stats


@pytest.mark.parametrize("driver", ["brownian", _cir_spec()],
                         ids=["brownian", "cir"])
def test_a_volterra_path_of_one_shock_row_counts_one_scheme_row(driver):
    grid = Grid(n=4, T=1.0)
    out = rdonsker_volterra(riemann_liouville(hurst=0.2), driver,
                            np.zeros(4), grid, "left_point")
    assert out.values.shape == (1, 5)
    assert out.stats["scheme_rows"] == 1


_CLIP_VALUES = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1.5,
                0.04, 2.0]


@pytest.mark.parametrize("domain", [(None, None), (0.0, None), (-0.0, None),
                                    (None, 1.5), (None, -0.0), (-0.2, 0.4),
                                    (-0.0, 0.0), (0.0, 0.0), (-np.inf, np.inf)],
                         ids=lambda domain: "{}..{}".format(*domain))
def test_clip_is_bitwise_np_clip(domain):
    spec = DiffusionSpec(drift=lambda y: y, diffusion=lambda y: y, y0=0.0,
                         domain=domain)
    lo, hi = domain
    states = np.array(_CLIP_VALUES)
    want = np.clip(states, lo, hi)
    assert spec.clip(states).tobytes() == want.tobytes()
    out = np.full_like(states, 7.0)
    got = spec.clip(states, out=out)
    if lo is None and hi is None:  # the state itself, `out` untouched
        assert got is states and np.all(out == 7.0)
    else:
        assert got is out
    assert got.tobytes() == want.tobytes()
    for value in _CLIP_VALUES:  # the scalars a tree's levels pass
        scalar = np.float64(value)
        got, want = spec.clip(scalar), np.clip(scalar, lo, hi)
        assert type(got) is type(want) is np.float64
        assert got.tobytes() == want.tobytes()


def test_empty_diffusion_domain_is_refused():
    with pytest.raises(ValueError, match=r"domain \(1.0, 0.0\) is empty"):
        DiffusionSpec(drift=lambda y: y, diffusion=lambda y: y, y0=0.5,
                      domain=(1.0, 0.0))


def check_diffusion_coefficients(spec: DiffusionSpec, lo: float, hi: float,
                                 c_b: float, c_a: float, num: int = 128) -> bool:
    """Sampled regularity check on [lo, hi].

    Verifies |b(x)-b(y)| <= C_b|x-y| and |a(x)-a(y)| <= C_a*sqrt|x-y|
    on all pairs of a `num`-point grid (the standard coefficient
    assumption, asserted by the caller rather than proved).
    """
    xs = np.linspace(lo, hi, num)
    bx = np.asarray(spec.drift(xs), dtype=float)
    ax = np.asarray(spec.diffusion(xs), dtype=float)
    dx = np.abs(xs[:, None] - xs[None, :])
    tol = 1e-12
    ok_b = np.all(np.abs(bx[:, None] - bx[None, :]) <= c_b * dx + tol)
    ok_a = np.all(np.abs(ax[:, None] - ax[None, :]) <= c_a * np.sqrt(dx) + tol)
    return bool(ok_b and ok_a)


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


def _whole_batch_fft(weights, increments):
    # one rfft/irfft of the whole batch, zero-padded to a power of two
    # >= 2n - 1: the convolution before it was cut into row blocks
    n = increments.shape[1]
    size = 1 << (2 * n - 2).bit_length()
    spectrum = sfft.rfft(increments, size, axis=1) * sfft.rfft(weights, size)
    return sfft.irfft(spectrum, size, axis=1)[:, :n]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 300), rows=st.integers(1, 40),
       block=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
       scaled=st.booleans())
@example(n=1, rows=1, block=1, seed=0, scaled=False)     # a single row
@example(n=17, rows=13, block=5, seed=1, scaled=True)    # a short last block
@example(n=256, rows=37, block=8, seed=2, scaled=True)   # many blocks
@example(n=255, rows=3, block=9, seed=3, scaled=False)   # fewer rows than a block
def test_blocked_fft_is_the_whole_batch_fft_and_matches_naive(n, rows, block,
                                                              seed, scaled):
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(n)
    increments = rng.standard_normal((rows, n))
    grid = Grid(n=n, T=1.0)
    # a scale applied block by block is the same multiply as scaling first
    scale = np.sqrt(grid.dt) if scaled else None
    dy = scale * increments if scaled else increments
    size = 1 << (2 * n - 2).bit_length()
    saved = volterra._FFT_BLOCK_BYTES
    volterra._FFT_BLOCK_BYTES = 8 * size * block  # `block` rows per block
    try:
        got = convolve_gfo(weights, increments, grid, method="fft",
                           scale=scale).values
    finally:
        volterra._FFT_BLOCK_BYTES = saved
    assert got.tobytes() == np.hstack(
        [np.zeros((rows, 1)), _whole_batch_fft(weights, dy)]).tobytes()
    naive = convolve_gfo(weights, increments, grid, method="naive",
                         scale=scale).values
    assert naive.tobytes() == convolve_gfo(weights, dy, grid,
                                           method="naive").values.tobytes()
    assert np.abs(got - naive).max() < 1e-9  # criterion 2's tolerance


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 300),
       block_bytes=st.integers(1, 1 << 16), seed=st.integers(0, 2 ** 32 - 1),
       method=st.sampled_from(("fft", "naive")), scaled=st.booleans())
@example(m=1, n=1, block_bytes=1, seed=0, method="fft", scaled=False)
@example(m=37, n=256, block_bytes=8 * 512 * 8, seed=1, method="fft",
         scaled=True)  # 8-row blocks and a short last one
def test_levels_convolved_in_place_are_the_convolution_of_their_diff(
        m, n, block_bytes, seed, method, scaled):
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(n)
    levels = np.cumsum(rng.standard_normal((m, n + 1)), axis=1)
    grid = Grid(n=n, T=1.0)
    scale = np.sqrt(grid.dt) if scaled else None
    saved = volterra._FFT_BLOCK_BYTES
    volterra._FFT_BLOCK_BYTES = block_bytes
    try:
        expected = convolve_gfo(weights, np.diff(levels, axis=1), grid,
                                method=method, scale=scale).values
        got = convolve_gfo(weights, levels, grid, method=method, scale=scale,
                           levels=True).values
    finally:
        volterra._FFT_BLOCK_BYTES = saved
    assert got is levels  # written over the levels
    assert got.tobytes() == expected.tobytes()


def test_a_diffusion_driven_volterra_path_is_its_euler_array():
    # the Euler levels are differenced and convolved in place: the scheme
    # returns the array the Euler stage filled, bitwise the convolution of
    # its increments
    grid = Grid(n=64, T=1.0)
    zeta = _gauss(40, 64, seed=3).zeta
    kernel = riemann_liouville(hurst=0.2)
    filled = []
    euler = volterra.euler_diffusion

    def recording(*args):
        out = euler(*args)
        filled.append(out.values)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(volterra, "euler_diffusion", recording)
        got = rdonsker_volterra(kernel, _cir_spec(), zeta, grid,
                                eval_mode="left_point")
    assert got.values is filled[0]
    increments = np.diff(euler_diffusion(_cir_spec(), zeta, grid).values,
                         axis=1)
    weights = volterra.left_point_weights(kernel, grid)
    assert got.values.tobytes() == convolve_gfo(weights, increments,
                                                grid).values.tobytes()


def test_fft_at_the_default_block_size_is_the_whole_batch_fft():
    # n = 2048 gives 32-row blocks: 70 rows are two full blocks and a short one
    rng = np.random.default_rng(11)
    weights = rng.standard_normal(2048)
    increments = rng.standard_normal((70, 2048))
    got = convolve_gfo(weights, increments, Grid(n=2048, T=1.0)).values
    np.testing.assert_array_equal(got[:, 0], 0.0)
    assert got[:, 1:].tobytes() == _whole_batch_fft(weights,
                                                    increments).tobytes()


def test_fft_convolution_memory_stays_bounded():
    # numpy reports its allocations to tracemalloc: past the output, the
    # convolution holds only a few blocks' arrays at a time (the padded
    # input, its spectrum and the inverse: about 4 budgets), where one
    # transform of the whole batch held three spectra of 134 MB each. The
    # rDonsker scheme with a Brownian driver scales its increments inside
    # the block loop, so it holds no scaled copy of the shocks either.
    m, n = 4096, 2048
    rng = np.random.default_rng(5)
    weights = rng.standard_normal(n)
    increments = rng.standard_normal((m, n))
    grid = Grid(n=n, T=1.0)
    for convolve in (
            lambda: convolve_gfo(weights, increments, grid),
            lambda: rdonsker_volterra(riemann_liouville(hurst=0.1), "brownian",
                                      increments, grid)):
        tracemalloc.start()
        try:
            out = convolve()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.values.nbytes == 8 * m * (n + 1)
        assert peak <= out.values.nbytes + 6 * volterra._FFT_BLOCK_BYTES
        del out


# ----------------------------------------------------------------------
# finiteness: one check where an array is produced, errors name the cause
# ----------------------------------------------------------------------

def test_nonfinite_path_set_names_tag_path_and_time_index():
    values = np.zeros((3, 5))
    values[1, 3] = np.nan
    values[2, 1] = np.inf
    with pytest.raises(ValueError, match="mytag paths are not finite: path 1, "
                                         "time index 3 is nan"):
        PathSet(values=values, grid=Grid(n=4, T=1.0), scheme_tag="mytag")


def test_nonfinite_convolution_input_is_named():
    increments = np.ones((4, 6))
    increments[2, 3] = np.inf
    with pytest.raises(ValueError, match="conv:naive paths are not finite: "
                                         "path 2, time index 4 is"):
        convolve_gfo(np.ones(6), increments, Grid(n=6, T=1.0), method="naive")
    with pytest.warns(RuntimeWarning), \
            pytest.raises(ValueError, match="conv:fft paths are not finite: "
                                            "path 2, time index"):
        convolve_gfo(np.ones(6), increments, Grid(n=6, T=1.0), method="fft")


def test_nonfinite_loaded_file_is_named(tmp_path):
    grid = Grid(n=3, T=1.0)
    values = np.zeros((2, 4))
    ps = PathSet(values=values, grid=grid, scheme_tag="rdonsker_matched")
    values[1, 2] = -np.inf
    fn = tmp_path / "p.bin"
    save_binary(ps, fn)
    with pytest.raises(ValueError, match="loaded paths are not finite: path 1, "
                                         "time index 2 is -inf"):
        load_binary(fn)


def test_finite_values_whose_sum_overflows_pass_the_check():
    check_finite(np.full((2, 3), 1e308), "big")
    with pytest.raises(ValueError, match="path 1, time index 0 is nan"):
        check_finite(np.array([[1e308, 1e308], [np.nan, 0.0]]), "big")


@pytest.mark.parametrize("scheme,group,checks", [
    ("rdonsker_matched", 4, 2),   # convolution, variance
    ("rdonsker_left", 1, 2),      # convolution, variance
    ("hybrid", 4, 3),             # convolution, with c2 * eta added, variance
])
def test_each_smile_array_is_checked_once(monkeypatch, scheme, group, checks):
    from roughsim import models
    from roughsim.models import RoughBergomi
    from roughsim.pricing import MCConfig, smile
    seen = []

    def counting(values, *args, **kwargs):
        seen.append((values.__array_interface__["data"][0], values.copy()))
        return check_finite(values, *args, **kwargs)

    monkeypatch.setattr(volterra, "check_finite", counting)
    monkeypatch.setattr(models, "check_finite", counting)
    model = RoughBergomi(xi0=0.04, nu=1.5, hurst=0.1, rho=-0.7)
    smile(model, MCConfig(num_paths=64, grid=Grid(n=16, T=1.0), scheme=scheme,
                          antithetic=group > 1, seed=4), [0.9, 1.0, 1.1])
    assert len(seen) == checks
    # no array is checked twice (the hybrid adds c2 * eta in place to the
    # checked convolution, so that address holds new values)
    for i, (address, values) in enumerate(seen):
        for other, again in seen[i + 1:]:
            assert address != other or not np.array_equal(values, again)


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


def test_hybrid_history_sum_runs_by_the_requested_method(monkeypatch):
    # the hybrid's convolution is the FFT one; run by the naive oracle
    # instead, the paths agree to rounding
    grid = Grid(n=32, T=1.0)
    shocks = draw_shocks(NoiseConfig(paths=16, steps=32, rho=-0.7, seed=3,
                                     antithetic=True))
    kernel = riemann_liouville(hurst=0.1)

    def paths():
        return scheme_paths(kernel, "brownian", shocks.zeta, grid, "hybrid",
                            seed=3,
                            antithetic_group=shocks.antithetic_group).values

    fft = paths()
    real, methods = volterra.convolve_gfo, []

    def naive(*args, method="fft", **kwargs):
        methods.append(method)
        return real(*args, method="naive", **kwargs)

    monkeypatch.setattr(volterra, "convolve_gfo", naive)
    np.testing.assert_allclose(paths(), fft, rtol=0.0, atol=1e-12)
    assert methods == ["fft"]


@pytest.mark.parametrize("hurst", [0.05, 0.1, 0.3, 0.75])
def test_hybrid_weights_are_the_cell_means_of_g(hurst):
    # each lag cell's mean of g by quadrature, lag 1 included; lag 1's is
    # the covariance of the nearest cell's exact integral with its increment
    alpha, grid = hurst - 0.5, Grid(n=8, T=1.0)
    dt = grid.dt
    means = [quad(lambda u: u ** alpha, (k - 1) * dt, k * dt, epsabs=0.0,
                  epsrel=2e-14, limit=200)[0] / dt
             for k in range(1, grid.n + 1)]
    weights = _hybrid_weights(alpha, grid)
    np.testing.assert_allclose(weights, means, rtol=1e-13, atol=0.0)
    assert weights[0] == dt ** alpha / (alpha + 1.0)


@pytest.mark.parametrize("hurst, seed", [(0.05, 1), (0.1, 2), (0.3, 3),
                                         (0.75, 4)])
def test_hybrid_covariance_is_its_closed_form_law(hurst, seed):
    # Z = T xi + c2 eta: T the lower-triangular Toeplitz matrix of the
    # weights, so Cov(Z) = dt T T' + c2^2 I. Each sample covariance entry
    # is judged by its standard error sqrt((S_ii S_jj + S_ij^2) / M)
    grid, m = Grid(n=8, T=1.0), 50_000
    alpha, dt = hurst - 0.5, grid.dt
    weights = _hybrid_weights(alpha, grid)
    toeplitz = np.tril(weights[np.subtract.outer(np.arange(8), np.arange(8))])
    c2_sq = dt ** (2 * alpha + 1.0) / (2 * alpha + 1.0) - weights[0] ** 2 * dt
    law = dt * toeplitz @ toeplitz.T + c2_sq * np.eye(8)
    z = hybrid_scheme_rl(hurst, _gauss(m, 8, seed=seed).zeta, grid,
                         seed=seed).values[:, 1:]
    sample = np.cov(z, rowvar=False)
    var = np.diag(sample)
    stderr = np.sqrt((np.outer(var, var) + sample ** 2) / m)
    assert np.max(np.abs(sample - law) / stderr) < 4.5


def test_hybrid_validation():
    grid = Grid(n=4, T=1.0)
    with pytest.raises(ValueError):
        hybrid_scheme_rl(0.0, np.zeros((2, 4)), grid, seed=1)
    with pytest.raises(ValueError):
        hybrid_scheme_rl(1.0, np.zeros((2, 4)), grid, seed=1)
    with pytest.raises(ValueError, match="antithetic_group"):
        hybrid_scheme_rl(0.3, np.zeros((3, 4)), grid, seed=1, antithetic_group=3)
    with pytest.raises(ValueError, match="whole number"):
        hybrid_scheme_rl(0.3, np.zeros((6, 4)), grid, seed=1, antithetic_group=4)


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


@pytest.mark.parametrize("keep", [
    3,        # inside the magic
    5 + 9,    # inside the 16-byte header
    21 + 8,   # a whole number of values, too few of them
    21 + 13,  # a data section that is not whole values
    None,     # one byte too many
])
def test_damaged_binary_file_is_refused_by_name(tmp_path, keep):
    grid = Grid(n=2, T=1.0)
    fn = tmp_path / "paths.bin"
    save_binary(PathSet(values=np.ones((2, 3)), grid=grid,
                        scheme_tag="rdonsker_matched"), fn)
    raw = fn.read_bytes()
    fn.write_bytes(raw + b"\0" if keep is None else raw[:keep])
    with pytest.raises(ValueError, match="bad magic" if keep == 3
                       else "truncated path-set file"):
        load_binary(fn)


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
    cfg = NoiseConfig(paths=16, steps=16, rho=-0.7, seed=29, antithetic=True)
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


def _hybrid_reference(hurst, shocks, grid, seed, group, offset):
    # the hybrid scheme row by row on every row: each row's own increments,
    # and its group's auxiliary normals with the row's sign
    alpha, dt = hurst - 0.5, grid.dt
    c1 = dt ** alpha / (alpha + 1.0)
    c2 = np.sqrt(max(dt ** (2 * alpha + 1.0) / (2 * alpha + 1.0)
                     - c1 * c1 * dt, 0.0))
    weights = _hybrid_weights(alpha, grid)
    out = np.empty((shocks.shape[0], grid.n + 1))
    for r, row in enumerate(shocks):
        sign = 1.0 if r % group < group // 2 else -1.0
        eta = path_rng(seed, offset + r // group, STREAM_HYBRID_AUX) \
            .standard_normal(grid.n)
        xi = np.sqrt(dt) * row[None, :]
        out[r] = convolve_gfo(weights, xi, grid).values[0]
        out[r, 1:] += c2 * (sign * eta)
    return out


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(SCHEMES),
       rho=st.one_of(st.sampled_from([-1.0, 1.0]),
                     st.floats(-0.99, 0.99, allow_nan=False)),
       hurst=st.floats(0.02, 0.98), base_paths=st.integers(1, 6),
       n=st.integers(1, 12), seed=_STREAM_SEEDS, offset=st.integers(0, 2 ** 40),
       broken=st.integers(0, 10 ** 6))
def test_mirrored_scheme_rows_are_the_row_by_row_paths(scheme, rho, hurst,
                                                      base_paths, n, seed,
                                                      offset, broken):
    # the scheme runs on the + half of each antithetic group; every row
    # must still be bitwise what running it on that row alone gives
    group = 2 if abs(rho) == 1.0 else 4
    half = group // 2
    grid = Grid(n=n, T=1.0)
    kernel = riemann_liouville(hurst=hurst)
    zeta = draw_shocks(NoiseConfig(paths=group * base_paths, steps=n, rho=rho,
                                   seed=seed, antithetic=True)).zeta
    got = scheme_paths(kernel, "brownian", zeta, grid, scheme, seed=seed,
                       antithetic_group=group, base_offset=offset)
    if scheme == "hybrid":
        want = _hybrid_reference(hurst, zeta, grid, seed, group, offset)
    else:
        mode = "moment_matched" if scheme == "rdonsker_matched" else "left_point"
        want = rdonsker_volterra(kernel, "brownian", zeta, grid,
                                 eval_mode=mode).values
    assert got.values.tobytes() == want.tobytes()  # signed zeros included
    paths = got.values.reshape(base_paths, group, n + 1)
    np.testing.assert_array_equal(paths[:, half:], -paths[:, :half])
    assert got.stats["scheme_rows"] == base_paths * half
    # a - row that does not negate its + row is named
    row = (broken % base_paths) * group + half + broken % half
    bad = zeta.copy()
    bad[row, broken % n] += 1.0
    with pytest.raises(ValueError, match=f"antithetic row {row} is not the "
                                         f"negation of row {row - half}"):
        scheme_paths(kernel, "brownian", bad, grid, scheme, seed=seed,
                     antithetic_group=group, base_offset=offset)


@pytest.mark.parametrize("group", [2, 4])
def test_a_mirrored_scheme_names_the_row_of_the_whole_set(group, monkeypatch):
    # the hybrid runs on the + half of each group; its non-finite error
    # names the row of the full set, as a run on every row does. The naive
    # convolution keeps the inf at its time index, where the FFT spreads it
    real = volterra.convolve_gfo
    monkeypatch.setattr(volterra, "convolve_gfo", lambda *args, **kwargs:
                        real(*args, **{**kwargs, "method": "naive"}))
    grid = Grid(n=6, T=1.0)
    half = group // 2
    plus = np.random.default_rng(9).standard_normal((4, half, 6))
    zeta = np.concatenate([plus, -plus], axis=1).reshape(-1, 6)
    row = 2 * group + half - 1  # the last + row of the third group
    zeta[row, 3] = np.inf
    zeta[row + half, 3] = -np.inf
    messages = []
    for antithetic_group in (1, group):
        with pytest.raises(ValueError, match="paths are not finite") as err:
            hybrid_scheme_rl(0.3, zeta, grid, seed=5,
                             antithetic_group=antithetic_group)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert f"path {row}, time index 4 is" in messages[1]


def test_diffusion_driver_rows_are_not_mirrored():
    # an Euler-stepped driver is not odd in its shocks: every row is run
    grid = Grid(n=8, T=1.0)
    zeta = draw_shocks(NoiseConfig(paths=8, steps=8, rho=-0.7, seed=3,
                                   antithetic=True)).zeta
    got = scheme_paths(riemann_liouville(hurst=0.3), _cir_spec(), zeta, grid,
                       "rdonsker_left", antithetic_group=4)
    want = rdonsker_volterra(riemann_liouville(hurst=0.3), _cir_spec(), zeta,
                             grid, eval_mode="left_point")
    np.testing.assert_array_equal(got.values, want.values)
    assert got.stats["scheme_rows"] == 8
