"""Correlated shock generation, antithetic expansion, stream reproducibility."""

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughsim._config import set_threads
from roughsim.kernels import Grid
from roughsim.shocks import (
    STREAM_CHOLESKY,
    STREAM_HYBRID_AUX,
    STREAM_SHOCKS,
    NoiseConfig,
    ShockMatrices,
    antithetic_expand,
    draw_shocks,
    path_normals,
    path_rng,
)
from roughsim.volterra import hybrid_scheme_rl

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _cfg(**kw):
    base = dict(paths=16, steps=8, rho=0.0, seed=42, antithetic=False)
    base.update(kw)
    return NoiseConfig(**base)


@contextmanager
def _path_rng_calls():
    """The paths that `shocks.path_rng`, looked up by name, keys in the block."""
    import roughsim.shocks as shocks
    real, calls = shocks.path_rng, []

    def counting(seed, path, *args, **kwargs):
        calls.append(path)
        return real(seed, path, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shocks, "path_rng", counting)
        yield calls


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

def test_config_validation():
    _cfg()  # fine
    with pytest.raises(ValueError):
        _cfg(rho=1.5)
    with pytest.raises(ValueError):
        _cfg(paths=0)
    with pytest.raises(ValueError):
        _cfg(antithetic=True, paths=6, rho=-0.5)  # needs M % 4 == 0
    _cfg(antithetic=True, paths=6, rho=-1.0)      # pairs allowed at |rho| = 1
    with pytest.raises(ValueError):
        _cfg(antithetic=True, paths=5, rho=-1.0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2.5, 2.0, True, "3", None,
                                  np.float64(4.0)])
def test_bad_seed_is_rejected_by_name(seed):
    with pytest.raises(ValueError, match="seed"):
        _cfg(seed=seed)
    with pytest.raises(ValueError, match="seed"):
        path_rng(seed, 0)
    with _path_rng_calls() as keyed, pytest.raises(ValueError, match="seed"):
        path_normals(seed, 0, 1, (2,))
    assert keyed == []


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1),
                                  np.int32(7)])
def test_every_64_bit_seed_is_accepted(seed):
    _cfg(seed=seed)
    expect = path_rng(int(seed), 3).standard_normal(4)
    np.testing.assert_array_equal(path_rng(seed, 3).standard_normal(4), expect)


def test_reused_generator_is_rekeyed_in_place():
    rng = path_rng(1, 0)
    rng.random(3, dtype=np.float32)  # leaves half a 64-bit word buffered
    assert rng.bit_generator.state["has_uint32"] == 1
    again = path_rng(5, 3, STREAM_CHOLESKY, reuse=rng)
    assert again is rng
    fresh = path_rng(5, 3, STREAM_CHOLESKY)
    np.testing.assert_array_equal(again.random(5, dtype=np.float32),
                                  fresh.random(5, dtype=np.float32))
    with pytest.raises(ValueError, match="seed"):
        path_rng(-1, 0, reuse=rng)


def test_every_drawn_path_is_keyed_through_path_rng(monkeypatch):
    # one `shocks.path_rng` call per base path, looked up by name, so the
    # traced benchmark's wrapper counts and times every per-path generator
    import roughsim.shocks as shocks
    real, keyed = shocks.path_rng, []

    def counting(seed, path, stream=STREAM_SHOCKS, **kwargs):
        keyed.append((path, stream))
        return real(seed, path, stream, **kwargs)

    monkeypatch.setattr(shocks, "path_rng", counting)
    draw_shocks(_cfg(paths=16, antithetic=True), base_range=(1, 3))
    assert keyed == [(1, STREAM_SHOCKS), (2, STREAM_SHOCKS)]


# ----------------------------------------------------------------------
# moments and correlation
# ----------------------------------------------------------------------

def test_rho_one_ties_shocks():
    s = draw_shocks(_cfg(rho=1.0, paths=32))
    np.testing.assert_array_equal(s.xi, s.zeta)
    s = draw_shocks(_cfg(rho=-1.0, paths=32))
    np.testing.assert_array_equal(s.xi, -s.zeta)


def test_empirical_correlation_sweep():
    m = 100_000
    for rho in (-1.0, -0.7, 0.0, 0.7, 1.0):
        s = draw_shocks(_cfg(paths=m, steps=1, rho=rho, seed=3))
        z = s.zeta[:, 0]
        x = s.xi[:, 0]
        corr = np.mean(z * x) / np.sqrt(np.mean(z * z) * np.mean(x * x))
        assert abs(corr - rho) < 3 / np.sqrt(m)


def test_moments():
    s = draw_shocks(_cfg(paths=50_000, steps=4, seed=9))
    assert abs(s.zeta.mean()) < 3 / np.sqrt(s.zeta.size)
    assert abs(s.zeta.var() - 1.0) < 3 * np.sqrt(2.0 / s.zeta.size)


# ----------------------------------------------------------------------
# reproducibility and stream extensibility
# ----------------------------------------------------------------------

def test_bitwise_reproducible():
    a = draw_shocks(_cfg(seed=123, paths=64, steps=32, rho=-0.4))
    b = draw_shocks(_cfg(seed=123, paths=64, steps=32, rho=-0.4))
    np.testing.assert_array_equal(a.zeta, b.zeta)
    np.testing.assert_array_equal(a.xi, b.xi)
    c = draw_shocks(_cfg(seed=124, paths=64, steps=32, rho=-0.4))
    assert not np.array_equal(a.zeta, c.zeta)


def test_path_count_extension_keeps_prefix():
    # per-path streams: growing M must not perturb earlier paths
    small = draw_shocks(_cfg(paths=8, steps=16, seed=7, rho=0.5))
    big = draw_shocks(_cfg(paths=32, steps=16, seed=7, rho=0.5))
    np.testing.assert_array_equal(big.zeta[:8], small.zeta)
    np.testing.assert_array_equal(big.xi[:8], small.xi)


def test_antithetic_extension_keeps_prefix():
    small = draw_shocks(_cfg(paths=8, steps=4, seed=5, rho=-0.6, antithetic=True))
    big = draw_shocks(_cfg(paths=16, steps=4, seed=5, rho=-0.6, antithetic=True))
    np.testing.assert_array_equal(big.zeta[:8], small.zeta)
    np.testing.assert_array_equal(big.xi[:8], small.xi)


# ----------------------------------------------------------------------
# antithetic expansion
# ----------------------------------------------------------------------

def test_antithetic_expand_zero_base():
    out = antithetic_expand(np.zeros((2, 3)), np.zeros((2, 3)), rho=-0.7)
    assert out.zeta.shape == (8, 3)
    np.testing.assert_array_equal(out.zeta, 0.0)
    np.testing.assert_array_equal(out.xi, 0.0)


def test_zero_rows_mirror_to_positive_zeros(monkeypatch):
    # every negated antithetic half is 0 - x, so a +0.0 row stays +0.0 in
    # both halves (np.negative would give -0.0): the four variates, the
    # |rho| = 1 pairs of `draw_shocks` and the Volterra paths of `_mirrored`
    import roughsim.shocks as shocks
    from roughsim.volterra import PathSet, _mirrored

    def positive_zeros(a):
        return a.tobytes() == np.zeros(a.shape).tobytes()

    four = antithetic_expand(np.zeros((2, 3)), np.zeros((2, 3)), rho=0.7)
    monkeypatch.setattr(shocks, "path_normals", lambda seed, start, stop,
                        shape, stream=STREAM_SHOCKS:
                        np.zeros((stop - start, *shape)))
    two = draw_shocks(_cfg(paths=4, steps=3, rho=1.0, antithetic=True))
    grid = Grid(n=3, T=1.0)
    for group in (2, 4):
        paths = _mirrored(lambda rows: PathSet(
            values=np.zeros((rows.shape[0], 4)), grid=grid, scheme_tag="zero"),
            np.zeros((2 * group, 3)), group)
        assert paths.values.shape == (2 * group, 4)
        assert positive_zeros(paths.values)
    for shock in (four, two):
        assert positive_zeros(shock.zeta) and positive_zeros(shock.xi)


def test_antithetic_expand_tuples():
    rng = np.random.default_rng(0)
    zeta_b = rng.standard_normal((3, 5))
    xi_b = rng.standard_normal((3, 5))
    rho = -0.7
    rhobar = np.sqrt(1 - rho ** 2)
    out = antithetic_expand(zeta_b, xi_b, rho=rho)
    assert out.antithetic_group == 4
    for b in range(3):
        z, x = zeta_b[b], xi_b[b]
        np.testing.assert_allclose(out.zeta[4 * b + 0], rho * x + rhobar * z)
        np.testing.assert_allclose(out.zeta[4 * b + 1], rho * x - rhobar * z)
        np.testing.assert_allclose(out.zeta[4 * b + 2], -rho * x - rhobar * z)
        np.testing.assert_allclose(out.zeta[4 * b + 3], -rho * x + rhobar * z)
        np.testing.assert_allclose(out.xi[4 * b + 0], x)
        np.testing.assert_allclose(out.xi[4 * b + 1], x)
        np.testing.assert_allclose(out.xi[4 * b + 2], -x)
        np.testing.assert_allclose(out.xi[4 * b + 3], -x)


def test_antithetic_expand_rho_zero_sign_flips():
    rng = np.random.default_rng(1)
    zeta_b = rng.standard_normal((2, 4))
    out = antithetic_expand(zeta_b, rng.standard_normal((2, 4)), rho=0.0)
    for b in range(2):
        np.testing.assert_allclose(out.zeta[4 * b + 0], zeta_b[b])
        np.testing.assert_allclose(out.zeta[4 * b + 1], -zeta_b[b])
        np.testing.assert_allclose(out.zeta[4 * b + 2], -zeta_b[b])
        np.testing.assert_allclose(out.zeta[4 * b + 3], zeta_b[b])


def test_noise_group_is_the_rows_of_each_base_path():
    for antithetic, rho, group in ((False, -1.0, 1), (True, -0.7, 4),
                                   (True, 1.0, 2)):
        config = _cfg(paths=12, antithetic=antithetic, rho=rho)
        assert config.group == group
        assert draw_shocks(config).antithetic_group == group
        assert draw_shocks(config, base_range=(0, 1)).zeta.shape[0] == group
        if group > 1:
            with pytest.raises(ValueError, match=f"group of {group}, got 13"):
                _cfg(paths=13, antithetic=antithetic, rho=rho)


def test_antithetic_group_sums_vanish():
    s = draw_shocks(_cfg(paths=32, steps=8, rho=-0.7, antithetic=True, seed=17))
    assert s.antithetic_group == 4
    # signs cancel pairwise by construction: variate 3 = -variate 1,
    # variate 4 = -variate 2, bitwise, so the pairwise group sum is exactly 0
    np.testing.assert_array_equal(s.zeta[2::4], -s.zeta[0::4])
    np.testing.assert_array_equal(s.zeta[3::4], -s.zeta[1::4])
    np.testing.assert_array_equal(s.xi[2::4], -s.xi[0::4])
    np.testing.assert_array_equal(s.xi[3::4], -s.xi[1::4])
    grouped_z = (s.zeta[0::4] + s.zeta[2::4]) + (s.zeta[1::4] + s.zeta[3::4])
    grouped_x = (s.xi[0::4] + s.xi[2::4]) + (s.xi[1::4] + s.xi[3::4])
    np.testing.assert_array_equal(grouped_z, 0.0)
    np.testing.assert_array_equal(grouped_x, 0.0)


def test_antithetic_pairs_at_rho_one():
    s = draw_shocks(_cfg(paths=16, steps=4, rho=-1.0, antithetic=True, seed=2))
    assert s.antithetic_group == 2
    np.testing.assert_array_equal(s.xi, -s.zeta)
    # pair structure: row 2b+1 = -(row 2b)
    np.testing.assert_array_equal(s.zeta[1::2], -s.zeta[0::2])


def test_antithetic_correlation_preserved():
    m = 100_000
    s = draw_shocks(_cfg(paths=m, steps=1, rho=-0.7, antithetic=True, seed=21))
    corr = np.mean(s.zeta * s.xi)
    assert abs(corr + 0.7) < 3 / np.sqrt(m)


def test_chunked_draw_matches_full():
    cfg = _cfg(paths=24, steps=6, rho=-0.5, antithetic=True, seed=33)
    full = draw_shocks(cfg)
    parts = [draw_shocks(cfg, base_range=(s, e)) for s, e in ((0, 2), (2, 3), (3, 6))]
    np.testing.assert_array_equal(np.vstack([p.zeta for p in parts]), full.zeta)
    np.testing.assert_array_equal(np.vstack([p.xi for p in parts]), full.xi)

    plain = _cfg(paths=10, steps=6, rho=-0.5, antithetic=False, seed=33)
    full_p = draw_shocks(plain)
    chunk = draw_shocks(plain, base_range=(4, 7))
    np.testing.assert_array_equal(chunk.zeta, full_p.zeta[4:7])
    np.testing.assert_array_equal(chunk.xi, full_p.xi[4:7])


def test_chunk_range_validated():
    cfg = _cfg(paths=8, steps=2, rho=0.0, antithetic=True, seed=1)
    with pytest.raises(ValueError):
        draw_shocks(cfg, base_range=(0, 3))
    with pytest.raises(ValueError):
        draw_shocks(cfg, base_range=(2, 2))


# ----------------------------------------------------------------------
# the re-keyed stream generator against the per-path reference
# ----------------------------------------------------------------------

_SEEDS = st.one_of(st.sampled_from([0, 2 ** 64 - 1]),
                   st.integers(0, 2 ** 64 - 1))


def _draw(rng, kind, shape):
    if kind == "normal":
        return rng.standard_normal(shape)
    return rng.integers(0, 2, size=shape)


@settings(max_examples=80, deadline=None)
@given(seed=_SEEDS, start=st.integers(0, 2 ** 48 - 8), count=st.integers(1, 7),
       shape=st.tuples(st.integers(1, 2), st.integers(1, 9)),
       stream=st.sampled_from([STREAM_SHOCKS, STREAM_HYBRID_AUX,
                               STREAM_CHOLESKY]),
       kind=st.sampled_from(["normal", "integers"]))
def test_a_reused_path_rng_draws_what_a_fresh_one_draws(seed, start, count,
                                                         shape, stream, kind):
    # an odd number of bounded integer draws leaves half a 64-bit word
    # buffered, which the re-key must discard as a fresh generator would
    # not have it
    rng, got = None, []
    for j in range(start, start + count):
        rng = path_rng(seed, j, stream, reuse=rng)
        got.append(_draw(rng, kind, shape))
    want = [_draw(path_rng(seed, j, stream), kind, shape)
            for j in range(start, start + count)]
    np.testing.assert_array_equal(got, want)
    if kind == "normal":
        np.testing.assert_array_equal(
            path_normals(seed, start, start + count, shape, stream), want)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, base_paths=st.integers(1, 8), steps=st.integers(1, 6),
       layout=st.sampled_from([(False, -0.5), (True, -0.7), (True, -1.0)]),
       cuts=st.lists(st.integers(1, 7), max_size=4))
def test_chunked_draws_concatenate_to_one_call(seed, base_paths, steps, layout,
                                               cuts):
    antithetic, rho = layout
    group = (2 if rho == -1.0 else 4) if antithetic else 1
    cfg = _cfg(paths=group * base_paths,
               steps=steps, rho=rho, seed=seed, antithetic=antithetic)
    full = draw_shocks(cfg)
    bounds = sorted({0, base_paths, *(c for c in cuts if c < base_paths)})
    parts = [draw_shocks(cfg, base_range=(a, b))
             for a, b in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(np.vstack([p.zeta for p in parts]), full.zeta)
    np.testing.assert_array_equal(np.vstack([p.xi for p in parts]), full.xi)


_BAD_PATHS = st.one_of(st.sampled_from([-1, 2 ** 48, 2 ** 64]),
                       st.integers(max_value=-1), st.integers(min_value=2 ** 48))


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS,
       keys=st.lists(st.tuples(st.sampled_from([STREAM_SHOCKS, STREAM_HYBRID_AUX,
                                                STREAM_CHOLESKY]),
                               st.one_of(st.sampled_from([0, 2 ** 48 - 1]),
                                         st.integers(0, 2 ** 48 - 1))),
                     min_size=2, max_size=8, unique=True),
       bad=_BAD_PATHS)
def test_stream_paths_have_distinct_keys_and_bounded_paths(seed, keys, bad):
    # the path index sits below the stream tag, so no (stream, path) pair
    # can alias another's key; an index that would reach the tag is refused
    drawn = {tuple(int(w) for w in path_rng(seed, path, stream)
                   .bit_generator.state["state"]["key"])
             for stream, path in keys}
    assert len(drawn) == len(keys)
    with pytest.raises(ValueError, match="path"):
        path_rng(seed, bad)
    # the whole range is checked before its first path is keyed
    with _path_rng_calls() as keyed:
        with pytest.raises(ValueError, match="path"):
            path_normals(seed, bad, bad + 1, (2,))
        with pytest.raises(ValueError, match="path"):
            path_normals(seed, 2 ** 48 - 1, 2 ** 48 + 1, (2,),
                         STREAM_HYBRID_AUX)
    assert keyed == []


def test_hybrid_base_offset_past_the_path_bound_is_refused():
    with pytest.raises(ValueError, match="path"):
        path_rng(7, 2 ** 48)
    with pytest.raises(ValueError, match="path"):
        hybrid_scheme_rl(0.1, np.zeros((4, 3)), Grid(n=3, T=1.0), seed=7,
                         antithetic_group=4, base_offset=2 ** 48)


@pytest.mark.parametrize("path", [1.0, True, "3", None])
def test_non_integer_path_is_rejected_by_name(path):
    with pytest.raises(ValueError, match="path"):
        path_rng(0, path)


# (build, parameter name, test id): build() must raise a ValueError naming
# the parameter; a NaN fails every comparison, so each check asks for the
# good case
_REFUSED = [pytest.param(*case[:2], id=case[-1]) for case in [
    (lambda: _cfg(steps=math.nan), "steps", "steps=nan"),
    (lambda: _cfg(paths=2.5), "paths", "paths=2.5"),
    (lambda: set_threads(2.5), "thread count", "threads=2.5"),
]]


@pytest.mark.parametrize("build, name", _REFUSED)
def test_nan_and_non_integer_inputs_are_refused_by_name(build, name):
    with pytest.raises(ValueError, match=name):
        build()


def test_stock_shocks_are_built_when_first_read():
    built = []

    def stock():
        built.append(1)
        return np.ones((2, 3))

    shocks = ShockMatrices(zeta=np.zeros((2, 3)), xi=stock)
    assert built == []
    np.testing.assert_array_equal(shocks.xi, 1.0)
    assert shocks.xi is shocks.xi and built == [1]
    with pytest.raises(ValueError, match="share a shape"):
        ShockMatrices(zeta=np.zeros((2, 3)), xi=lambda: np.ones((2, 4))).xi
    with pytest.raises(ValueError, match="share a shape"):
        ShockMatrices(zeta=np.zeros((2, 3)), xi=np.ones((3, 3)))


def test_drawn_normals_under_a_lazy_stock_matrix_are_read_only():
    config = NoiseConfig(paths=3, steps=4, rho=-0.7,
                         seed=3)
    shocks = draw_shocks(config)
    with pytest.raises(ValueError, match="read-only"):
        shocks.zeta[0, 0] = 1.0
    rhobar = np.sqrt(1.0 - 0.7 ** 2)
    first, second = (np.stack([path_rng(3, p).standard_normal((2, 4))[k]
                               for p in range(3)]) for k in (0, 1))
    np.testing.assert_array_equal(shocks.xi, -0.7 * first + rhobar * second)


def test_traced_benchmark_wraps_names_that_exist(monkeypatch):
    # the traced benchmark wraps module attributes by name (the per-path
    # generators as both `shocks.path_rng` and `volterra.path_rng`), so a
    # name it needs that goes missing fails here, not only there
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import layers
    import tracing
    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        wrapped = list(tracer._patched)
    finally:
        tracer.unwrap_all()
    assert {(module.__name__, attr) for module, attr, _ in wrapped} >= {
        ("roughsim.shocks", "path_rng"), ("roughsim.volterra", "path_rng")}
    for module, attr, original in wrapped:
        assert getattr(module, attr) is original, (module.__name__, attr)
