#!/usr/bin/env python3
"""SHA-256 of every seeded output of roughsim's public entry points.

    python3 tools/seeded_hashes.py                # this checkout's hashes
    python3 tools/seeded_hashes.py --parent HEAD  # and what differs from HEAD

Each output is computed at a small size and printed as `<sha256>  <name>`:
the shock matrices of `draw_shocks` in its three layouts, whole and in
chunks; `validation.sample_paths` for every sampler, and the naive
`convolve_gfo` oracle on the matched sampler's shocks and weights;
`bs_call` and `bs_put` on a grid of forwards, strikes and total
variances (zero variance and a deep out-of-the-money put among them),
called once per strike and once on a (3, 1) column of forwards and
variances against a row of 4 strikes, and `implied_vol` of some of those
calls; `squared_integral_profile` for a
Riemann-Liouville, a gamma and a power-law kernel; `smile` prices,
standard errors and implied vols for every scheme, model type, estimator
and antithetic setting;
the same smiles of 64 antithetic paths priced in 16-row chunks; a
9-strike put smile at rho = -1, where every conditional residual is zero
and every path is priced at its intrinsic value;
`simulate_logstock`; the tree levels, `replay_leaf`, American and
European prices and `exercise_counts`, European-only prices on fresh
trees and a clamping rough-Heston tree's clamp and clip counts;
`model_from_config` for each model type; the errors of a tree build
and of a smile (whole and in 16-row chunks) whose variance overflows;
and, on a grid of two Euler step blocks and 5 steps (n=133, every other
output is at n <= 8), a rough-Heston `rdonsker_left` smile and the
levels and `domain_clips` of a CIR `euler_diffusion`, both clipping. An
entry point that raises hashes its error message instead, so a refusal
that changes shows too.

With `--parent REV` the same outputs are also computed from the committed
tree of REV, extracted by `git archive` into a temporary directory, and
every output whose hash differs, or that only one side has, is listed;
the exit status is then 1 if any differs. Each side runs in its own
process, by its own copy of this tool where it has one, importing the
roughsim under its own `src/`. Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# `ab_pairs` sits next to this file, whether it runs as a script or is
# loaded from its path
sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_pairs import extract  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

MODEL_CONFIGS = {
    "rbergomi": {"type": "rbergomi", "xi0": [[0.0, 0.04], [0.5, 0.05]],
                 "nu": 1.2, "hurst": 0.1, "rho": -0.7},
    "gbergomi": {"type": "gbergomi", "xi0": 0.04, "nu": 0.8, "hurst": 0.3,
                 "rho": -0.5, "beta": 1.5, "spot": 2.0},
    "rheston_gjrs": {"type": "rheston_gjrs", "eta": 0.04, "kappa": 1.0,
                     "theta": 0.04, "xi": 0.1, "y0": 0.04, "hurst": 0.3,
                     "rho": -0.7},
}


def digest(value) -> str:
    """SHA-256 of a string, or of an array's dtype, shape and bytes."""
    if isinstance(value, str):
        data = value.encode()
    else:
        array = np.ascontiguousarray(value)
        data = f"{array.dtype.str}{array.shape}".encode() + array.tobytes()
    return hashlib.sha256(data).hexdigest()


def _outputs(rs):
    """(name, thunk) of every seeded output of the package `rs`."""
    from roughsim import pricing, validation

    # forwards x total variances, flattened; each strike prices all of them
    forwards, variances = (a.ravel() for a in np.meshgrid(
        [0.5, 0.9, 1.0, 1.1, 2.0], [0.0, 1e-4, 0.04, 0.25, 1.0]))
    for kind in ("call", "put"):
        price = getattr(rs, f"bs_{kind}")
        yield f"bs/{kind}", lambda price=price: np.stack([
            price(forwards, strike, variances) for strike in (0.5, 1.0, 2.0)])
        yield f"bs/{kind}/grid", lambda price=price: price(
            np.array([[0.5], [1.0], [2.0]]), np.array([0.5, 0.9, 1.0, 3.0]),
            np.array([[0.0], [0.04], [1.0]]))
    yield "implied_vol", lambda: np.array([
        _implied_vol(rs, rs.bs_call(1.0, strike, tv), strike)
        for strike in (0.5, 0.9, 1.0, 1.1, 2.0) for tv in (1e-4, 0.04, 0.25)])
    for name, kernel in (("rl", rs.riemann_liouville(hurst=0.1)),
                         ("gamma", rs.gamma_fractional(-0.4, -1.0)),
                         ("powerlaw", rs.power_law(-0.2, -2.5))):
        yield (f"squared_integral_profile/{name}",
               lambda kernel=kernel: rs.squared_integral_profile(
                   kernel, rs.Grid(n=8, T=1.0)))

    def noise(**kw):
        # a NoiseConfig that still names its shock law draws Gaussians
        if "distribution" in {f.name for f in dataclasses.fields(rs.NoiseConfig)}:
            kw["distribution"] = "gaussian"
        return rs.NoiseConfig(**kw)

    for layout, antithetic, rho in (("plain", False, -0.7),
                                    ("antithetic", True, -0.7),
                                    ("pairs", True, -1.0)):
        cfg = noise(paths=24, steps=6, rho=rho, seed=2 ** 64 - 5,
                    antithetic=antithetic)
        base = 24 // cfg.group
        for part in ("zeta", "xi"):
            yield (f"draw_shocks/{layout}/{part}",
                   lambda cfg=cfg, part=part: getattr(rs.draw_shocks(cfg), part))
            yield (f"draw_shocks/{layout}/chunked/{part}",
                   lambda cfg=cfg, part=part, base=base: np.vstack([
                       getattr(rs.draw_shocks(cfg, base_range=r), part)
                       for r in ((0, 1), (1, base // 2), (base // 2, base))]))

    grid = rs.Grid(n=8, T=1.0)
    kernel = rs.riemann_liouville(hurst=0.1)
    for sampler in validation.SAMPLERS:
        yield (f"sample_paths/{sampler}",
               lambda sampler=sampler: validation.sample_paths(
                   sampler, kernel, grid, 8, 17).values)
    yield "convolve_gfo/naive", lambda: rs.convolve_gfo(
        rs.optimal_eval_weights(kernel, grid),
        rs.draw_shocks(noise(paths=8, steps=grid.n, rho=0.0, seed=17)).zeta,
        grid, method="naive", scale=np.sqrt(grid.dt)).values

    models = {kind: lambda cfg=cfg: rs.model_from_config(cfg)
              for kind, cfg in MODEL_CONFIGS.items()}
    for kind, build in models.items():
        yield f"model_from_config/{kind}", lambda build=build: repr(build())

    for kind, build in models.items():
        for scheme in pricing.SCHEMES:
            for reduction in pricing.VARIANCE_REDUCTIONS:
                for antithetic in (False, True):
                    config = dict(num_paths=16, grid=grid, scheme=scheme,
                                  variance_reduction=reduction,
                                  antithetic=antithetic, seed=23)
                    name = f"smile/{kind}/{scheme}/{reduction}/" + (
                        "antithetic" if antithetic else "plain")
                    yield name, lambda build=build, config=config: np.stack(
                        _smile(rs, build(), config))
        # 64 antithetic paths priced in four chunks of 16 rows
        for scheme in pricing.SCHEMES:
            for reduction in pricing.VARIANCE_REDUCTIONS:
                config = dict(num_paths=64, grid=grid, scheme=scheme,
                              variance_reduction=reduction, antithetic=True,
                              seed=23)
                yield (f"smile/{kind}/{scheme}/{reduction}/antithetic/rows16",
                       lambda build=build, config=config: _in_chunks(
                           pricing, 16 * grid.n,
                           lambda: np.stack(_smile(rs, build(), config))))
        yield (f"simulate_logstock/{kind}",
               lambda build=build: rs.simulate_logstock(
                   build(), rs.MCConfig(num_paths=8, grid=grid, seed=5,
                                        scheme="rdonsker_left")).values)

    yield "smile/rbergomi/rho1/put9", lambda: np.stack(
        _put_smile_at_full_correlation(rs, models["rbergomi"](), grid))

    def fresh_tree(kind, branching):
        model = models[kind]()
        if branching == 2:
            model = dataclasses.replace(model, rho=-1.0)
        return rs.build_tree(rs.TreeConfig(model=model, depth=4, rate=0.02))

    tree = functools.lru_cache(maxsize=None)(fresh_tree)

    for kind in models:
        for b in ((2, 4) if kind == "rbergomi" else (4,)):
            name = f"tree/{kind}/b{b}"
            for field in ("log_stock", "variance", "driver_increments"):
                yield f"{name}/{field}", lambda kind=kind, b=b, field=field: \
                    np.concatenate([np.asarray(level) for level in
                                    getattr(tree(kind, b), field)
                                    if level is not None])
            yield f"{name}/replay_leaf", lambda kind=kind, b=b: np.array([
                rs.replay_leaf(tree(kind, b), leaf)
                for leaf in (0, b ** 4 // 3, b ** 4 - 1)])
            for payoff in (rs.call_payoff(1.05), rs.put_payoff(0.95)):
                yield f"{name}/{payoff.kind}", \
                    lambda kind=kind, b=b, payoff=payoff: _prices(
                        rs, tree(kind, b), payoff)
            # priced before any American pass could record them
            yield f"{name}/european_only", lambda kind=kind, b=b: np.array([
                rs.tree_price_european(fresh_tree(kind, b), payoff)
                for payoff in (rs.call_payoff(1.05),
                               lambda s: np.maximum(0.95 - s, 0.0))])

    # kappa dt = 3.75 overshoots the mean, so driver states are clipped,
    # and eta = 0.01 lets the variance clamp
    clamping = rs.RoughHestonGJRS(eta=0.01, kappa=10.0, theta=0.04,
                                  vol_of_vol=0.5, y0=0.5, hurst=0.3, rho=-0.7)
    yield "tree/rheston_gjrs/clamping/stats", lambda: np.array([
        rs.build_tree(rs.TreeConfig(model=clamping, depth=4, horizon=1.5))
        .stats[key] for key in ("clamp_cells", "domain_clips")])
    yield "tree/overflow/build_tree", lambda: _overflowing_tree(rs)

    # two step blocks of the Euler loop (64 steps each) and 5 steps more,
    # on drivers whose states are clipped
    long_grid = rs.Grid(n=2 * 64 + 5, T=1.0)
    clipping = rs.RoughHestonGJRS(eta=0.04, kappa=10.0, theta=0.04,
                                  vol_of_vol=0.8, y0=0.04, hurst=0.3, rho=-0.7)
    yield ("smile/rheston_gjrs/rdonsker_left/clipping/n133",
           lambda: np.stack(_smile(rs, clipping, dict(
               num_paths=16, grid=long_grid, scheme="rdonsker_left",
               antithetic=True, seed=23))))
    cir = rs.DiffusionSpec(drift=lambda y: 1.0 * (0.04 - y),
                           diffusion=lambda y: 0.6 * np.sqrt(y), y0=0.04,
                           domain=(0.0, None), name="cir")
    euler = functools.lru_cache(maxsize=None)(lambda: rs.euler_diffusion(
        cir, rs.draw_shocks(noise(paths=8, steps=long_grid.n, rho=0.0,
                                  seed=17)).zeta, long_grid))
    yield "euler_diffusion/cir/n133/levels", lambda: euler().values
    yield "euler_diffusion/cir/n133/domain_clips", \
        lambda: np.array([euler().stats["domain_clips"]])
    for label, chunk_elements in (("whole", None), ("rows16", 16 * 8)):
        yield (f"smile/overflow/{label}",
               lambda chunk_elements=chunk_elements: _overflowing_smile(
                   rs, pricing, chunk_elements))


def _overflowing_tree(rs):
    """The variance levels of a tree whose level-6 variance overflows."""
    model = rs.RoughBergomi(xi0=np.finfo(float).max / 4, nu=2.0, hurst=0.3,
                            rho=-0.7)
    with np.errstate(over="ignore"):
        tree = rs.build_tree(rs.TreeConfig(model=model, depth=6))
    return np.concatenate(tree.variance)


def _overflowing_smile(rs, pricing, chunk_elements):
    """Prices of a smile whose variance overflows on path 31, in chunks of
    `chunk_elements` path-steps (None: the default)."""
    model = rs.RoughBergomi(xi0=np.finfo(float).max / np.exp(3.0), nu=1.0,
                            hurst=0.3, rho=-0.7)
    config = rs.MCConfig(num_paths=64, grid=rs.Grid(n=8, T=1.0), seed=0)
    with np.errstate(over="ignore"):
        return _in_chunks(pricing, chunk_elements,
                          lambda: rs.smile(model, config, [1.0]).prices)


def _in_chunks(pricing, chunk_elements, thunk):
    """`thunk()` with `pricing` chunking by `chunk_elements` path-steps
    (None: the default)."""
    saved = pricing._CHUNK_ELEMENTS
    pricing._CHUNK_ELEMENTS = chunk_elements or saved
    try:
        return thunk()
    finally:
        pricing._CHUNK_ELEMENTS = saved


def _implied_vol(rs, price, strike):
    """The implied vol of a forward-1, maturity-1 call, NaN if it has none."""
    try:
        return rs.implied_vol(price, 1.0, strike, 1.0)
    except ValueError:
        return np.nan


def _smile(rs, model, config):
    """Prices, standard errors and implied vols of a call and a put smile."""
    mc = rs.MCConfig(**config)
    out = []
    for payoff in ("call", "put"):
        result = rs.smile(model, mc, [0.8, 1.0, 1.25], payoff=payoff)
        out += [result.prices, result.stderrs, result.implied_vols]
    return out


def _put_smile_at_full_correlation(rs, model, grid):
    """Prices, standard errors and implied vols of a 9-strike put smile of
    `model` at rho = -1, by the conditional estimator."""
    result = rs.smile(dataclasses.replace(model, rho=-1.0),
                      rs.MCConfig(num_paths=16, grid=grid, seed=23),
                      np.linspace(0.6, 1.4, 9), payoff="put")
    return result.prices, result.stderrs, result.implied_vols


def _prices(rs, tree, payoff):
    """American, its European and the standalone European price of
    `payoff` on `tree`, then the American pass's exercise counts."""
    details = rs.tree_price_american(tree, payoff, details=True)
    return np.concatenate([
        [details["price"], details["european_price"],
         rs.tree_price_european(tree, payoff)],
        np.asarray(tree.exercise_counts, dtype=float)])


def compute(src: Path) -> dict:
    """{output name: hash} of the roughsim package under `src`."""
    sys.path.insert(0, str(src))
    import roughsim as rs
    if not Path(rs.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported roughsim from {rs.__file__}, not {src}")
    hashes = {}
    for name, thunk in _outputs(rs):
        try:
            value = thunk()
        except Exception as exc:  # noqa: BLE001 - a refusal is an output too
            value = f"{type(exc).__name__}: {exc}"
        hashes[name] = digest(value)
    return hashes


def run_side(tree: Path) -> dict:
    """{output name: hash} of the checkout at `tree`, in a new process, by
    that checkout's own copy of this tool (this file if it has none), so
    each side hashes its own list of outputs."""
    tool = tree / "tools" / Path(__file__).name
    if not tool.is_file():
        tool = Path(__file__).resolve()
    proc = subprocess.run(
        [sys.executable, str(tool), "--src", str(tree / "src"), "--json"],
        capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"hashing {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def differing(change: dict, parent: dict) -> list:
    """Names whose hash differs between the sides, or that one side lacks."""
    return sorted(name for name in change.keys() | parent.keys()
                  if change.get(name) != parent.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision to compare against")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the roughsim package")
    parser.add_argument("--json", action="store_true",
                        help="print the hashes as one JSON object")
    args = parser.parse_args(argv)
    if args.json:
        print(json.dumps(compute(args.src), sort_keys=True))
        return 0
    change = run_side(args.src.parent)
    for name in sorted(change):
        print(f"{change[name]}  {name}")
    if args.parent is None:
        return 0
    with tempfile.TemporaryDirectory(prefix="seeded_hashes_") as tmp:
        parent = run_side(extract(args.parent, Path(tmp) / "parent"))
    names = differing(change, parent)
    for name in names:
        print(f"differs: {name}: parent {parent.get(name, 'absent')}, "
              f"change {change.get(name, 'absent')}")
    print(f"{len(names)} of {len(change.keys() | parent.keys())} outputs "
          f"differ from {args.parent}")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
