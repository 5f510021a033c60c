"""Bushy-tree construction, leaf replay, European/American pricing."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughsim import trees
from roughsim.kernels import Grid
from roughsim.models import (
    GammaBergomi,
    RoughBergomi,
    RoughHestonGJRS,
    squared_integral_profile,
)
from roughsim.pricing import bs_call, bs_put
from roughsim.trees import (
    BushyTree,
    TreeConfig,
    VanillaPayoff,
    _continuation,
    build_tree,
    call_payoff,
    put_payoff,
    replay_leaf,
    tree_forward,
    tree_price_american,
    tree_price_european,
)


def _rbergomi(nu=1.0, rho=-0.7, hurst=0.3, xi0=0.04):
    return RoughBergomi(xi0=xi0, nu=nu, hurst=hurst, rho=rho)


# ----------------------------------------------------------------------
# configuration guards
# ----------------------------------------------------------------------

def test_branching_derived_from_correlation():
    assert TreeConfig(model=_rbergomi(rho=-1.0), depth=3).branching == 2
    assert TreeConfig(model=_rbergomi(rho=-0.7), depth=3).branching == 4


def test_depth_guards():
    with pytest.raises(ValueError, match="guard"):
        TreeConfig(model=_rbergomi(rho=-0.7), depth=13)
    with pytest.raises(ValueError, match="guard"):
        TreeConfig(model=_rbergomi(rho=-1.0), depth=25)
    TreeConfig(model=_rbergomi(rho=-1.0), depth=24)  # boundary accepted


def test_branching_override_rules():
    # the branching is the correlation's, never set: a 4-branch tree of a
    # |rho| = 1 model only duplicates the binary tree's children
    with pytest.raises(TypeError, match="branching"):
        TreeConfig(model=_rbergomi(rho=-1.0), depth=3, branching=4)
    config = TreeConfig(model=_rbergomi(rho=-1.0), depth=3)
    with pytest.raises(AttributeError):
        config.branching = 4
    assert config.branching == 2


def test_weights_rule_derivation():
    heston = RoughHestonGJRS(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1,
                             y0=0.04, hurst=0.3, rho=-0.7)
    assert TreeConfig(model=heston, depth=3).weights == "left_point"
    assert TreeConfig(model=_rbergomi(), depth=3).weights == "moment_matched"
    with pytest.raises(ValueError, match="Brownian"):
        TreeConfig(model=heston, depth=3, weights="moment_matched")


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_single_step_two_branch_hand_values():
    model = _rbergomi(nu=0.0, rho=-1.0)
    tree = build_tree(TreeConfig(model=model, depth=1))
    leaves = sorted(tree.log_stock[1])
    np.testing.assert_allclose(leaves, [-0.02 - 0.2, -0.02 + 0.2], atol=1e-15)


def test_level_counts_four_branch():
    tree = build_tree(TreeConfig(model=_rbergomi(), depth=2))
    assert [len(x) for x in tree.log_stock] == [1, 4, 16]
    assert [len(v) for v in tree.variance] == [1, 4, 16]
    assert tree.driver_increments[0] is None
    assert len(tree.driver_increments[2]) == 16
    assert tree.log_stock[0][0] == 0.0
    assert tree.variance[0][0] == 0.04


@pytest.mark.parametrize("hurst", [0.75, 0.1])
def test_fbm_tree_fan_out_pattern(hurst):
    # left-point weights with a Brownian driver reproduce the fractional
    # random-walk display sqrt(dt) * sum (t_i - t_{k-1})^{H-1/2} zeta_k
    n = 5
    model = _rbergomi(nu=1.0, rho=-1.0, hurst=hurst)
    config = TreeConfig(model=model, depth=n, weights="left_point")
    tree = build_tree(config)
    grid = config.grid
    q = squared_integral_profile(model.kernel(), grid)
    c_h = math.sqrt(2.0 * hurst)
    gain, comp = 2.0 * c_h, -2.0 * c_h ** 2 * q[n]
    v_leaves = np.asarray(tree.variance[n])
    phi_rec = (np.log(v_leaves / 0.04) - comp) / gain
    dt = grid.dt
    for leaf in range(2 ** n):
        digits = [(leaf >> (n - l)) & 1 for l in range(1, n + 1)]
        zetas = [1.0 if d == 0 else -1.0 for d in digits]
        expect = sum(math.sqrt(dt) * ((n - k + 1) * dt) ** (hurst - 0.5) * z
                     for k, z in enumerate(zetas, start=1))
        assert abs(phi_rec[leaf] - expect) < 1e-10


@pytest.mark.parametrize("model,weights", [
    (_rbergomi(), None),
    (_rbergomi(rho=-1.0), None),
    (GammaBergomi(xi0=0.04, nu=0.8, hurst=0.3, rho=-0.5, beta_decay=1.0), None),
    (RoughHestonGJRS(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1,
                     y0=0.05, hurst=0.3, rho=-0.7), None),
])
def test_leaf_replay_bitwise(model, weights):
    config = TreeConfig(model=model, depth=5, rate=0.03, dividend=0.01,
                        weights=weights)
    tree = build_tree(config)
    leaves = tree.log_stock[config.depth]
    for leaf in (0, 1, len(leaves) // 3, len(leaves) - 1):
        assert replay_leaf(tree, leaf) == leaves[leaf]


def test_replay_leaf_bounds():
    tree = build_tree(TreeConfig(model=_rbergomi(), depth=2))
    with pytest.raises(ValueError):
        replay_leaf(tree, 16)


@pytest.mark.parametrize("leaf,message", [
    (16, "leaf 16 outside level 2"), (-1, "leaf -1 outside level 2"),
    # a bool or a float is no leaf index, whatever its value
    (True, "leaf must be an integer, got True"),
    (2.0, "leaf must be an integer, got 2.0")])
def test_replay_leaf_refuses_a_leaf_by_name(leaf, message):
    tree = build_tree(TreeConfig(model=_rbergomi(), depth=2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        replay_leaf(tree, leaf)
    assert replay_leaf(tree, np.int64(15)) == tree.log_stock[2][15]


# ----------------------------------------------------------------------
# European pricing
# ----------------------------------------------------------------------

def test_unit_payoff_prices_to_one():
    tree = build_tree(TreeConfig(model=_rbergomi(), depth=4))
    assert tree_price_european(tree, lambda s: np.ones_like(s)) == 1.0


def test_vanilla_payoffs_are_callable_data():
    call, put = call_payoff(1.1), put_payoff(0.9)
    assert call == VanillaPayoff("call", 1.1)
    assert tuple(put) == ("put", 0.9)
    stock = np.array([0.8, 1.0, 1.3])
    np.testing.assert_array_equal(call(stock), np.maximum(stock - 1.1, 0.0))
    np.testing.assert_array_equal(put(stock), np.maximum(0.9 - stock, 0.0))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="strike"):
            call_payoff(bad)


def test_single_step_closed_form_is_black_scholes():
    # with nu = 0 the one-step tree's only step is priced exactly
    config = TreeConfig(model=_rbergomi(nu=0.0, rho=-1.0), depth=1,
                        rate=0.03, dividend=0.01)
    tree = build_tree(config)
    forward = math.exp(0.02)
    disc = math.exp(-0.03)
    for strike in (0.9, 1.0, 1.2):
        call = tree_price_european(tree, call_payoff(strike))
        put = tree_price_european(tree, put_payoff(strike))
        exact = bs_call(forward, strike, 0.04)
        assert abs(call - disc * exact) < 1e-15
        assert abs(put - disc * (exact - forward + strike)) < 1e-15


def test_closed_form_last_step_matches_black_scholes_per_node():
    config = TreeConfig(model=_rbergomi(), depth=5, rate=0.03, dividend=0.01)
    tree = build_tree(config)
    dt = config.grid.dt
    forward = np.exp(tree.log_stock[4] + 0.02 * dt)
    total_variance = tree.variance[4] * dt
    disc = math.exp(-0.03)
    for strike in (0.8, 1.0, 1.25):
        call = tree_price_european(tree, call_payoff(strike))
        put = tree_price_european(tree, put_payoff(strike))
        ref_call = np.mean(bs_call(forward, strike, total_variance))
        ref_put = np.mean(bs_put(forward, strike, total_variance))
        assert abs(call - disc * ref_call) < 1e-14
        assert abs(put - disc * ref_put) < 1e-14


def test_continuation_equals_reshaped_mean():
    values = np.random.default_rng(5).standard_normal(4 ** 5)
    for b in (2, 4):
        np.testing.assert_array_equal(
            _continuation(values, b, 0.97),
            0.97 * values.reshape(-1, b).mean(axis=1))


def test_closed_form_last_step_at_zero_variance_is_intrinsic():
    config = TreeConfig(model=_rbergomi(), depth=3, rate=0.05)
    tree = build_tree(config)
    tree.variance[2][:] = 0.0
    forward = np.exp(tree.log_stock[2] + 0.05 * config.grid.dt)
    for payoff in (call_payoff(1.0), put_payoff(1.0)):
        price = tree_price_european(tree, payoff)
        assert np.isfinite(price)
        expect = math.exp(-0.05) * float(np.mean(payoff(forward)))
        assert abs(price - expect) < 1e-15


def test_other_callables_use_the_leaves():
    tree = build_tree(TreeConfig(model=_rbergomi(), depth=4, rate=0.05))
    disc = math.exp(-0.05 / 4)
    # the discounted backward mean from the leaf payoffs up to the root
    values = np.maximum(np.exp(tree.log_stock[4]) - 1.0, 0.0)
    for _ in range(4):
        values = disc * values.reshape(-1, 4).mean(axis=1)
    call = tree_price_european(tree, lambda s: np.maximum(s - 1.0, 0.0))
    assert call == float(values[0])


def test_flat_volatility_converges_to_black_scholes():
    model = _rbergomi(nu=0.0, rho=-1.0)
    tree = build_tree(TreeConfig(model=model, depth=12))
    price = tree_price_european(tree, call_payoff(1.0))
    assert abs(price - bs_call(1.0, 1.0, 0.04)) < 0.003


def test_put_call_parity_on_shared_tree():
    config = TreeConfig(model=_rbergomi(), depth=6, rate=0.03, dividend=0.01)
    tree = build_tree(config)
    strike = 1.05
    call = tree_price_european(tree, call_payoff(strike))
    put = tree_price_european(tree, put_payoff(strike))
    disc = math.exp(-config.rate * config.horizon)
    assert abs((call - put) - disc * (tree_forward(tree) - strike)) < 1e-12


# ----------------------------------------------------------------------
# American pricing
# ----------------------------------------------------------------------

def test_american_call_equals_european_without_dividends():
    config = TreeConfig(model=_rbergomi(rho=-1.0), depth=10, rate=0.05)
    tree = build_tree(config)
    american = tree_price_american(tree, call_payoff(1.0))
    european = tree_price_european(tree, call_payoff(1.0))
    assert abs(american - european) < 1e-12


def test_american_european_leg_matches_european_pricer_with_dividend():
    config = TreeConfig(model=_rbergomi(), depth=6, rate=0.03, dividend=0.02)
    tree = build_tree(config)
    for payoff in (call_payoff(1.05), put_payoff(0.95),
                   lambda s: np.maximum(s - 1.0, 0.0)):
        details = tree_price_american(tree, payoff, details=True)
        european = tree_price_european(tree, payoff)
        assert abs(details["european_price"] - european) < 1e-12


def test_american_put_dominates_european():
    config = TreeConfig(model=_rbergomi(rho=-1.0), depth=10, rate=0.05)
    tree = build_tree(config)
    for strike in (0.9, 1.0, 1.1):
        details = tree_price_american(tree, put_payoff(strike), details=True)
        assert details["price"] >= details["european_price"]
        assert details["early_exercise_premium"] >= 0.0
    # an in-the-money put with positive rates exercises early somewhere
    details = tree_price_american(tree, put_payoff(1.1), details=True)
    assert details["early_exercise_premium"] > 0.0
    assert details["exercise_counts"].sum() > 0
    assert tree.exercise_counts is not None


def test_memmap_spill_reproduces_in_memory_tree():
    config_ram = TreeConfig(model=_rbergomi(), depth=5, rate=0.05)
    config_disk = TreeConfig(model=_rbergomi(), depth=5, rate=0.05,
                             max_in_memory_bytes=256)
    tree_ram = build_tree(config_ram)
    tree_disk = build_tree(config_disk)
    assert tree_disk._scratch is not None and tree_ram._scratch is None
    assert isinstance(tree_disk.log_stock[5], np.memmap)
    np.testing.assert_array_equal(np.asarray(tree_disk.log_stock[5]),
                                  tree_ram.log_stock[5])
    for payoff in (call_payoff(1.0), put_payoff(1.0)):
        assert tree_price_american(tree_disk, payoff) == \
            tree_price_american(tree_ram, payoff)


def test_huge_nu_tree_names_the_overflow_and_the_parameters():
    model = _rbergomi(nu=1e200, hurst=0.1)
    with pytest.warns(RuntimeWarning), \
            pytest.raises(ValueError, match=r"overflowed \(nu=1e\+200, H=0.1\)"):
        build_tree(TreeConfig(model=model, depth=3))


def test_snell_violation_names_level_node_contract_and_values():
    config = TreeConfig(model=_rbergomi(), depth=4, rate=0.05)
    tree = build_tree(config)
    tree.log_stock[2][:] = np.nan
    with pytest.raises(AssertionError,
                       match=r"violated at level 2, node 0 \(put with strike "
                             r"1\.1\): American value nan is not >= European "
                             r"value 0\.\d+"):
        tree_price_american(tree, put_payoff(1.1))
    tree = build_tree(config)
    tree.log_stock[1][3] = np.nan
    with pytest.raises(AssertionError,
                       match=r"violated at level 1, node 3 \(call with strike "
                             r"0\.95\): American value nan is not >= European"):
        tree_price_american(tree, call_payoff(0.95))


# ----------------------------------------------------------------------
# recorded European prices and tree work
# ----------------------------------------------------------------------

def test_american_pass_records_the_european_price(monkeypatch):
    config = TreeConfig(model=_rbergomi(), depth=6, rate=0.03, dividend=0.01)
    payoffs = (put_payoff(0.95), call_payoff(1.05))
    expected = [tree_price_european(build_tree(config), p) for p in payoffs]
    tree = build_tree(config)
    for payoff in payoffs:
        tree_price_american(tree, payoff)

    def no_last_step(*args):
        raise AssertionError("the last step was priced again")

    monkeypatch.setattr(trees, "_last_step_values", no_last_step)
    for payoff, price in zip(payoffs, expected):
        assert tree_price_european(tree, VanillaPayoff(*payoff)) == price
    with pytest.raises(AssertionError, match="priced again"):
        tree_price_european(tree, put_payoff(1.0))


def test_build_and_induction_report_their_work():
    config = TreeConfig(model=_rbergomi(), depth=5, rate=0.05)
    ram = build_tree(config)
    disk = build_tree(TreeConfig(model=_rbergomi(), depth=5, rate=0.05,
                                 max_in_memory_bytes=256))
    nodes = sum(4 ** i for i in range(6))
    level_bytes = 8 * (3 * nodes - 1)  # log-stock, variance, increments
    assert ram.stats["nodes"] == disk.stats["nodes"] == nodes
    assert ram.stats["ram_bytes"] == level_bytes
    assert ram.stats["spilled_bytes"] == 0
    assert disk.stats["spilled_bytes"] > 0
    assert disk.stats["ram_bytes"] + disk.stats["spilled_bytes"] == level_bytes
    assert ram.stats["build_s"] > 0.0
    details = tree_price_american(ram, put_payoff(1.0), details=True)
    assert details["induction_s"] > 0.0
    assert 0.0 < details["last_step_s"] < details["induction_s"]
    details = tree_price_american(ram, lambda s: np.maximum(1.0 - s, 0.0),
                                  details=True)
    assert details["last_step_s"] == 0.0 < details["induction_s"]


# ----------------------------------------------------------------------
# block-wise level passes
# ----------------------------------------------------------------------

def test_snell_violation_in_a_later_block_names_the_global_node(monkeypatch):
    config = TreeConfig(model=_rbergomi(), depth=4, rate=0.05)
    messages = []
    for block in (trees._TREE_BLOCK_NODES, 4):
        monkeypatch.setattr(trees, "_TREE_BLOCK_NODES", block)
        for level, node in ((3, 37), (2, 9)):  # blocks 9 and 2 of 4 nodes
            tree = build_tree(config)
            tree.log_stock[level][node] = np.nan
            with pytest.raises(AssertionError,
                               match=rf"violated at level {level}, node "
                                     rf"{node} \(put with strike 1\.1\)"
                               ) as failure:
                tree_price_american(tree, put_payoff(1.1))
            messages.append(str(failure.value))
    assert messages[:2] == messages[2:]


def test_build_and_american_pass_hold_only_a_few_blocks():
    # numpy reports its allocations to tracemalloc: past the level arrays,
    # the build holds a few blocks' temporaries, and the American pass
    # holds two level-(n-1) arrays (American and European values, reused
    # for every level above) and a few blocks
    block_bytes = 8 * trees._TREE_BLOCK_NODES
    for rho, depth in ((-0.7, 9), (-1.0, 17)):
        config = TreeConfig(model=_rbergomi(rho=rho), depth=depth, rate=0.05,
                            dividend=0.01)
        build_tree(config)  # weight tables and the Q profile are cached
        tracemalloc.start()
        try:
            tree = build_tree(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tree.stats["ram_bytes"] + 4 * block_bytes
        level = 8 * config.branching ** (depth - 1)
        for payoff in (put_payoff(1.0), call_payoff(1.0)):
            tracemalloc.start()
            try:
                tree_price_american(tree, payoff)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 * level + 8 * block_bytes


# ----------------------------------------------------------------------
# properties over small random trees
# ----------------------------------------------------------------------

@st.composite
def _small_tree_configs(draw):
    branching = draw(st.sampled_from((2, 4)))
    rho = (draw(st.sampled_from((-1.0, 1.0))) if branching == 2
           else draw(st.floats(-0.95, 0.95)))
    model = RoughBergomi(xi0=draw(st.floats(0.01, 0.2)),
                         nu=draw(st.floats(0.1, 2.0)),
                         hurst=draw(st.floats(0.05, 0.45)), rho=rho)
    return TreeConfig(model=model, depth=draw(st.integers(1, 6)),
                      rate=draw(st.floats(-0.05, 0.1)),
                      dividend=draw(st.floats(0.0, 0.08)))


_STRIKE = st.floats(0.5, 2.0)
_VANILLA = st.builds(call_payoff, _STRIKE) | st.builds(put_payoff, _STRIKE)


def _priced(tree, payoff, pricer, details):
    """Everything a pricer call returns or records, as exact bit patterns."""
    if pricer == "european":
        return (tree_price_european(tree, payoff).hex(),)
    result = tree_price_american(tree, payoff, details=details)
    recorded = tree.exercise_counts.tobytes()
    if not details:
        return result.hex(), recorded
    return (result["price"].hex(), result["european_price"].hex(),
            result["early_exercise_premium"].hex(),
            result["exercise_counts"].tobytes(), recorded)


@settings(max_examples=60, deadline=None)
@given(config=_small_tree_configs(),
       payoffs=st.lists(_VANILLA, min_size=1, max_size=4), data=st.data())
def test_pricing_order_never_changes_a_tree_price(config, payoffs, data):
    calls = data.draw(st.lists(
        st.tuples(st.integers(0, len(payoffs) - 1),
                  st.sampled_from(("american", "european")), st.booleans()),
        min_size=1, max_size=10))
    tree = build_tree(config)
    alone = {}
    for index, pricer, details in calls:
        # an equal payoff built afresh, so records are found by value
        payoff = VanillaPayoff(*payoffs[index])
        key = (index, pricer, details)
        if key not in alone:
            alone[key] = _priced(build_tree(config), payoff, pricer, details)
        assert _priced(tree, payoff, pricer, details) == alone[key]


@settings(max_examples=60, deadline=None)
@given(config=_small_tree_configs(), strike=_STRIKE)
def test_recorded_european_prices_keep_parity_and_snell_order(config, strike):
    tree = build_tree(config)
    payoffs = (call_payoff(strike), put_payoff(strike))
    american = [tree_price_american(tree, p) for p in payoffs]
    european = [tree_price_european(tree, p) for p in payoffs]
    disc = math.exp(-config.rate * config.horizon)
    parity = disc * (tree_forward(tree) - strike)
    assert abs((european[0] - european[1]) - parity) < 1e-12
    for payoff, amer, euro in zip(payoffs, american, european):
        # the recorded price is the American pass's own European leg
        assert euro <= amer
        assert payoff(config.model.spot) <= amer


@st.composite
def _blocked_tree_configs(draw):
    branching = draw(st.sampled_from((2, 4)))
    rho = (draw(st.sampled_from((-1.0, 1.0))) if branching == 2
           else draw(st.floats(-0.95, 0.95)))
    hurst = draw(st.floats(0.05, 0.45))
    if draw(st.booleans()):
        # the CIR driver: left-point weights, Euler-stepped increments
        model = RoughHestonGJRS(eta=draw(st.floats(0.01, 0.1)), kappa=1.0,
                                theta=0.04, vol_of_vol=draw(st.floats(0.05, 0.25)),
                                y0=draw(st.floats(0.01, 0.1)), hurst=hurst,
                                rho=rho)
    else:
        model = RoughBergomi(xi0=draw(st.floats(0.01, 0.2)),
                             nu=draw(st.floats(0.1, 2.0)), hurst=hurst, rho=rho)
    spilled = draw(st.booleans())
    return TreeConfig(model=model,
                      depth=draw(st.integers(1, 5 if branching == 4 else 8)),
                      rate=draw(st.floats(-0.05, 0.1)),
                      dividend=draw(st.floats(0.0, 0.08)),
                      max_in_memory_bytes=256 if spilled else 1 << 29)


def _callable_put(strike):
    return lambda s: np.maximum(strike - s, 0.0)


def _tree_bits(config, payoffs, leaves):
    """Levels, replayed leaves and every price a tree gives, as bit patterns."""
    tree = build_tree(config)
    bits = [np.asarray(a).tobytes() for a in
            tree.log_stock + tree.variance + tree.driver_increments[1:]]
    stored = tree.log_stock[config.depth]
    for leaf in leaves:
        assert replay_leaf(tree, leaf) == stored[leaf]
    bits.append((tree.stats["clamp_cells"], tree.stats["domain_clips"]))
    for payoff in payoffs:
        bits.append(tree_price_american(tree, payoff).hex())
        bits.append(tree.exercise_counts.tobytes())
        details = tree_price_american(tree, payoff, details=True)
        bits += [details[key].hex() for key in
                 ("price", "european_price", "early_exercise_premium")]
        bits.append(details["exercise_counts"].tobytes())
        bits.append(tree_price_european(tree, payoff).hex())
    return bits


@settings(max_examples=40, deadline=None)
@given(config=_blocked_tree_configs(),
       payoffs=st.lists(_VANILLA | st.builds(_callable_put, _STRIKE),
                        min_size=1, max_size=3),
       data=st.data())
def test_block_size_never_changes_a_tree(config, payoffs, data):
    b, n = config.branching, config.depth
    leaves = data.draw(st.lists(st.integers(0, b ** n - 1), max_size=4))
    # the default block holds every level of these trees whole
    whole = _tree_bits(config, payoffs, leaves)
    saved = trees._TREE_BLOCK_NODES
    try:
        for k in range(n + 2):
            trees._TREE_BLOCK_NODES = b ** k
            assert _tree_bits(config, payoffs, leaves) == whole
    finally:
        trees._TREE_BLOCK_NODES = saved


@settings(max_examples=60, deadline=None)
@given(config=_small_tree_configs(), strike=_STRIKE,
       kind=st.sampled_from(("call", "put", "callable put")))
def test_european_price_is_the_american_pass_european_leg(config, strike,
                                                          kind):
    payoff = {"call": call_payoff, "put": put_payoff,
              "callable put": _callable_put}[kind](strike)
    # priced first on its own tree, so nothing is recorded yet
    european = tree_price_european(build_tree(config), payoff)
    tree = build_tree(config)
    details = tree_price_american(tree, payoff, details=True)
    assert details["european_price"] == european
    assert tree_price_american(tree, payoff) >= european
    assert details["early_exercise_premium"] >= 0.0
    assert tree_price_european(tree, payoff) == european


@settings(max_examples=30, deadline=None)
@given(config=_blocked_tree_configs(), strike=_STRIKE,
       kind=st.sampled_from(("call", "put", "callable put")), data=st.data())
def test_a_european_price_on_a_fresh_tree_is_the_american_european_leg(
        config, strike, kind, data):
    payoff = {"call": call_payoff, "put": put_payoff,
              "callable put": _callable_put}[kind](strike)
    details = tree_price_american(build_tree(config), payoff, details=True)
    saved = trees._TREE_BLOCK_NODES
    try:
        trees._TREE_BLOCK_NODES = config.branching ** data.draw(
            st.integers(0, config.depth + 1))
        assert (tree_price_european(build_tree(config), payoff)
                == details["european_price"])
    finally:
        trees._TREE_BLOCK_NODES = saved


@pytest.mark.parametrize("payoff", [call_payoff(1.0), _callable_put(1.0)],
                         ids=["call", "callable"])
def test_a_european_price_records_no_exercise_counts(payoff):
    tree = build_tree(TreeConfig(model=_rbergomi(), depth=4, rate=0.05))
    tree_price_european(tree, payoff)
    assert tree.exercise_counts is None


# ----------------------------------------------------------------------
# non-finite variances
# ----------------------------------------------------------------------

# xi0 e^{2 nu C_H phi} passes DBL_MAX first at level 6, on its 64 nodes of
# the largest phi (all zeta shocks +1)
_OVERFLOWING = RoughBergomi(xi0=np.finfo(float).max / 4, nu=2.0, hurst=0.3,
                            rho=-0.7)
_OVERFLOW_AT_LEVEL_6 = (r"^variance is not finite: level 6, node 0 is inf; "
                        r"the variance map's exp\(2 nu C_H phi - 2 nu\^2 "
                        r"C_H\^2 Q\) overflowed \(nu=2.0, H=0.3\)$")


def test_an_overflowing_tree_is_named_alike_at_every_block_size():
    config = TreeConfig(model=_OVERFLOWING, depth=6)
    saved = trees._TREE_BLOCK_NODES
    try:
        for k in range(8):
            trees._TREE_BLOCK_NODES = 4 ** k
            with pytest.raises(ValueError, match=_OVERFLOW_AT_LEVEL_6), \
                    np.errstate(over="ignore"):
                build_tree(config)
    finally:
        trees._TREE_BLOCK_NODES = saved


def test_a_replayed_overflowing_leaf_names_its_level_and_ancestor():
    # replay reads only the configuration, so no built levels are needed
    tree = BushyTree(config=TreeConfig(model=_OVERFLOWING, depth=6),
                     log_stock=[], variance=[], driver_increments=[])
    with pytest.raises(ValueError, match=_OVERFLOW_AT_LEVEL_6), \
            np.errstate(over="ignore"):
        replay_leaf(tree, 0)
    # the depth-5 tree of the same model is finite throughout
    tree = build_tree(TreeConfig(model=_OVERFLOWING, depth=5))
    assert all(np.isfinite(v).all() for v in tree.variance)
    assert replay_leaf(tree, 7) == tree.log_stock[5][7]


def test_a_non_finite_heston_tree_variance_has_no_overflow_cause():
    model = RoughHestonGJRS(eta=0.04, kappa=1.0, theta=0.04, vol_of_vol=0.1,
                            y0=0.04, hurst=0.3, rho=-0.7)
    config = TreeConfig(model=model, depth=3)
    weights = trees.left_point_weights(model.kernel(), config.grid)
    saved = trees.left_point_weights
    try:
        trees.left_point_weights = lambda kernel, grid: np.where(
            np.arange(len(weights)) == 1, np.inf, weights)
        with pytest.raises(ValueError, match=r"^variance is not finite: "
                                             r"level 2, node 0 is inf$"):
            build_tree(config)
    finally:
        trees.left_point_weights = saved


# ----------------------------------------------------------------------
# clamp and clip counts
# ----------------------------------------------------------------------

def _driver_states(tree):
    """Driver state Y at every node, level by level, from the increments."""
    states = [np.array([tree.config.model.y0])]
    for dy in tree.driver_increments[1:]:
        states.append(np.repeat(states[-1], tree.branching) + dy)
    return states


def test_tree_counts_clamped_variances_and_clipped_driver_states():
    model = RoughHestonGJRS(eta=0.01, kappa=1.0, theta=0.04, vol_of_vol=0.1,
                            y0=0.04, hurst=0.1, rho=-0.7)
    tree = build_tree(TreeConfig(model=model, depth=7))
    clamped = sum(int(np.count_nonzero(v == 0.0)) for v in tree.variance[1:])
    assert tree.stats["clamp_cells"] == clamped == 8158
    assert tree.stats["domain_clips"] == 0
    # kappa * dt = 5 overshoots the mean: level-1 states go negative and
    # are clipped before the next Euler step
    model = RoughHestonGJRS(eta=0.04, kappa=10.0, theta=0.04, vol_of_vol=0.5,
                            y0=0.5, hurst=0.3, rho=-0.7)
    tree = build_tree(TreeConfig(model=model, depth=3, horizon=1.5))
    states = _driver_states(tree)
    clipped = sum(int(np.count_nonzero(y < 0.0)) for y in states[1:-1])
    assert tree.stats["domain_clips"] == clipped > 0
    tree = build_tree(TreeConfig(model=_rbergomi(), depth=4))
    assert tree.stats["clamp_cells"] == tree.stats["domain_clips"] == 0
