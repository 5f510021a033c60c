"""The hash comparison of tools/seeded_hashes.py on made-up hash maps."""

import importlib.util
import subprocess
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "seeded_hashes.py"
_spec = importlib.util.spec_from_file_location("seeded_hashes", _PATH)
seeded_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seeded_hashes)


def test_digest_tells_shape_dtype_and_bits_apart():
    digest = seeded_hashes.digest
    base = digest(np.zeros(4))
    assert digest(np.zeros(4)) == base
    assert digest(np.zeros((2, 2))) != base
    assert digest(np.zeros(4, dtype=np.float32)) != base
    assert digest(np.array([0.0, 0.0, 0.0, -0.0])) != base
    assert digest(np.zeros((4, 2))[:, 0]) == base  # a strided view's values
    assert digest("ValueError: no") != digest("ValueError: no!")


def test_differing_names_changed_and_one_sided_outputs():
    parent = {"a": "1", "b": "2", "gone": "3"}
    change = {"a": "1", "b": "9", "new": "4"}
    assert seeded_hashes.differing(change, parent) == ["b", "gone", "new"]
    assert seeded_hashes.differing(parent, dict(parent)) == []


def _fake_sides(monkeypatch, parent_tree, parent, change):
    calls = []

    def fake_run(tree):
        calls.append(tree)
        return parent if tree == parent_tree else change

    monkeypatch.setattr(seeded_hashes, "run_side", fake_run)
    monkeypatch.setattr(seeded_hashes, "extract", lambda rev, into: parent_tree)
    return calls


def test_parent_comparison_lists_each_differing_output(tmp_path, monkeypatch,
                                                       capsys):
    parent_tree = tmp_path / "parent"
    calls = _fake_sides(monkeypatch, parent_tree,
                        {"smile/x": "aa", "tree/y": "bb", "old": "cc"},
                        {"smile/x": "aa", "tree/y": "bd", "new": "dd"})
    assert seeded_hashes.main(["--parent", "HEAD~1"]) == 1
    assert calls == [seeded_hashes.ROOT, parent_tree]
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["dd  new", "aa  smile/x", "bd  tree/y"]
    assert out[3:] == ["differs: new: parent absent, change dd",
                       "differs: old: parent cc, change absent",
                       "differs: tree/y: parent bb, change bd",
                       "3 of 4 outputs differ from HEAD~1"]


def test_identical_hashes_pass(tmp_path, monkeypatch, capsys):
    same = {"draw_shocks/plain/zeta": "ab", "sample_paths/hybrid": "cd"}
    _fake_sides(monkeypatch, tmp_path / "parent", same, dict(same))
    assert seeded_hashes.main(["--parent", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "0 of 2 outputs differ from HEAD"
    # without a parent only this tree is hashed
    assert seeded_hashes.main([]) == 0
    assert "differ" not in capsys.readouterr().out


def test_each_side_is_hashed_by_its_own_tool(tmp_path, monkeypatch):
    # a side that has the tool runs its own copy, so an output it renamed
    # or dropped shows as one-sided; a side without one runs this file
    scripts = []

    def fake_run(argv, **kwargs):
        scripts.append((argv[1], argv[3]))
        return subprocess.CompletedProcess(argv, 0, stdout="{}", stderr="")

    monkeypatch.setattr(seeded_hashes.subprocess, "run", fake_run)
    with_tool, without = tmp_path / "parent", tmp_path / "bare"
    (with_tool / "tools").mkdir(parents=True)
    (with_tool / "tools" / "seeded_hashes.py").write_text("")
    for tree in (with_tool, without):
        assert seeded_hashes.run_side(tree) == {}
    assert scripts == [
        (str(with_tool / "tools" / "seeded_hashes.py"), str(with_tool / "src")),
        (str(_PATH), str(without / "src"))]


def test_outputs_name_the_closed_form_quantities():
    import roughsim as rs

    outputs = dict(seeded_hashes._outputs(rs))
    added = ("bs/call", "bs/put", "implied_vol",
             "squared_integral_profile/rl", "squared_integral_profile/gamma",
             "squared_integral_profile/powerlaw", "convolve_gfo/naive")
    for name in added:
        value = outputs[name]()
        assert isinstance(value, np.ndarray) and value.size > 0
    # the grid holds zero variance, where each price is intrinsic
    assert np.all(outputs["bs/put"]() >= 0.0)
    assert np.count_nonzero(np.isfinite(outputs["implied_vol"]())) >= 10


def test_outputs_hold_the_variance_stage_counts_and_refusals():
    import pytest

    import roughsim as rs

    outputs = dict(seeded_hashes._outputs(rs))
    # the European-only call is the American pass's European leg
    assert (outputs["tree/rbergomi/b4/european_only"]()[0]
            == outputs["tree/rbergomi/b4/call"]()[1])
    assert np.all(outputs["tree/rheston_gjrs/clamping/stats"]() > 0)
    with pytest.raises(ValueError, match="^variance is not finite: level 6, "):
        outputs["tree/overflow/build_tree"]()
    messages = []
    for label in ("whole", "rows16"):
        with pytest.raises(ValueError) as err:
            outputs[f"smile/overflow/{label}"]()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("rdonsker_matched variance paths are not "
                                  "finite: path 31, time index 4 is inf")


def test_chunked_smile_outputs_run_in_16_row_chunks(monkeypatch, set_threads):
    import roughsim as rs
    from roughsim import pricing

    outputs = dict(seeded_hashes._outputs(rs))
    names = [name for name in outputs if name.endswith("/rows16")
             and name != "smile/overflow/rows16"]
    assert len(names) == 3 * 3 * 2  # model x scheme x estimator
    model = rs.model_from_config(seeded_hashes.MODEL_CONFIGS["rbergomi"])
    whole = np.stack(seeded_hashes._smile(rs, model, dict(
        num_paths=64, grid=rs.Grid(n=8, T=1.0), antithetic=True, seed=23)))
    default, draws = pricing._CHUNK_ELEMENTS, []
    draw = pricing.draw_shocks
    monkeypatch.setattr(pricing, "draw_shocks", lambda noise, base_range: (
        draws.append(base_range) or draw(noise, base_range=base_range)))
    for threads in (1, 2):
        set_threads(threads)
        draws.clear()
        chunked = outputs["smile/rbergomi/rdonsker_matched/conditional_bs/"
                          "antithetic/rows16"]()
        if threads == 1:
            # a call and a put smile, each in four chunks of 4 base paths
            assert draws == [(0, 4), (4, 8), (8, 12), (12, 16)] * 2
        else:
            # two chunks in flight share the 16-row cap; draws on the pool
            # start in any order
            assert sorted(draws) == sorted(
                [(a, a + 2) for a in range(0, 16, 2)] * 2)
        assert pricing._CHUNK_ELEMENTS == default
        assert chunked.tobytes() == whole.tobytes()
