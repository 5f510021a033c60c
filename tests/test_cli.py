"""CLI contract: flags, config merging, artifacts, exit codes."""

import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughsim
from roughsim import _config, cli, pricing
from roughsim.cli import main
from roughsim.pricing import MCConfig
from roughsim.trees import TreeConfig
from roughsim.volterra import load_binary

_COV_SEEDS = {"rdonsker_matched": 36, "hybrid": 4, "cholesky": 5}


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def test_simulate_csv_shape_and_metadata(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "simulate", "--kernel", "rl", "--hurst", "0.3", "--paths", "9",
        "--steps", "16", "--seed", "7", "--output-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert len(lines) == 2 + 9  # metadata + time header + data rows
    assert len(lines[2].split(",")) == 17
    meta = json.loads((tmp_path / "paths.meta.json").read_text())
    assert meta["shape"] == [9, 17]
    assert meta["scheme_tags"] == ["rdonsker_matched"]
    assert len(meta["config_hash"]) == 16
    assert meta["git_revision"]
    report = json.loads(out)
    assert report["config_hash"] == meta["config_hash"]


def test_simulate_rerun_byte_identical(tmp_path, capsys):
    argv = ["simulate", "--paths", "6", "--steps", "32", "--seed", "3",
            "--format", "binary", "--output-dir", str(tmp_path)]
    assert main(argv + ["--prefix", "a"]) == 0
    assert main(argv + ["--prefix", "b"]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


@pytest.mark.parametrize("scheme", ["rdonsker_left", "hybrid", "cholesky"])
def test_simulate_other_schemes(tmp_path, capsys, scheme):
    code, out, _ = _run(capsys, [
        "simulate", "--scheme", scheme, "--paths", "5", "--steps", "8",
        "--output-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["shape"] == [5, 9]


def test_simulate_gamma_kernel_binary_roundtrip(tmp_path, capsys):
    code, _, _ = _run(capsys, [
        "simulate", "--kernel", "gamma", "--alpha", "-0.2", "--beta", "-1.0",
        "--paths", "4", "--steps", "8", "--format", "binary",
        "--output-dir", str(tmp_path)])
    assert code == 0
    assert load_binary(tmp_path / "paths.bin").values.shape == (4, 9)


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mc": {"paths": 3, "steps": 8, "seed": 1}}))
    code, out, _ = _run(capsys, [
        "simulate", "--config", str(cfg), "--paths", "5",
        "--output-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["shape"] == [5, 9]  # flag wins over file


# ----------------------------------------------------------------------
# config errors -> exit 1, io errors -> exit 3
# ----------------------------------------------------------------------

def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mc": {"paths": 3}, "bogus": 1}))
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 1 and "unknown config keys" in err
    cfg.write_text(json.dumps({"mc": {"paths": 3, "bogus": 1}}))
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 1 and "bogus" in err


def test_invalid_json_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 1 and "not valid JSON" in err


def test_missing_model_key_is_config_error(capsys):
    code, _, err = _run(capsys, [
        "price", "--model", "rbergomi", "--xi0", "0.04", "--nu", "1.0",
        "--paths", "64", "--steps", "8"])  # hurst and rho missing
    assert code == 1 and "missing" in err


def test_unwritable_output_dir_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")  # a directory cannot be made below a file
    code, _, err = _run(capsys, [
        "simulate", "--paths", "2", "--steps", "4",
        "--output-dir", str(blocker / "out")])
    assert code == 3 and "io error" in err


def test_missing_output_dir_is_created(tmp_path, capsys):
    rbergomi = ["--model", "rbergomi", "--xi0", "0.04", "--nu", "1.0",
                "--hurst", "0.3", "--rho", "-0.7"]
    runs = {
        "simulate": (["--paths", "2", "--steps", "4"], "paths.csv"),
        "smile": ([*rbergomi, "--paths", "8", "--steps", "4",
                   "--strikes", "1.0"], "smile.csv"),
        "american": ([*rbergomi, "--depth", "2", "--dump-tree"], "tree.csv"),
    }
    for command, (argv, artifact) in runs.items():
        out_dir = tmp_path / command / "a" / "b"
        code, _, err = _run(capsys, [command, *argv,
                                     "--output-dir", str(out_dir)])
        assert code == 0, err
        assert (out_dir / artifact).is_file()


def test_config_error_creates_no_output_dir(tmp_path, capsys):
    runs = {
        "simulate": ["--kernel", "gamma", "--alpha", "-0.2", "--beta", "-1",
                     "--hurst", "0.4"],
        "smile": ["--model", "rbergomi", "--xi0", "-0.04", "--nu", "1.0",
                  "--hurst", "0.3", "--rho", "-0.7"],
    }
    for command, argv in runs.items():
        out_dir = tmp_path / command / "out"
        code, _, err = _run(capsys, [command, *argv,
                                     "--output-dir", str(out_dir)])
        assert code == 1 and "config error" in err, err
        assert not (tmp_path / command).exists()


def test_flag_value_of_double_dash_is_kept():
    parser = cli.build_parser()
    assert parser.parse_args(["american", "--dump-tree=--"]).dump_tree == "--"
    assert parser.parse_args(["smile", "--prefix=--"]).prefix == "--"
    assert parser.parse_args(["american", "--dump-tree"]).dump_tree \
        == "tree.csv"


def test_bad_model_parameters_are_config_errors(capsys, monkeypatch):
    # Feller violation
    code, _, err = _run(capsys, [
        "price", "--model", "rheston_gjrs", "--eta", "0.04", "--kappa", "0.1",
        "--theta", "0.04", "--xi", "1.0", "--y0", "0.04", "--hurst", "0.3",
        "--rho", "-0.5", "--paths", "64", "--steps", "8"])
    assert code == 1 and "Feller" in err
    # a NaN parameter is refused by name before any path is drawn
    monkeypatch.setattr(pricing, "draw_shocks", None)
    code, _, err = _run(capsys, [
        "smile", "--model", "rbergomi", "--xi0", "0.04", "--nu", "nan",
        "--hurst", "0.3", "--rho", "-0.7", "--paths", "64", "--steps", "8"])
    assert code == 1 and err.startswith("config error: nu must be"), err


def test_a_numerical_failure_is_a_runtime_error(capsys):
    # the parameters are valid; the run underflows every forward
    code, _, err = _run(capsys, [
        "price", "--model", "rbergomi", "--xi0", "1e300", "--nu", "1.0",
        "--hurst", "0.3", "--rho", "-0.7", "--paths", "64", "--steps", "8"])
    assert code == 2
    assert err.startswith("runtime error: conditional forwards are not "
                          "positive: path 0"), err


# ----------------------------------------------------------------------
# smile / price
# ----------------------------------------------------------------------

def test_flat_smile_artifacts(tmp_path, capsys):
    code, _, _ = _run(capsys, [
        "smile", "--model", "rbergomi", "--xi0", "0.04", "--nu", "0.0",
        "--hurst", "0.3", "--rho", "0.0", "--paths", "512", "--steps", "8",
        "--strikes", "0.9,1.0,1.1", "--output-dir", str(tmp_path)])
    assert code == 0
    rows = np.loadtxt(tmp_path / "smile.csv", delimiter=",", skiprows=1)
    assert rows.shape == (3, 4)
    np.testing.assert_allclose(rows[:, 3], 0.2, atol=1e-6)
    assert np.all(rows[:, 2] == 0.0)
    meta = json.loads((tmp_path / "smile.meta.json").read_text())
    assert meta["pricing"]["variance_reduction"] == "conditional_bs"
    # antithetic groups of four: the scheme ran on half of the 512 rows
    assert meta["pricing"]["stats"]["scheme_rows"] == 256
    assert "runtime_seconds" in meta


def test_smile_and_price_report_their_chunk_layout(tmp_path, capsys,
                                                   monkeypatch, set_threads):
    # 16 rows a chunk at 8 steps: the 40 antithetic paths run in 3 chunks;
    # on two threads two chunks in flight share that cap, 5 chunks of 8 rows
    monkeypatch.setattr(pricing, "_CHUNK_ELEMENTS", 16 * 8)
    for threads, layout in ((1, {"chunks": 3, "chunk_rows": 16}),
                            (2, {"chunks": 5, "chunk_rows": 8})):
        set_threads(threads)
        code, _, _ = _run(capsys, ["smile", *_PRICE_ARGS[:-6], "--paths",
                                   "40", "--steps", "8", "--output-dir",
                                   str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "smile.meta.json").read_text())
        assert meta["pricing"]["chunking"] == layout
        # the pool's worker count, and the process's thread count
        assert meta["pricing"]["threads"] == threads
        assert meta["threads"] == threads
        code, out, _ = _run(capsys, ["price", *_PRICE_ARGS[:-6], "--paths",
                                     "40", "--steps", "8"])
        assert code == 0
        assert json.loads(out)["chunking"] == layout
        assert json.loads(out)["threads"] == threads


def test_price_record_flat_model(capsys):
    code, out, _ = _run(capsys, [
        "price", "--model", "rbergomi", "--xi0", "0.04", "--nu", "0.0",
        "--hurst", "0.3", "--rho", "0.0", "--paths", "512", "--steps", "8",
        "--strike", "1.1", "--payoff", "put"])
    assert code == 0
    record = json.loads(out)
    assert record["stderr"] == 0.0
    assert abs(record["implied_vol"] - 0.2) < 1e-6
    d1 = (math.log(1 / 1.1) + 0.02) / 0.2
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2)))  # noqa: E731
    bs_put_exact = 1.1 * cdf(0.2 - d1) - cdf(-d1)
    assert abs(record["price"] - bs_put_exact) < 1e-12


_PRICE_ARGS = ["--model", "rbergomi", "--xi0", "0.04", "--nu", "1.0",
               "--hurst", "0.1", "--rho", "-0.7", "--paths", "400",
               "--steps", "16", "--seed", "4"]


def test_price_is_one_strike_of_the_smile(tmp_path, capsys):
    for payoff, strike in (("put", "0.9"), ("call", "1.2")):
        code, out, _ = _run(capsys, ["price", *_PRICE_ARGS, "--strike", strike,
                                     "--payoff", payoff])
        assert code == 0
        record = json.loads(out)
        code, _, _ = _run(capsys, ["smile", *_PRICE_ARGS, "--strikes", strike,
                                   "--payoff", payoff,
                                   "--output-dir", str(tmp_path)])
        assert code == 0
        row = np.loadtxt(tmp_path / "smile.csv", delimiter=",", skiprows=1)
        assert [record["price"], record["stderr"], record["implied_vol"]] \
            == row[1:].tolist()
        assert record["implied_vol_nan_reason"] is None


@pytest.mark.parametrize("command", ["price", "smile"])
def test_one_antithetic_group_is_a_config_error(command, tmp_path, capsys):
    # one group of 4 paths has no standard error
    extra = ["--strike", "1.0"] if command == "price" else [
        "--strikes", "0.9,1.1", "--output-dir", str(tmp_path)]
    code, out, err = _run(capsys, [command, *_PRICE_ARGS[:-6], "--paths", "4",
                                   "--steps", "8", *extra])
    assert code == 1 and out == ""
    assert err == ("config error: num_paths must be at least 8 for a "
                   "standard error, got 4\n")


def test_price_nan_implied_vol_names_its_reason(capsys):
    # no plain-MC path ends above 3, so the price is 0: below intrinsic
    code, out, _ = _run(capsys, ["price", *_PRICE_ARGS, "--strike", "3.0",
                                 "--variance-reduction", "none"])
    assert code == 0
    record = json.loads(out)
    assert record["price"] == 0.0 and math.isnan(record["implied_vol"])
    assert record["implied_vol_nan_reason"] == "below intrinsic"


def test_unrunnable_scheme_is_config_error(tmp_path, capsys):
    small = ["--paths", "8", "--steps", "4"]
    gbergomi = ["--model", "gbergomi", "--xi0", "0.04", "--nu", "1.0",
                "--hurst", "0.3", "--rho", "-0.7", "--beta-decay", "1",
                "--scheme", "hybrid", *small]
    gamma = ["--kernel", "gamma", "--alpha", "-0.2", "--beta", "-1", *small,
             "--output-dir", str(tmp_path)]
    for argv in (["price", *gbergomi],
                 ["smile", *gbergomi, "--output-dir", str(tmp_path)],
                 ["simulate", *gamma, "--scheme", "hybrid"],
                 ["simulate", *gamma, "--scheme", "cholesky"]):
        code, _, err = _run(capsys, argv)
        assert code == 1, (argv, err)
        assert "config error" in err and "Riemann-Liouville" in err


# ----------------------------------------------------------------------
# american
# ----------------------------------------------------------------------

def test_american_record_and_tree_dump(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "american", "--model", "rbergomi", "--xi0", "0.04", "--nu", "1.0",
        "--hurst", "0.3", "--rho", "-1.0", "--depth", "4", "--rate", "0.05",
        "--strike", "1.1", "--payoff", "put", "--dump-tree",
        "--output-dir", str(tmp_path)])
    assert code == 0
    record = json.loads(out)
    for key in ("price", "european_price", "early_exercise_premium",
                "depth", "branching"):
        assert key in record
    assert record["branching"] == 2 and record["depth"] == 4
    assert record["price"] >= record["european_price"]
    lines = (tmp_path / "tree.csv").read_text().splitlines()
    assert len(lines) == 1 + sum(2 ** k for k in range(5))
    assert lines[0] == "level,node,log_stock,stock,variance"
    root = lines[1].split(",")
    assert float(root[2]) == 0.0 and float(root[4]) == 0.04


def test_american_dump_writes_the_stock_at_the_model_spot(tmp_path, capsys):
    code, _, _ = _run(capsys, [
        "american", "--model", "rbergomi", "--xi0", "0.04", "--nu", "1.0",
        "--hurst", "0.3", "--rho", "-0.7", "--spot", "2.0", "--depth", "2",
        "--dump-tree", "--output-dir", str(tmp_path)])
    assert code == 0
    rows = [line.split(",") for line in
            (tmp_path / "tree.csv").read_text().splitlines()[1:]]
    assert len(rows) == 1 + 4 + 16
    assert float(rows[0][3]) == 2.0
    for _, _, log_stock, stock, _ in rows:
        assert float(stock) == float(2.0 * np.exp(float(log_stock)))


def test_american_reports_tree_work(tmp_path, capsys):
    argv = ["american", "--model", "rbergomi", "--xi0", "0.04", "--nu", "1.0",
            "--hurst", "0.3", "--rho", "-0.7", "--depth", "4",
            "--output-dir", str(tmp_path)]
    nodes = sum(4 ** k for k in range(5))
    level_bytes = 8 * (3 * nodes - 1)  # log-stock, variance, increments
    code, out, _ = _run(capsys, argv)
    assert code == 0
    work = json.loads(out)["metadata"]["tree"]
    assert set(work) == {"nodes", "ram_bytes", "spilled_bytes", "clamp_cells",
                         "domain_clips", "build_s", "induction_s",
                         "last_step_s"}
    assert work["nodes"] == nodes
    assert (work["ram_bytes"], work["spilled_bytes"]) == (level_bytes, 0)
    assert work["build_s"] > 0.0 and work["induction_s"] > 0.0
    assert 0.0 < work["last_step_s"] < work["induction_s"]

    cfg = tmp_path / "spill.json"
    cfg.write_text(json.dumps({"tree": {"max_in_memory_bytes": 1024}}))
    code, out, _ = _run(capsys, argv + ["--config", str(cfg)])
    assert code == 0
    work = json.loads(out)["metadata"]["tree"]
    assert work["spilled_bytes"] > 0
    assert work["ram_bytes"] + work["spilled_bytes"] == level_bytes


def test_american_dump_depth_guard(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "american", "--model", "rbergomi", "--xi0", "0.04", "--nu", "1.0",
        "--hurst", "0.3", "--rho", "-1.0", "--depth", "7", "--dump-tree",
        "--output-dir", str(tmp_path)])
    assert code == 1 and "depth <= 6" in err


def test_american_nonpositive_strike_is_config_error(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "american", "--model", "rbergomi", "--xi0", "0.04", "--nu", "1.0",
        "--hurst", "0.3", "--rho", "-1.0", "--depth", "4", "--strike", "0",
        "--output-dir", str(tmp_path)])
    assert code == 1 and "strike must be positive" in err


# ----------------------------------------------------------------------
# validate / bench
# ----------------------------------------------------------------------

def test_validate_fast_config_passes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "covariance_paths": 20_000,
        "covariance_seeds": _COV_SEEDS,
        "martingale_paths": 8000,
        "suites": ["moment_identity", "fft_naive", "covariance",
                   "martingale"],
    }))
    code, out, _ = _run(capsys, ["validate", "--config", str(cfg)])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["failed"] == []
    names = {r["name"] for r in report["invariants"]}
    assert "covariance[hybrid]" in names and "martingale[rbergomi]" in names


def test_validate_corrupted_weight_table_fails_by_name(capsys):
    code, out, _ = _run(capsys, [
        "validate", "--suites", "moment_identity,fft_naive",
        "--corrupt-weight-table", "1e-6"])
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    assert "moment_identity[H=0.05]" in report["failed"]
    assert "fft_naive_agreement" not in report["failed"]


@pytest.mark.parametrize("paths", ["0", "-5"])
def test_validate_nonpositive_covariance_paths_is_config_error(paths, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # sqrt of a negative ratio would warn
        code, _, err = _run(capsys, ["validate", "--suites", "covariance",
                                     "--covariance-paths", paths])
    assert code == 1
    assert err.startswith("config error: paths must be an integer >= 1"), err


def test_validate_hurst_grid_flag(capsys):
    code, out, _ = _run(capsys, [
        "validate", "--suites", "moment_identity", "--hursts", "0.2,0.4"])
    assert code == 0
    names = [r["name"] for r in json.loads(out)["invariants"]]
    assert names == ["moment_identity[H=0.2]", "moment_identity[H=0.4]"]


def test_bench_report(capsys):
    code, out, _ = _run(capsys, [
        "bench", "--schemes", "rdonsker-fft,markovian-euler",
        "--grid", "16,32", "--paths", "8", "--trials", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert len(report["timings"]) == 4
    code, _, err = _run(capsys, ["bench", "--schemes", "bogus"])
    assert code == 1 and "unknown bench schemes" in err


# ----------------------------------------------------------------------
# threads and entry point
# ----------------------------------------------------------------------

def test_threads_flag_reflected_in_metadata(tmp_path, capsys, monkeypatch):
    # the worker count is process-wide: restored for the tests after this
    monkeypatch.setattr(_config, "_threads", None)
    code, out, _ = _run(capsys, [
        "--threads", "2", "simulate", "--paths", "2", "--steps", "4",
        "--output-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["threads"] == 2


@pytest.mark.parametrize("cpus,threads", [(1, 1), (2, 2), (8, 2)])
def test_the_default_thread_count_is_the_cpu_count_up_to_two(
        tmp_path, capsys, monkeypatch, cpus, threads):
    # two CPUs is the most any pooled workload has been timed on
    monkeypatch.setattr(_config, "_threads", None)
    monkeypatch.setattr(_config, "_cpus", lambda: cpus)
    monkeypatch.delenv("ROUGHSIM_THREADS", raising=False)
    code, out, _ = _run(capsys, ["simulate", "--paths", "2", "--steps", "4",
                                 "--output-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["threads"] == threads


def test_module_entry_point_and_env_threads(tmp_path):
    # the child sees only PATH, ROUGHSIM_THREADS and a PYTHONPATH naming
    # the directory of the roughsim package this suite imported, so the
    # entry point runs whether or not the package is installed
    package_root = os.path.dirname(os.path.dirname(roughsim.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "roughsim.cli", "simulate", "--paths", "2",
         "--steps", "4", "--output-dir", str(tmp_path)],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin",
                                             "PYTHONPATH": package_root,
                                             "ROUGHSIM_THREADS": "3"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["threads"] == 3


def test_a_thread_count_of_2_to_the_8_is_refused(capsys, set_threads):
    # the pool starts up to that many OS threads, each chunk holding a
    # 1/count share: refused before any chunk runs
    with pytest.raises(ValueError, match=r"^thread count must be an integer "
                                         r"in \[1, 2\*\*8\), got 256$"):
        set_threads(2 ** 8)
    set_threads(2 ** 8 - 1)  # the largest count; no pool is started here
    assert _config.get_threads() == 255
    code, out, err = _run(capsys, ["--threads", "256", "price", "--paths",
                                   "2", "--steps", "2"])
    assert (code, out) == (1, "")
    assert err == ("config error: thread count must be an integer in "
                   "[1, 2**8), got 256\n")


@pytest.mark.parametrize("value", ["abc", "0", "256"])
def test_a_bad_env_thread_count_is_config_error(value):
    # checked by --threads's rule when first read, not at import
    package_root = os.path.dirname(os.path.dirname(roughsim.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "roughsim.cli", "price", "--paths", "2",
         "--steps", "2"],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin",
                                             "PYTHONPATH": package_root,
                                             "ROUGHSIM_THREADS": value})
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ("config error: ROUGHSIM_THREADS must be an "
                           f"integer in [1, 2**8), got {value!r}\n")


# ----------------------------------------------------------------------
# config values are checked by type and choice
# ----------------------------------------------------------------------

_FLAT_MODEL = {"type": "rbergomi", "xi0": 0.04, "nu": 0.0, "hurst": 0.3,
               "rho": 0.0}


def test_config_string_bool_is_config_error(tmp_path, capsys):
    # bool("false") is True: a string must not switch antithetics on
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": _FLAT_MODEL, "mc": {
        "paths": 64, "steps": 8, "antithetic": "false"}}))
    code, _, err = _run(capsys, ["smile", "--config", str(cfg),
                                 "--output-dir", str(tmp_path)])
    assert code == 1 and "mc.antithetic" in err
    assert not (tmp_path / "smile.csv").exists()


def test_config_covariance_seeds_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"covariance_seeds": [1, 2]}))
    code, _, err = _run(capsys, ["validate", "--config", str(cfg)])
    assert code == 1 and "covariance_seeds" in err
    cfg.write_text(json.dumps({"covariance_seeds": {"bogus": 1}}))
    code, _, err = _run(capsys, ["validate", "--config", str(cfg)])
    assert code == 1 and "bogus" in err


@pytest.mark.parametrize("argv", [
    ["price", *_PRICE_ARGS[:-1], "-1"],
    ["simulate", "--paths", "2", "--steps", "4", "--seed", "-1"],
    ["simulate", "--scheme", "cholesky", "--paths", "2", "--steps", "4",
     "--seed", "18446744073709551616"],
    ["bench", "--grid", "16", "--paths", "8", "--trials", "1", "--seed", "-1"],
])
def test_out_of_range_seed_is_config_error(argv, tmp_path, capsys):
    if argv[0] == "simulate":
        argv = argv + ["--output-dir", str(tmp_path / "out")]
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert err.startswith("config error") and "seed" in err
    assert not (tmp_path / "out").exists()


def test_negative_covariance_seed_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["covariance"],
                               "covariance_paths": 100,
                               "covariance_seeds": {"cholesky": -1}}))
    code, _, err = _run(capsys, ["validate", "--config", str(cfg)])
    assert code == 1
    assert err.startswith("config error") and "seed" in err


def test_config_choices_match_the_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for bad in ({"mc": {"scheme": "cholesky"}}, {"payoff": "straddle"},
                {"model": {**_FLAT_MODEL, "type": "heston"}}):
        cfg.write_text(json.dumps({"model": _FLAT_MODEL, **bad}))
        code, _, err = _run(capsys, ["price", "--config", str(cfg)])
        assert code == 1 and "choose from" in err, bad
    with pytest.raises(SystemExit):  # the flag refuses the same value
        main(["price", "--scheme", "cholesky"])
    capsys.readouterr()


def test_the_mc_and_tree_rows_hold_one_key_per_config_field():
    # the rows are written by hand next to the dataclasses; MCConfig's
    # num_paths is the rows' paths and its grid their steps and horizon
    def keys(command, section):
        return sorted(opt.key for opt in cli._COMMANDS[command][2]
                      if opt.section == section)

    renamed = {"num_paths": ["paths"], "grid": ["steps", "horizon"]}
    mc = sorted(key for f in fields(MCConfig)
                for key in renamed.get(f.name, [f.name]))
    assert keys("smile", "mc") == keys("price", "mc") == mc
    simulate = keys("simulate", "mc")  # no estimator: no antithetics
    assert len(set(simulate)) == len(simulate) and set(simulate) < set(mc)
    tree = sorted(f.name for f in fields(TreeConfig) if f.name != "model")
    assert keys("american", "tree") == tree
    for argv in (["smile", "--method", "fft"],
                 ["american", "--branching", "4"]):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)


def test_simulate_kernel_rejects_foreign_keys(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "simulate", "--kernel", "gamma", "--alpha", "-0.2", "--beta", "-1",
        "--hurst", "0.4", "--output-dir", str(tmp_path)])
    assert code == 1 and "hurst" in err
    assert not (tmp_path / "paths.csv").exists()


# ----------------------------------------------------------------------
# config round-trip: flags and a config file give the same config
# ----------------------------------------------------------------------

_NUM = st.floats(allow_nan=False, allow_infinity=False)
_INT = st.integers(-10 ** 6, 10 ** 6)
_NAME = st.text(alphabet="abcxyz_-.0123", min_size=1, max_size=8)


def _pick(*names):
    return st.sampled_from(names)


_MODEL_FLAGS = {
    "--model": ("model.type", _pick("rbergomi", "gbergomi", "rheston_gjrs")),
    "--beta-decay": ("model.beta", _NUM),
    **{f"--{k}": (f"model.{k}", _NUM) for k in (
        "xi0", "nu", "hurst", "rho", "spot", "eta", "kappa", "theta", "xi",
        "y0")},
}
_MC_FLAGS = {
    **{f"--{k}": (f"mc.{k}", _INT) for k in ("paths", "steps", "seed")},
    "--horizon": ("mc.horizon", _NUM),
}
_PRICING_FLAGS = {
    **_MODEL_FLAGS, **_MC_FLAGS,
    "--scheme": ("mc.scheme", _pick("rdonsker_matched", "rdonsker_left",
                                    "hybrid")),
    "--antithetic": ("mc.antithetic", st.booleans()),
    "--variance-reduction": ("mc.variance_reduction",
                             _pick("conditional_bs", "none")),
}
_PAYOFF_FLAG = {"--payoff": ("payoff", _pick("call", "put"))}
# subcommand -> flag -> (config place, value strategy)
_FLAGS = {
    "simulate": {
        **_MC_FLAGS,
        "--kernel": ("kernel.type", _pick("rl", "gamma", "powerlaw")),
        **{f"--{k}": (f"kernel.{k}", _NUM) for k in ("hurst", "alpha",
                                                     "beta")},
        "--scheme": ("mc.scheme", _pick("rdonsker_matched", "rdonsker_left",
                                        "hybrid", "cholesky")),
        "--format": ("output.format", _pick("csv", "binary")),
        "--prefix": ("output.prefix", _NAME),
    },
    "smile": {**_PRICING_FLAGS, **_PAYOFF_FLAG,
              "--strikes": ("strikes", st.lists(_NUM, max_size=4)),
              "--prefix": ("output.prefix", _NAME)},
    "price": {**_PRICING_FLAGS, **_PAYOFF_FLAG, "--strike": ("strike", _NUM)},
    "american": {
        **_MODEL_FLAGS, **_PAYOFF_FLAG,
        "--depth": ("tree.depth", _INT),
        **{f"--{k}": (f"tree.{k}", _NUM) for k in ("rate", "dividend",
                                                   "horizon")},
        "--weights": ("tree.weights", _pick("moment_matched", "left_point")),
        "--strike": ("strike", _NUM),
        "--dump-tree": ("dump_tree", _NAME),
    },
    "validate": {
        "--hursts": ("hursts", st.lists(_NUM, max_size=4)),
        "--covariance-paths": ("covariance_paths", _INT),
        "--martingale-paths": ("martingale_paths", _INT),
        "--suites": ("suites", st.lists(_pick(
            "moment_identity", "fft_naive", "covariance", "martingale"),
            max_size=4)),
    },
    "bench": {
        "--schemes": ("schemes", st.lists(_pick(
            "rdonsker-fft", "rdonsker-naive", "hybrid", "markovian-euler"),
            max_size=4)),
        "--grid": ("grid", st.lists(_INT, max_size=4)),
        **{f"--{k}": (k, _INT) for k in ("paths", "trials", "seed")},
        "--hurst": ("hurst", _NUM),
    },
}


def _flag_text(flag, value):
    if isinstance(value, bool):
        return flag if value else "--no-" + flag[2:]
    if isinstance(value, list):
        return f"{flag}=" + ",".join(repr(v) if not isinstance(v, str) else v
                                     for v in value)
    return f"{flag}={value if isinstance(value, str) else repr(value)}"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flags_and_config_file_round_trip(data):
    command = data.draw(st.sampled_from(sorted(_FLAGS)))
    chosen = data.draw(st.lists(st.sampled_from(sorted(_FLAGS[command])),
                                unique=True))
    argv, expected = [command], {}
    for flag in chosen:
        place, strategy = _FLAGS[command][flag]
        value = data.draw(strategy)
        argv.append(_flag_text(flag, value))
        *section, key = place.split(".")
        holder = expected.setdefault(section[0], {}) if section else expected
        holder[key] = value
    from_flags = cli._assemble_config(cli.build_parser().parse_args(argv))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(expected, fh)
        from_file = cli._assemble_config(
            cli.build_parser().parse_args([command, "--config", path]))
    assert from_flags == expected and from_file == expected
    assert cli._config_hash(from_flags) == cli._config_hash(from_file)
