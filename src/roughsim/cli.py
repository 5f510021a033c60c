"""Config-driven batch front-end.

Subcommands: `simulate` (path sets), `smile` (implied-vol curves),
`price` (single European contract), `american` (bushy-tree exercise),
`validate` (named invariant suites), `bench` (timing tables).

Configuration comes from an optional JSON file (`--config`) merged with
command-line flags; flags win. One table per subcommand (`_COMMANDS`)
generates its flags, its accepted config keys and the type and choice
checks on config values; the choice lists are the library's own. Unknown
keys and ill-typed values are rejected before anything runs. Every run
is deterministic given (config, seed) and the emitted metadata embeds
the config hash, the git revision and the scheme tags that produced the
artifact.

Exit codes: 0 success, 1 configuration error, 2 runtime/validation
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bench as bench_mod
from . import validation
from ._config import set_threads, get_threads
from .kernels import KERNEL_KINDS, Grid, kernel_from_config
from .models import MODEL_TYPES, model_from_config
from .pricing import PAYOFFS, SCHEMES, VARIANCE_REDUCTIONS, MCConfig, smile
from .shocks import check_seed
from .trees import (
    WEIGHTS,
    TreeConfig,
    build_tree,
    call_payoff,
    put_payoff,
    tree_price_american,
)
from .volterra import CONV_METHODS, save_binary, save_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_IO = 3

_TREE_DUMP = "tree.csv"


class ConfigError(Exception):
    """Invalid configuration (bad file, unknown key, bad value)."""


@contextmanager
def _config_errors():
    """Raise a ValueError from the block as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------

def _load_config_file(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    return config


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _metadata(command: str, config: dict, scheme_tags, runtime: float) -> dict:
    return {
        "command": command,
        "config_hash": _config_hash(config),
        "git_revision": _git_revision(),
        "scheme_tags": sorted(set(scheme_tags)),
        "threads": get_threads(),
        "runtime_seconds": runtime,
    }


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True,
                                     default=_json_default) + "\n")


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------

def _output_dir(args) -> Path:
    """The --output-dir, created with its parents if missing."""
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _mc_settings(config: dict, paths: int) -> dict:
    """The `mc` section over MCConfig's defaults and the command's own."""
    defaults = {f.name: f.default for f in fields(MCConfig)
                if f.default is not MISSING}
    return {**defaults, "paths": paths, "steps": 256, "horizon": 1.0,
            **config.get("mc", {})}


def cmd_simulate(config: dict, args) -> dict:
    start = time.perf_counter()
    kernel_cfg = {"type": "rl", **config.get("kernel", {})}
    if kernel_cfg["type"] == "rl" and "alpha" not in kernel_cfg:
        kernel_cfg.setdefault("hurst", 0.3)
    mc = _mc_settings(config, 100)
    output = {"format": "csv", "prefix": "paths", **config.get("output", {})}
    with _config_errors():
        kernel = kernel_from_config(kernel_cfg)
        grid = Grid(mc["steps"], float(mc["horizon"]))
        check_seed(mc["seed"])
        out_dir = _output_dir(args)
        paths = validation.sample_paths(mc["scheme"], kernel, grid,
                                        mc["paths"], mc["seed"], mc["method"])

    csv = output["format"] == "csv"
    data_path = out_dir / (output["prefix"] + (".csv" if csv else ".bin"))
    (save_csv if csv else save_binary)(paths, data_path)
    meta = _metadata("simulate", config, [paths.scheme_tag],
                     time.perf_counter() - start)
    meta["artifact"] = str(data_path)
    meta["shape"] = [int(paths.num_paths), int(grid.n + 1)]
    _write_json(out_dir / (output["prefix"] + ".meta.json"), meta)
    return meta


def _model_and_mc(config: dict):
    if "model" not in config:
        raise ConfigError("missing config section 'model'")
    mc = _mc_settings(config, 40_000)
    with _config_errors():
        return model_from_config(config["model"]), MCConfig(
            num_paths=mc["paths"], grid=Grid(mc["steps"], float(mc["horizon"])),
            scheme=mc["scheme"], variance_reduction=mc["variance_reduction"],
            antithetic=mc["antithetic"], seed=mc["seed"], method=mc["method"])


def cmd_smile(config: dict, args) -> dict:
    start = time.perf_counter()
    model, mc_config = _model_and_mc(config)
    out_dir = _output_dir(args)
    strikes = config.get("strikes", [0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2])
    with _config_errors():
        result = smile(model, mc_config, strikes,
                       payoff=config.get("payoff", "call"))
    prefix = config.get("output", {}).get("prefix", "smile")
    csv_path = out_dir / f"{prefix}.csv"
    rows = np.column_stack([result.strikes, result.prices, result.stderrs,
                            result.implied_vols])
    np.savetxt(csv_path, rows, delimiter=",", fmt="%.17g",
               header="strike,price,stderr,implied_vol", comments="")
    meta = _metadata("smile", config, [result.metadata["scheme"]],
                     time.perf_counter() - start)
    meta["artifact"] = str(csv_path)
    meta["pricing"] = {k: v for k, v in result.metadata.items()
                       if k not in ("model",)}
    _write_json(out_dir / f"{prefix}.meta.json", meta)
    return meta


def cmd_price(config: dict, args) -> dict:
    start = time.perf_counter()
    strike = float(config.get("strike", 1.0))
    model, mc_config = _model_and_mc(config)
    with _config_errors():
        result = smile(model, mc_config, [strike],
                       payoff=config.get("payoff", "call"))
    return {
        "strike": strike, "payoff": result.metadata["payoff"],
        "price": float(result.prices[0]), "stderr": float(result.stderrs[0]),
        "implied_vol": float(result.implied_vols[0]),
        "implied_vol_nan_reason": result.metadata["iv_nan_reasons"].get(0),
        "metadata": _metadata("price", config, [result.metadata["scheme"]],
                              time.perf_counter() - start),
    }


def _dump_tree_csv(tree, path) -> None:
    with open(path, "w") as fh:
        fh.write("level,node,log_stock,stock,variance\n")
        for level in range(tree.depth + 1):
            xs = np.asarray(tree.log_stock[level])
            vs = np.asarray(tree.variance[level])
            for node in range(xs.shape[0]):
                fh.write(f"{level},{node},{float(xs[node])!r},"
                         f"{float(np.exp(xs[node]))!r},{float(vs[node])!r}\n")


def cmd_american(config: dict, args) -> dict:
    start = time.perf_counter()
    if "model" not in config:
        raise ConfigError("missing config section 'model'")
    strike = float(config.get("strike", 1.0))
    payoff_name = config.get("payoff", "put")
    with _config_errors():
        model = model_from_config(config["model"])
        tree_config = TreeConfig(model=model,
                                 **{"depth": 10, **config.get("tree", {})})
        payoff = (call_payoff if payoff_name == "call" else put_payoff)(strike)
    dump = config.get("dump_tree")
    if dump and tree_config.depth > 6:
        raise ConfigError("--dump-tree is limited to depth <= 6")
    if dump:
        dump_path = _output_dir(args) / (
            dump if isinstance(dump, str) else _TREE_DUMP)

    tree = build_tree(tree_config)
    details = tree_price_american(tree, payoff, details=True)
    record = {
        "price": details["price"],
        "european_price": details["european_price"],
        "early_exercise_premium": details["early_exercise_premium"],
        "depth": details["depth"],
        "branching": details["branching"],
        "strike": strike,
        "payoff": payoff_name,
        "metadata": _metadata("american", config, [tree_config.weights],
                              time.perf_counter() - start),
    }
    record["metadata"]["exercise_counts"] = [
        int(c) for c in details["exercise_counts"]]
    if dump:
        _dump_tree_csv(tree, dump_path)
        record["metadata"]["tree_dump"] = str(dump_path)
    return record


def cmd_validate(config: dict, args) -> dict:
    hook = None
    if args.corrupt:
        def hook(weights):
            weights[0] *= 1.0 + args.corrupt
            return weights
    with _config_errors():
        return validation.run_invariants(weight_hook=hook, **config)


def cmd_bench(config: dict, args) -> dict:
    with _config_errors():
        return bench_mod.run_bench(**config)


# ----------------------------------------------------------------------
# the settable values: one table per subcommand
# ----------------------------------------------------------------------

class Opt(NamedTuple):
    """One settable value of a subcommand: its config key and its flag.

    `type` is int, float, str or bool; [t] is a JSON list of t, given to
    the flag as comma-separated text; {str: t} is a JSON object of t; a
    tuple lists the types a JSON value may have, the first one being the
    flag's. `choices` bound the value, a list's items or an object's
    keys. `flag` defaults to --key; None marks a key that only a config
    file sets. With `const` the flag's value is optional.
    """

    section: str | None
    key: str
    type: object = float
    choices: tuple | None = None
    help: str | None = None
    flag: str | None = ""
    const: str | None = None


_MODEL = (
    Opt("model", "type", str, MODEL_TYPES, flag="--model"),
    Opt("model", "xi0", (float, [[float]])),
    *(Opt("model", key) for key in ("nu", "hurst", "rho", "spot", "eta",
                                    "kappa", "theta", "xi", "y0")),
    Opt("model", "beta", flag="--beta-decay"),
)


def _mc(schemes) -> tuple:
    return (*(Opt("mc", key, int) for key in ("paths", "steps", "seed")),
            Opt("mc", "horizon"), Opt("mc", "scheme", str, schemes),
            Opt("mc", "method", str, CONV_METHODS))


_PRICING = (*_MODEL, *_mc(SCHEMES), Opt("mc", "antithetic", bool),
            Opt("mc", "variance_reduction", str, VARIANCE_REDUCTIONS))
_PAYOFF = Opt(None, "payoff", str, PAYOFFS)

# name -> (help, handler, table); rows are in flag order
_COMMANDS = {
    "simulate": ("generate Volterra path sets", cmd_simulate, (
        Opt("kernel", "type", str, KERNEL_KINDS, flag="--kernel"),
        *(Opt("kernel", key) for key in ("hurst", "alpha", "beta")),
        *_mc(validation.SAMPLERS),
        Opt("output", "format", str, ("csv", "binary")),
        Opt("output", "prefix", str))),
    "smile": ("implied-volatility curve via MC", cmd_smile, (
        *_PRICING,
        Opt(None, "strikes", [float], help="comma-separated strike list"),
        _PAYOFF, Opt("output", "prefix", str))),
    "price": ("single European contract via MC", cmd_price, (
        *_PRICING, Opt(None, "strike"), _PAYOFF)),
    "american": ("bushy-tree American pricing", cmd_american, (
        *_MODEL, Opt("tree", "depth", int),
        *(Opt("tree", key) for key in ("rate", "dividend", "horizon")),
        Opt("tree", "branching", int), Opt("tree", "weights", str, WEIGHTS),
        Opt(None, "strike"), _PAYOFF,
        Opt(None, "dump_tree", (str, bool), const=_TREE_DUMP,
            help="level-ordered node CSV (depth<=6)"),
        Opt("tree", "max_in_memory_bytes", int, flag=None))),
    "validate": ("run the named invariant suites", cmd_validate, (
        Opt(None, "hursts", [float], help="comma-separated Hurst grid"),
        Opt(None, "covariance_paths", int),
        Opt(None, "martingale_paths", int),
        Opt(None, "suites", [str], validation.SUITES,
            help="comma-separated invariant suite names"),
        Opt(None, "covariance_seeds", {str: int},
            tuple(validation.COVARIANCE_SEEDS), flag=None))),
    "bench": ("median timing table per scheme", cmd_bench, (
        Opt(None, "schemes", [str], bench_mod.BENCH_SCHEMES,
            help="comma-separated scheme list"),
        Opt(None, "grid", [int], help="comma-separated step counts"),
        *(Opt(None, key, int) for key in ("paths", "trials", "seed")),
        Opt(None, "hurst"))),
}


def _flag(opt: Opt) -> str:
    return opt.flag or "--" + opt.key.replace("_", "-")


def _valid(kind, value) -> bool:
    """Whether a JSON value has the type `kind` of an Opt."""
    if isinstance(kind, tuple):
        return any(_valid(k, value) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_valid(kind[0], v) for v in value)
    if isinstance(kind, dict):
        return isinstance(value, dict) and all(_valid(kind[str], v)
                                               for v in value.values())
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if kind is float else kind)


def _type_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_type_name, kind))
    if isinstance(kind, list):
        return f"[{_type_name(kind[0])}]"
    if isinstance(kind, dict):
        return f"{{str: {_type_name(kind[str])}}}"
    return kind.__name__


def _check_config(config: dict, table, command: str) -> None:
    sections = {opt.section for opt in table} - {None}
    unknown = (set(config) - sections
               - {opt.key for opt in table if opt.section is None})
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    for section in sections & set(config):
        if not isinstance(config[section], dict):
            raise ConfigError(f"config section {section!r} must be an object")
        bad = set(config[section]) - {opt.key for opt in table
                                      if opt.section == section}
        if bad:
            raise ConfigError(
                f"unknown keys in config section {section!r}: {sorted(bad)}")
    for opt in table:
        holder = config if opt.section is None else config.get(opt.section, {})
        if opt.key not in holder:
            continue
        value = holder[opt.key]
        name = opt.key if opt.section is None else f"{opt.section}.{opt.key}"
        if not _valid(opt.type, value):
            raise ConfigError(f"config value {name} must be "
                              f"{_type_name(opt.type)}, got {value!r}")
        if opt.choices is not None:
            bad = [v for v in ([value] if isinstance(value, str) else value)
                   if v not in opt.choices]
            if bad:
                raise ConfigError(f"unknown {command} {name}: {bad}, "
                                  f"choose from {opt.choices}")


def _split(text: str, kind) -> list:
    """Comma-separated flag text as the list a config file holds."""
    items = [tok.strip() for tok in text.split(",") if tok.strip()]
    if kind is str:
        return items
    try:
        return [kind(float(tok)) for tok in items]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Keeps `--flag=--` as the value `--`: argparse before Python 3.12
    drops every `--` as the end-of-options marker, but an option never
    takes a separate `--`, and each option here takes at most one value."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roughsim",
        description="Rough-volatility simulation, smiles and tree pricing")
    parser.add_argument("--threads", type=int,
                        help="FFT worker cap (env: ROUGHSIM_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (about, handler, table) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=handler)
        p.add_argument("--config")
        for opt in table:
            if opt.flag is None:
                continue
            kind = opt.type[0] if isinstance(opt.type, tuple) else opt.type
            if kind is bool:
                kw = {"action": argparse.BooleanOptionalAction}
            elif isinstance(kind, list):
                kw = {}  # comma-separated text, split by _assemble_config
            else:
                kw = {"type": kind, "choices": opt.choices}
            if opt.const is not None:
                kw.update(nargs="?", const=opt.const)
            p.add_argument(_flag(opt), help=opt.help, **kw)
        if name == "validate":
            p.add_argument("--corrupt-weight-table", type=float, default=0.0,
                           dest="corrupt", help="fault-injection self-test: "
                           "scale a weight-table entry by (1+x); the run must "
                           "fail by name")
        if name in ("simulate", "smile", "american"):
            p.add_argument("--output-dir", default=".")
    return parser


def _assemble_config(args) -> dict:
    config = _load_config_file(args.config) if args.config else {}
    table = _COMMANDS[args.command][2]
    for opt in table:
        if opt.flag is None:
            continue
        value = getattr(args, _flag(opt)[2:].replace("-", "_"))
        if value is None:
            continue
        if isinstance(opt.type, list):
            value = _split(value, opt.type[0])
        holder = config if opt.section is None else config.setdefault(
            opt.section, {})
        if isinstance(holder, dict):  # else _check_config names the section
            holder[opt.key] = value
    _check_config(config, table, args.command)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None:
            set_threads(args.threads)
        config = _assemble_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = args.run(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(json.dumps(report, indent=2, sort_keys=True,
                     default=_json_default))
    if args.command == "validate" and not report["passed"]:
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
