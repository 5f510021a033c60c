#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with a claim verdict.

    python3 tools/ab_pairs.py --workload smile-n256 --pairs 10 --seed 101 \
        --metric op_s_p50 --out BENCH.json

The parent is the committed tree of `--parent`, extracted by `git archive`
into a temporary directory (which leaves no worktree behind in the
repository); the change is the working tree. Pair i runs
`benchmark/run.py --trace 0` for BENCHMARK.json's `run_seconds` on both
sides with seed `--seed` + i, the parent first on even pairs and the
change first on odd ones. For each workload and end-to-end metric the
report gives both sides' medians and quartiles and the change's wins. The
claim is judged on `--metric`, any BENCHMARK.json end-to-end metric
(default `op_s_p50`), and recorded as the report's "metric". It is met
when every change run is correct, the change fails no more ops than the
parent, wins at least nine pairs in ten on that metric and its median
beats the parent's by more than the parent's interquartile range.
Every end-to-end metric of every workload also gets a regression verdict
against its BENCHMARK.json bound (a relative change): "unresolved" when
either side's IQR exceeds the bound relative to the parent's median, else
"worse beyond bound" when the change's median is worse than the parent's
by more than the bound, else "within bound". After its pairs, each workload gets
one `--trace 1` run per side at seed `--seed`; its per-layer metrics and
their change-minus-parent deltas are stored under the workload's "layers".
Each side's runs write and read their bytecode under that side's own
PYTHONPYCACHEPREFIX in the temporary directory, so neither side imports
from a `__pycache__` the other lacks. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9
CLAIMED = "op_s_p50"


def extract(rev: str, into: Path) -> Path:
    """The committed tree of `rev`, unpacked under `into`."""
    into.mkdir(parents=True)
    archive = into.with_suffix(".tar")
    with archive.open("wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=fh,
                       check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return into


def commit_of(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def child_env(pycache: Path) -> dict:
    """This process's environment for a benchmark run, with bytecode
    written and read under `pycache`."""
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             pycache: Path, trace: int = 0) -> dict:
    """Metric values of one benchmark run in `tree`: the end-to-end metrics
    untraced, the per-layer metrics with `trace` 1. The run's bytecode
    cache lives under `pycache`."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, env=child_env(pycache))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["correct"] = result["correct"]
    values["failed"] = result["failed"]
    values["attempted"] = result["attempted"]
    return values


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def better(a: float, b: float, direction: str) -> bool:
    """Whether `a` beats `b` for a metric whose better side is `direction`."""
    return a < b if direction == "lower" else a > b


def regression(parent: dict, change: dict, direction: str, bound: float) -> str:
    """Whether the change's median is worse than the parent's beyond `bound`.

    `bound` is relative to the parent's median; an IQR on either side
    wider than it cannot tell a regression of that size from noise.
    """
    scale = abs(parent["median"])
    if max(parent["iqr"], change["iqr"]) > bound * scale:
        return "unresolved"
    worse = (change["median"] - parent["median"] if direction == "lower"
             else parent["median"] - change["median"])
    return "worse beyond bound" if worse > bound * scale else "within bound"


def compare(parent_runs: list, change_runs: list, specs: dict,
            claimed: str = CLAIMED) -> dict:
    """Per-metric medians, quartiles, wins and regression verdicts, and the
    verdict on the `claimed` metric; `specs` maps each metric to its
    BENCHMARK.json entry."""
    metrics = {}
    for name, spec in specs.items():
        direction = spec["better"]
        p = [run[name] for run in parent_runs]
        c = [run[name] for run in change_runs]
        p_sum, c_sum = summary(p), summary(c)
        metrics[name] = {
            "better": direction, "bound": spec["bound"],
            "parent": p_sum, "change": c_sum,
            "wins": sum(better(b, a, direction) for a, b in zip(p, c)),
            "relative_change": c_sum["median"] / p_sum["median"] - 1.0,
            "regression": regression(p_sum, c_sum, direction, spec["bound"]),
        }
    claim = metrics[claimed]
    failed = {side: sum(run["failed"] for run in runs)
              for side, runs in (("parent", parent_runs),
                                 ("change", change_runs))}
    claim_met = (all(run["correct"] for run in change_runs)
                 and failed["change"] <= failed["parent"]
                 and claim["wins"] >= WIN_SHARE * len(parent_runs)
                 and better(claim["change"]["median"], claim["parent"]["median"],
                            claim["better"])
                 and abs(claim["change"]["median"] - claim["parent"]["median"])
                 > claim["parent"]["iqr"])
    return {"metrics": metrics, "failed": failed, "claim_met": claim_met}


def layer_deltas(parent: dict, change: dict) -> dict:
    """Both sides' per-layer metrics of one traced run each, and each
    metric's change-minus-parent delta."""
    return {"parent": parent, "change": change,
            "delta": {name: change[name] - parent[name] for name in parent
                      if name != "correct"}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--workload", action="append", required=True,
                        choices=names + ["all"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--metric", default=CLAIMED,
                        choices=[m["name"] for m in spec["end_to_end"]],
                        help="the end-to-end metric the claim is judged on")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    workloads = names if "all" in args.workload else args.workload
    specs = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    record = {
        "pairs": args.pairs, "seed": args.seed, "seconds": seconds,
        "metric": args.metric, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "parent": {"rev": args.parent, "commit": commit_of(args.parent)},
        "change": {"rev": "working tree", "commit": commit_of("HEAD")},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        parent = extract(args.parent, Path(tmp) / "parent")
        trees = {"parent": parent, "change": ROOT}
        caches = {side: Path(tmp) / f"pycache-{side}" for side in trees}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(trees[side], workload,
                                               args.seed + i, seconds,
                                               caches[side]))
                p, c = runs["parent"][-1], runs["change"][-1]
                print(f"{workload} pair {i} seed {args.seed + i}: "
                      f"{args.metric} parent {p[args.metric]:.4g} "
                      f"change {c[args.metric]:.4g}", flush=True)
            result = compare(runs["parent"], runs["change"], specs,
                             args.metric)
            result.update(pairs=args.pairs, seed=args.seed, runs=runs)
            traced = {side: run_once(trees[side], workload, args.seed, seconds,
                                     caches[side], trace=1)
                      for side in ("parent", "change")}
            result["layers"] = layer_deltas(traced["parent"], traced["change"])
            record["workloads"][workload] = result
            for name, m in result["metrics"].items():
                print(f"{workload} {name}: parent median {m['parent']['median']:.4g} "
                      f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}], "
                      f"change median {m['change']['median']:.4g} "
                      f"[{m['change']['q1']:.4g}, {m['change']['q3']:.4g}], "
                      f"change wins {m['wins']}/{args.pairs} "
                      f"({m['relative_change']:+.1%}); bound "
                      f"{m['bound']:.0%}: {m['regression']}")
            for name, delta in result["layers"]["delta"].items():
                if delta:
                    print(f"{workload} traced {name}: parent "
                          f"{traced['parent'][name]:.4g} change "
                          f"{traced['change'][name]:.4g} ({delta:+.4g})")
            print(f"{workload} failed ops: parent {result['failed']['parent']}, "
                  f"change {result['failed']['change']}; claim on {args.metric}: "
                  f"{'met' if result['claim_met'] else 'not met'}", flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
