#!/usr/bin/env python3
"""roughsim benchmark: run one workload in this process, untraced or traced.

    python3 benchmark/run.py --workload smile-n256 --seed 1 --seconds 24 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from the repository root; the package is imported from `src/`. Op 0
warms the process up and is checked but not timed; the ops after it run one
after another until `--seconds` have passed. With `--trace 0` the last
line of standard output is a JSON object whose metrics are the end-to-end
metrics of BENCHMARK.json; with `--trace 1` they are its per-layer metrics,
taken from every other op (the ops in between run untraced, which gives the
tracing overhead). `--workload all` runs each workload in its own process
and prints one table. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("smile-n256", "smile-n2048", "american-trees", "exact-law")
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120
READY = "ready"

END_TO_END_UNITS = {"op_s_p50": "s", "work_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
# the end-to-end figures printed in the report; work_per_s appears under
# the workload's own name, and metrics that do not apply print as n/a
REPORT_UNITS = {"op_s_p50": "s", "path_steps_per_s": "1/s",
                "tree_nodes_per_s": "1/s", "cov_entries_per_s": "1/s",
                "s_to_atm_se_1e-4": "s", "setup_s": "s", "peak_rss_mb": "MB",
                "op_fail_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Put this checkout's `src/` first on the path and import roughsim."""
    if not (SRC / "roughsim" / "__init__.py").is_file():
        raise BenchError(f"no roughsim package under {SRC}")
    # the program's default FFT worker count is what gets measured
    os.environ.pop("ROUGHSIM_THREADS", None)
    sys.path[:0] = [p for p in (str(SRC), str(HERE)) if p not in sys.path]
    import roughsim
    if not Path(roughsim.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported roughsim from {roughsim.__file__}, not {SRC}")
    import workloads
    return workloads


# ----------------------------------------------------------------------
# set-up time: fresh process to first op ready
# ----------------------------------------------------------------------

def setup_probe(name: str, scale: str) -> None:
    """Child side: import, build the workload's inputs, report when ready."""
    workloads = import_program()
    workloads.make_workloads(scale)[name].setup()
    print(READY, repr(time.monotonic()), flush=True)


def measure_setup(name: str, scale: str, runs: int) -> list:
    """Seconds from spawning a fresh interpreter to its first op being ready.

    Both ends read the system-wide monotonic clock, so the child's exit is
    not counted.
    """
    seconds = []
    for _ in range(runs):
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--scale", scale],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"set-up of {name} took over {SETUP_TIMEOUT_S} s")
        fields = out.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[0] != READY:
            raise BenchError(f"set-up of {name} failed (exit {proc.returncode})")
        seconds.append(float(fields[1]) - start)
    return seconds


# ----------------------------------------------------------------------
# ops
# ----------------------------------------------------------------------

@dataclass
class OpRecord:
    index: int
    wall_s: float
    failures: list
    outcome: object       # workloads.OpOutcome, None when the op raised
    layers: dict | None   # per-layer metrics when traced


def run_op(workload, state, seed, index, traced):
    """Run one op; a raised error or failed check marks it failed."""
    import layers

    tracer = Tracer() if traced else NullTracer()
    if traced:
        layers.install(tracer)
    outcome = None
    start = time.perf_counter()
    try:
        with tracer.span("op"):
            outcome = workload.op(state, seed, index, tracer)
        failures = list(outcome.failures)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        failures = [f"{type(exc).__name__}: {exc}"]
    finally:
        wall = time.perf_counter() - start
        if traced:
            tracer.unwrap_all()
    return OpRecord(index, wall, failures, outcome,
                    layers.op_layer_metrics(tracer) if traced else None)


def count_problems(records, rerun) -> list:
    """Exact counts that did not repeat.

    Op 0 run twice at one seed must give identical counts, and counts that
    do not depend on the drawn paths must agree across every traced op.
    """
    import layers

    problems = []
    first = records[0].layers
    for name in layers.exact_counts():
        if rerun.layers[name] != first[name]:
            problems.append(f"{name}: op 0 counted {first[name]}, "
                            f"then {rerun.layers[name]}")
        if name in layers.SEED_DEPENDENT:
            continue
        seen = {r.layers[name] for r in records if r.layers is not None}
        if len(seen) > 1:
            problems.append(f"{name}: differs across ops: {sorted(seen)}")
    return problems


def run_workload(name, seed, seconds, trace, scale="full", setup_runs=SETUP_RUNS):
    """Run one workload; returns (result JSON object, report lines)."""
    workloads = import_program()
    import layers

    workload = workloads.make_workloads(scale)[name]
    setup = measure_setup(name, scale, setup_runs)
    state = workload.setup()

    # op 0 warms the process up: it is checked and counted, but not timed
    records = [run_op(workload, state, seed, 0, traced=trace)]
    start = time.perf_counter()
    while True:
        index = len(records)
        records.append(run_op(workload, state, seed, index,
                              traced=trace and index % 2 == 0))
        if time.perf_counter() - start >= seconds:
            break
    problems = []
    if trace:
        rerun = run_op(workload, state, seed, 0, traced=True)
        problems = [f"op 0 rerun failed: {f}" for f in rerun.failures]
        problems += count_problems(records, rerun)

    attempted = len(records)
    failed = sum(1 for r in records if r.failures)
    timed = records[1:]
    walls = [r.wall_s for r in timed]
    done = [r.outcome for r in timed if r.outcome is not None]
    work_per_s = sum(o.work for o in done) / sum(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {name_: None for name_ in REPORT_UNITS}
    report.update(op_s_p50=statistics.median(walls),
                  setup_s=statistics.median(setup),
                  peak_rss_mb=peak_rss_mb,
                  op_fail_ratio=failed / attempted)
    report[workload.work_name] = work_per_s
    to_target = [o.extra["s_to_atm_se_1e-4"] for o in done
                 if "s_to_atm_se_1e-4" in o.extra]
    if to_target:
        report["s_to_atm_se_1e-4"] = statistics.median(to_target)

    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}"
             f" scale {scale}",
             "env " + json.dumps(environment(seed))]
    for r in records:
        line = (f"op {r.index} seed {seed + r.index} wall_s {r.wall_s:.6f} "
                f"{'traced' if r.layers is not None else 'untraced'}"
                f"{' warm-up' if r.index == 0 else ''} "
                f"{'FAILED ' + '; '.join(r.failures) if r.failures else 'ok'}")
        if r.layers is not None:
            line += f" unattributed_s {r.layers['trace.unattributed_s']:.6f}"
        lines.append(line)
    lines.append("setup_s runs " + " ".join(f"{s:.6f}" for s in setup))
    lines += [f"problem {p}" for p in problems]
    lines.append("end_to_end " + json.dumps(
        {k: {"value": v, "unit": REPORT_UNITS[k]} for k, v in report.items()}))
    lines += [f"  {k:<22} {'n/a' if v is None else f'{v:.6g}'} {REPORT_UNITS[k]}"
              for k, v in report.items()]

    if trace:
        traced = [r for r in records if r.layers is not None]
        untraced = [r.wall_s for r in records if r.layers is None]
        # op 0 runs cold and is always traced; its times are left out when
        # other traced ops exist
        warm = [r for r in traced if r.index > 0] or traced[:1]
        values = {}
        counts = layers.exact_counts()
        for metric in layers.PER_LAYER:
            if metric in counts:
                values[metric] = traced[0].layers[metric]
            else:
                values[metric] = statistics.median(r.layers[metric] for r in warm)
        gates = [r.outcome.extra["gate_passed"] for r in records
                 if r.outcome is not None and "gate_passed" in r.outcome.extra]
        values["validation.pass_ratio"] = sum(gates) / len(gates) if gates else 0.0
        values["trace.overhead_s"] = (statistics.median(r.wall_s for r in warm)
                                      - statistics.median(untraced))
        units = {m: spec[0] for m, spec in layers.PER_LAYER.items()}
        units.update(layers.RUN_LEVEL)
        metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
        lines += [f"  {m:<30} {v:.6g} {units[m]}" for m, v in values.items()]
    else:
        metrics = {m: {"value": report[m] if m != "work_per_s" else work_per_s,
                       "unit": u} for m, u in END_TO_END_UNITS.items()}

    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def environment(seed) -> dict:
    import numpy
    import scipy
    from roughsim import _config

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = None
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "fft_workers": _config.get_threads(), "process_threads": threads,
            "seed": seed}


# ----------------------------------------------------------------------
# all workloads, one process each
# ----------------------------------------------------------------------

def run_all(args) -> int:
    table = {}
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        ok = ok and json.loads(lines[-1])["correct"]
        for line in lines:
            if line.startswith("end_to_end "):
                table[name] = json.loads(line[len("end_to_end "):])
    print()
    print(f"{'metric':<22} {'unit':<6}" + "".join(f"{n:>16}" for n in table))
    for metric, unit in REPORT_UNITS.items():
        cells = [table[n][metric]["value"] for n in table]
        print(f"{metric:<22} {unit:<6}" + "".join(
            f"{'n/a' if v is None else f'{v:.6g}':>16}" for v in cells))
    return 0 if ok and len(table) == len(WORKLOADS) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small shrinks every workload, for the tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.scale)
            return 0
        if args.workload == "all":
            return run_all(args)
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.scale)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
