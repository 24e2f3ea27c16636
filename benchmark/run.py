"""Benchmark of polyfw: one workload per invocation, in a fresh process.

    python3 benchmark/run.py --workload grid-standard --seed 1 --seconds 35 --trace 0

Builds nothing: the program is imported from `src/` of the checkout the
command runs in, and the run fails (exit 1, no result line) when it is not
there. A run executes one warm-up round and then whole rounds of the
workload until `--seconds` have passed, times a few fresh-process set-ups,
and checks the outputs against computations made apart from the program.

With `--trace 0` the last line of standard output is the JSON result with
the end-to-end metrics; with `--trace 1` rounds alternate between untraced
and traced, and the result carries the per-layer metrics of the traced
rounds. Every metric is the median over the run's rounds. Times are in
reference seconds: each timed call is scaled by a host probe run around it
(see `workloads.scaled_time` and README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from checks import (Checks, check_cli, check_problem, check_rows, check_traces,
                    parse_rows, strip_wall)
from tracing import Tracer, layer_metrics, write_spans
from workloads import CAL_REF_S, WORKLOADS, Workload, build_problem

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9

END_TO_END_UNITS = {"wall_s": "s", "iter_us": "us", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "geometry.enumerate_s": "s",
    "geometry.enumerate_calls": "count",
    "geometry.constants_s": "s",
    "geometry.lmo_us": "us",
    "simplex_lp.solve_us": "us",
    "objectives.eval_us": "us",
    "objectives.gradient_calls_per_step": "count",
    "objectives.reference_s": "s",
    "sampling.estimate_us": "us",
    "sampling.draw_melems": "millions",
    "sampling.draw_mb_max": "MB",
    "frank_wolfe.loop_us": "us",
    "frank_wolfe.step_us": "us",
    "frank_wolfe.active_set_us": "us",
    "diagnostics.constants_calls_per_eps": "count",
    "diagnostics.constants_s": "s",
    "diagnostics.verify_us_per_record": "us",
    "harness.self_s": "s",
    "harness.parent_cell_runs": "count",
    "harness.trace_mb": "MB",
    "harness.summarize_s": "s",
    "harness.concentration_s": "s",
    "cli.verify_s": "s",
    "cli.lmo_check_s": "s",
}
# Reported on the line before the result: no better direction, or a ratio.
README_ONLY = ("geometry.lmo_calls", "frank_wolfe.iterations")


def import_program() -> None:
    """Put the checkout's `src/` first on the path and import polyfw from it."""
    if not os.path.isfile(os.path.join(SRC, "polyfw", "__init__.py")):
        sys.exit(f"benchmark: no polyfw package under {SRC}")
    sys.path.insert(0, SRC)
    import polyfw

    if not os.path.abspath(polyfw.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: polyfw imported from {polyfw.__file__}, not {SRC}")


def time_setups(config_path: str, probe, expected: list[int], checks) -> tuple[float, float]:
    """Launch the set-up probe SETUP_REPEATS times, each timed from launch to
    its output line, with a host probe before the first launch and after
    each. Returns the median launch in raw and in reference seconds. The
    reference figure scales by the median probe of the whole phase rather
    than launch by launch: a launch is short, and one probe's own noise
    would swamp it."""
    script = os.path.join(HERE, "setup_probe.py")
    launches, probes = [], [probe()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, script, config_path], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            launches.append(time.perf_counter() - t0)
            rest = proc.stdout.read()
            code = proc.wait()
        checks.expect("setup.probe", code == 0 and line and json.loads(line) == expected,
                      f"probe exit {code}, output {line!r}{rest!r}")
        probes.append(probe())
    raw = statistics.median(launches)
    return raw, raw * CAL_REF_S / statistics.median(probes)


def trace_bytes(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(out_dir, f))
        for f in os.listdir(out_dir)
        if f.startswith("trace_") and f.endswith(".json")
    )


def measure(args, work_dir: str) -> dict:
    checks = Checks()
    w = Workload(args.workload, args.seed, work_dir)
    n_eps = len(w.config["epsilon_grid"])
    pool_in_use = w.config["workers"] > 1
    tracer = Tracer() if args.trace else None
    attempted = failed = 0

    def account(r) -> list[dict]:
        nonlocal attempted, failed
        rows = parse_rows(r["csv"])
        attempted += len(rows) + len(r["cli"])
        failed += sum(row["T_eps"] < 0 for row in rows) + sum(c != 0 for _, c, _ in r["cli"])
        check_cli(checks, r["cli"])
        return rows

    first = w.run_round()  # warm-up; its outputs are the reference
    first_rows = account(first)
    reference = (strip_wall(first["csv"]), first["summary_json"])

    plain, traced, layers, first_spans = [], [], [], None
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        trace_this = tracer is not None and i % 2 == 1
        if trace_this:
            tracer.install()
        try:
            r = w.run_round()
        finally:
            if trace_this:
                tracer.uninstall()
        rows = account(r)
        same = (strip_wall(r["csv"]), r["summary_json"]) == reference
        iters = sum(row["T_eps"] for row in rows)
        if trace_this:
            spans = tracer.take()
            m = layer_metrics(spans, n_eps, pool_in_use, trace_bytes(w.out_dir))
            checks.expect("trace.outputs_match", same,
                          "traced round's runs.csv or summary.json differ from untraced")
            checks.expect("trace.iterations", m["frank_wolfe.iterations"] == iters,
                          f"{m['frank_wolfe.iterations']} step calls vs sum T_eps {iters}")
            layers.append(m)
            # Raw seconds: the spans held in memory slow the host probe
            # that follows a traced call, so scaled times would hide the
            # overhead.
            traced.append(r["raw_wall_s"])
            if first_spans is None:
                first_spans = spans
        else:
            checks.expect("rounds.deterministic", same,
                          "a round's runs.csv or summary.json differ from the first")
            plain.append((r["wall_s"], r["run_s"] / iters * 1e6,
                          r["raw_wall_s"], r["raw_run_s"] / iters * 1e6))
        i += 1

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    built = build_problem(w.config)
    raw_setup, ref_setup = time_setups(w.config_path, w.probe, list(built["n_planned"]), checks)
    check_problem(checks, w.config, built, np.random.default_rng(args.seed))
    check_rows(checks, args.workload, w.config, built, first_rows,
               json.loads(first["summary_json"]))
    if w.config.get("save_traces"):
        check_traces(checks, w.config, built, first_rows)

    if tracer is None:
        values = {
            "wall_s": statistics.median(p[0] for p in plain),
            "iter_us": statistics.median(p[1] for p in plain),
            "setup_s": ref_setup,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = END_TO_END_UNITS
        print(json.dumps({
            "raw_wall_s": statistics.median(p[2] for p in plain),
            "raw_iter_us": statistics.median(p[3] for p in plain),
            "raw_setup_s": raw_setup,
        }))
    else:
        values = {k: statistics.median(m[k] for m in layers) for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        span_dir = os.path.join(OUT_ROOT, "spans")
        os.makedirs(span_dir, exist_ok=True)
        span_path = os.path.join(span_dir, f"{args.workload}-seed{args.seed}.jsonl")
        write_spans(span_path, first_spans)
        untraced = statistics.median(p[2] for p in plain)
        print(json.dumps({
            "trace_overhead": statistics.median(traced) / untraced - 1.0,
            "untraced_raw_wall_s": untraced,
            "traced_rounds": len(traced),
            "step_types": layers[0]["step_types"],
            "spans_file": os.path.relpath(span_path, ROOT),
            "unwrapped": tracer.missing,
            **{k: statistics.median(m[k] for m in layers) for k in README_ONLY},
        }))
    for name, ok, detail in checks.results:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    rounds = len(plain) + len(traced)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds after warm-up, "
          f"{len(checks.results)} checks, {len(checks.failures)} failed")
    return {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    work_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
