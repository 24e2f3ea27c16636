"""Alternating parent/change pairs of the benchmark, kept as a BENCH_*.json record.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload audit \
        --seeds 5101-5110 --out BENCH_topic.json [--seconds 35] [--traced-seed 5111]

DIR is a checkout (a `src/` and a `benchmark/` directory) of each side. For
every seed, both sides run `benchmark/run.py --trace 0` in their own
directory; which side goes first alternates seed by seed. The record keeps
every run's end-to-end metrics and raw seconds, and, per metric, both sides'
medians and quartiles, the change/parent ratio of the medians and the number
of pairs the change won (lower is better for every metric). With
`--traced-seed`, one `--trace 1` run per side adds the per-layer metrics.
A run that exits non-zero, reports `correct: false` or has failed
operations stops the script (exit 1) with its workload, seed, side and
stderr tail; nothing is written.
Running it again with another workload adds that workload to the same file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

END_TO_END = ("wall_s", "iter_us", "setup_s", "peak_rss_mb")
RAW = ("raw_wall_s", "raw_iter_us", "raw_setup_s")


def fail(side: str, workload: str, seed: int, what: str, stderr: str) -> None:
    """Stop the record: a failed run must not enter it as a timing."""
    tail = "\n".join(stderr.strip().splitlines()[-20:])
    sys.exit(f"{workload} seed {seed}, {side}: {what}\n--- stderr tail ---\n{tail}")


def run(side: str, checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its result's metrics, correctness fields and raw seconds.
    A run that exits non-zero, is not correct or has failed operations stops
    the script with its stderr tail."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(side, workload, seed, f"exit code {proc.returncode}", proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] > 0:
        fail(side, workload, seed,
             f"correct {result['correct']}, {result['failed']} failed", proc.stderr)
    out = {k: v["value"] for k, v in result["metrics"].items()}
    out.update({k: result[k] for k in ("correct", "attempted", "failed")})
    # The line before the summary line: raw seconds, or with --trace 1 the
    # tracer's own figures (the spans file is left out of the record).
    extra = json.loads(next(line for line in reversed(lines[:-1]) if line.startswith("{")))
    extra.pop("spans_file", None)
    out.update(extra)
    return out


def summarize(pairs: list[dict]) -> dict:
    summary = {}
    for metric in END_TO_END + RAW:
        side = {s: [p[s][metric] for p in pairs] for s in ("parent", "change")}
        entry = {}
        for s, values in side.items():
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            entry.update({f"{s}_median": med, f"{s}_q1": q1, f"{s}_q3": q3})
        entry["change_over_parent"] = entry["change_median"] / entry["parent_median"]
        entry["change_wins"] = sum(c < p for p, c in zip(side["parent"], side["change"]))
        entry["pairs"] = len(pairs)
        summary[metric] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    first, last = (int(s) for s in args.seeds.split("-"))
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    for k, seed in enumerate(range(first, last + 1)):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(side, sides[side], args.workload, seed, args.seconds, 0)
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{s} wall_s {pair[s]['wall_s']:.3f}" for s in order), flush=True)

    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.setdefault("host", {"cpus": os.cpu_count(), "machine": platform.machine(),
                               "python": platform.python_version()})
    record.setdefault("command", "python3 benchmark/run.py --workload W --seed S "
                      f"--seconds {args.seconds:g} --trace 0")
    record.setdefault("seeds", {})[args.workload] = args.seeds
    record.setdefault("summary", {})[args.workload] = summarize(pairs)
    record.setdefault("pairs", {})[args.workload] = pairs
    if args.traced_seed is not None:
        record.setdefault("traced", {})[args.workload] = {
            "seed": args.traced_seed,
            **{s: run(s, sides[s], args.workload, args.traced_seed, args.seconds, 1)
               for s in sides},
        }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
