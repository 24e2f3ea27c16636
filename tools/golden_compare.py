"""Golden-output comparison of two checkouts: the 1e-12 rule for refactors as a command.

    python3 tools/golden_compare.py --parent DIR --change DIR

DIR is a checkout (`src/`, `tests/` and `benchmark/`) of each side. Both
sides run the same configs, taken from the change checkout: every golden
config of `tests/test_golden.py` at GOLDEN_SEEDS, and the `polyfw run`
config of every benchmark workload (`benchmark/workloads.py`) at
BENCH_SEEDS. Each side runs in its own process with its own `src/` first on
the path, and reads its outputs with the change checkout's
`test_golden.read_outputs`, so the compared outputs are the golden test's.

One table row per config and seed says whether T_eps, total_samples and
good_event_rate are identical in every row of runs.csv, gives the largest
relative final_gap difference, and whether the outputs are byte-identical
(runs.csv without wall_ms, summary.json and every trace file). The exit
status is 1 when a row breaks the rule: those three columns identical and
final_gap within 1e-12 relative.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

GAP_RTOL = 1e-12
GOLDEN_SEEDS = (71, 72, 73)
BENCH_SEEDS = (1, 2, 3)


def configs(change: str) -> list[list]:
    """[label, seed, raw config] for every compared run, from the change checkout."""
    for sub in ("src", "tests", "benchmark"):
        sys.path.insert(0, os.path.join(change, sub))
    import test_golden
    import workloads

    out = [[name, seed, test_golden.golden_config(name, "", seed)]
           for name in sorted(test_golden.CONFIGS) for seed in GOLDEN_SEEDS]
    out += [[name, seed, workloads.experiment_config(name, seed, "")]
            for name in workloads.WORKLOADS for seed in BENCH_SEEDS]
    return out


def run_side(checkout: str, change: str, runs: list[list]) -> list[dict]:
    """Outputs of every run on one side, computed in a fresh process."""
    src = os.path.join(checkout, "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--side", src],
        input=json.dumps({"tests": os.path.join(change, "tests"), "runs": runs}),
        env=env, cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"golden_compare: {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def side_main(src: str) -> None:
    """Run the configs read from stdin with the polyfw under src; print outputs."""
    job = json.load(sys.stdin)
    sys.path.append(job["tests"])
    import polyfw
    import test_golden
    from polyfw.harness import ExperimentConfig, run_experiment

    if not os.path.abspath(polyfw.__file__).startswith(os.path.abspath(src)):
        sys.exit(f"polyfw imported from {polyfw.__file__}, not from {src}")
    results = []
    for _, _, raw in job["runs"]:
        with tempfile.TemporaryDirectory() as tmp:
            run_experiment(ExperimentConfig.from_dict({**raw, "output_dir": tmp}))
            results.append(test_golden.read_outputs(tmp))
    json.dump(results, sys.stdout)


def compare(parent: dict, change: dict) -> tuple[bool, float, bool]:
    """(T_eps, total_samples and good_event_rate identical, largest relative
    final_gap difference, byte-identical outputs) for one run."""
    p_rows = parent["runs.csv"].splitlines()[1:]
    c_rows = change["runs.csv"].splitlines()[1:]
    same = len(p_rows) == len(c_rows)
    worst = 0.0
    for p_row, c_row in zip(p_rows, c_rows):
        p_cols, c_cols = p_row.split(","), c_row.split(",")
        same = same and p_cols[:5] == c_cols[:5]
        p_gap, c_gap = float(p_cols[5]), float(c_cols[5])
        scale = max(abs(p_gap), abs(c_gap))
        worst = max(worst, abs(p_gap - c_gap) / scale if scale else 0.0)
    return same, worst, parent == change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--side", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.side:
        side_main(args.side)
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    runs = configs(change)
    p_out, c_out = run_side(parent, change, runs), run_side(change, change, runs)
    print("| config | seed | rows | T_eps, total_samples, good_event_rate "
          "| max rel. final_gap diff | byte-identical |")
    print("| --- | --- | --- | --- | --- | --- |")
    ok = True
    for (name, seed, _), p, c in zip(runs, p_out, c_out):
        same, worst, identical = compare(p, c)
        ok = ok and same and worst <= GAP_RTOL
        rows = len(c["runs.csv"].splitlines()) - 1
        print(f"| {name} | {seed} | {rows} | {'identical' if same else 'DIFFER'} "
              f"| {worst:.2e} | {'yes' if identical else 'no'} |")
    print(f"rule (identical columns, final_gap within {GAP_RTOL:g} relative): "
          f"{'holds' if ok else 'BROKEN'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
