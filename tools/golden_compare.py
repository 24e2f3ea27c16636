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
(runs.csv without wall_ms, summary.json and every trace file).

The checking path gets a second table: at BENCH_SEEDS, each side builds the
inputs of the `audit` workload with `workloads.Workload`, runs its round
(the experiment, then `verify` on three traces, `lmo-check` and
`concentration`), and one row per CLI call says whether its exit code and
standard output are byte-identical. Where both standard outputs are JSON
(`verify`, `concentration`), the row also gives the largest relative
difference over their float fields and whether every other field (ints,
bools, strings, nulls, keys and list lengths) matches; those two columns
read `-` for other output.

A third table gives the line count (as `wc -l` counts) of every Python
module under each side's `src/`, and their totals.

The exit status is 1 when a run row breaks the rule (those three columns
identical and final_gap within 1e-12 relative) or a CLI row differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

GAP_RTOL = 1e-12
GOLDEN_SEEDS = (71, 72, 73)
BENCH_SEEDS = (1, 2, 3)


CLI_WORKLOAD = "audit"


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


def run_side(checkout: str, change: str, runs: list[list]) -> dict:
    """Outputs of every run and of the CLI rounds on one side, computed in a
    fresh process."""
    src = os.path.join(checkout, "src")
    env = {**os.environ, "PYTHONPATH": src}
    job = {"tests": os.path.join(change, "tests"), "benchmark": os.path.join(change, "benchmark"),
           "runs": runs, "cli_seeds": BENCH_SEEDS}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--side", src],
        input=json.dumps(job), env=env, cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"golden_compare: {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def side_main(src: str) -> None:
    """Run the configs and the CLI rounds read from stdin with the polyfw
    under src; print their outputs."""
    job = json.load(sys.stdin)
    sys.path += [job["tests"], job["benchmark"]]
    import polyfw
    import test_golden
    import workloads
    from polyfw.harness import ExperimentConfig, run_experiment

    if not os.path.abspath(polyfw.__file__).startswith(os.path.abspath(src)):
        sys.exit(f"polyfw imported from {polyfw.__file__}, not from {src}")
    runs = []
    for _, _, raw in job["runs"]:
        with tempfile.TemporaryDirectory() as tmp:
            run_experiment(ExperimentConfig.from_dict({**raw, "output_dir": tmp}))
            runs.append(test_golden.read_outputs(tmp))
    cli = []
    for seed in job["cli_seeds"]:
        with tempfile.TemporaryDirectory() as tmp:
            cli.append(workloads.Workload(CLI_WORKLOAD, seed, tmp).run_round()["cli"])
    json.dump({"runs": runs, "cli": cli}, sys.stdout)


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


def json_diff(p_text: str, c_text: str) -> tuple[float, bool] | None:
    """(largest relative difference over the float fields, every other field
    identical) of two JSON texts of one shape; None unless both are JSON."""
    try:
        p_doc, c_doc = json.loads(p_text), json.loads(c_text)
    except json.JSONDecodeError:
        return None
    worst, same = 0.0, True

    def walk(p, c):
        nonlocal worst, same
        if isinstance(p, float) and isinstance(c, float):
            if not (p == c or math.isnan(p) and math.isnan(c)):
                finite = math.isfinite(p) and math.isfinite(c)  # else the difference is inf
                worst = max(worst, abs(p - c) / max(abs(p), abs(c)) if finite else math.inf)
        elif isinstance(p, dict) and isinstance(c, dict) and p.keys() == c.keys():
            for key in p:
                walk(p[key], c[key])
        elif isinstance(p, list) and isinstance(c, list) and len(p) == len(c):
            for p_item, c_item in zip(p, c):
                walk(p_item, c_item)
        else:
            same = same and type(p) is type(c) and p == c

    walk(p_doc, c_doc)
    return worst, same


def src_lines(checkout: str) -> dict[str, int]:
    """Line count of every .py file under checkout/src, keyed by its path there."""
    src = os.path.join(checkout, "src")
    out = {}
    for root, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    out[os.path.relpath(path, src)] = fh.read().count("\n")
    return out


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
    for (name, seed, _), p, c in zip(runs, p_out["runs"], c_out["runs"]):
        same, worst, identical = compare(p, c)
        ok = ok and same and worst <= GAP_RTOL
        rows = len(c["runs.csv"].splitlines()) - 1
        print(f"| {name} | {seed} | {rows} | {'identical' if same else 'DIFFER'} "
              f"| {worst:.2e} | {'yes' if identical else 'no'} |")
    print(f"rule (identical columns, final_gap within {GAP_RTOL:g} relative): "
          f"{'holds' if ok else 'BROKEN'}")
    print()
    print("| workload | seed | command | exit codes | stdout byte-identical "
          "| max rel. float diff | other fields identical |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    cli_ok = True
    for seed, p_round, c_round in zip(BENCH_SEEDS, p_out["cli"], c_out["cli"]):
        for (command, p_code, p_text), (_, c_code, c_text) in zip(p_round, c_round):
            cli_ok = cli_ok and p_code == c_code and p_text == c_text
            diff = json_diff(p_text, c_text)
            fields = "| - | - |" if diff is None else (
                f"| {diff[0]:.2e} | {'yes' if diff[1] else 'no'} |")
            print(f"| {CLI_WORKLOAD} | {seed} | {command} | {p_code}, {c_code} "
                  f"| {'yes' if p_text == c_text else 'no'} {fields}")
    cli_ok = cli_ok and [len(r) for r in p_out["cli"]] == [len(r) for r in c_out["cli"]]
    print(f"CLI outputs: {'identical' if cli_ok else 'DIFFER'}")
    print()
    print("| src/ module | parent lines | change lines | change - parent |")
    print("| --- | --- | --- | --- |")
    p_lines, c_lines = src_lines(parent), src_lines(change)
    for module in sorted(p_lines.keys() | c_lines.keys()):
        p_n, c_n = p_lines.get(module, 0), c_lines.get(module, 0)
        print(f"| {module} | {p_n} | {c_n} | {c_n - p_n:+d} |")
    p_n, c_n = sum(p_lines.values()), sum(c_lines.values())
    print(f"| total | {p_n} | {c_n} | {c_n - p_n:+d} |")
    return 0 if ok and cli_ok else 1


if __name__ == "__main__":
    sys.exit(main())
