"""Steadiness tool: run two interleaved sets of every workload and compare
them metric by metric against the bounds in BENCHMARK.json.

    python3 benchmark/steady.py --runs 5 [--seconds 30] [--workloads audit ...]

Each set gets `--runs` runs of every workload, each with its own seed; the
two sets alternate run by run, and which set goes first alternates too. For
every end-to-end metric the tool prints each set's median and quartiles,
the gap between the two medians against the metric's bound, and the
spread (quartile distance over median) of all runs pooled. Raw results go
to `.bench_out/steady-<unix time>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - t0
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)

    results = {("A", w): [] for w in args.workloads}
    results.update({("B", w): [] for w in args.workloads})
    seed = args.first_seed
    for k in range(args.runs):
        for side in ("AB" if k % 2 == 0 else "BA"):
            for workload in args.workloads:
                r = run_once(workload, seed, args.seconds)
                r["seed"] = seed
                results[(side, workload)].append(r)
                print(f"set {side} {workload} seed {seed}: " + ", ".join(
                    f"{m}={v['value']:.4g}" for m, v in r["metrics"].items()
                ) + f" ({r['process_s']:.0f}s)", flush=True)
                seed += 1

    ok = True
    for workload in args.workloads:
        print(f"\n{workload}")
        shares = []
        for side in "AB":
            rs = results[(side, workload)]
            shares.append(sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs))
            if not all(r["correct"] for r in rs):
                ok = False
                print(f"  set {side}: a run reported correct=false")
        print(f"  failed share A {shares[0]:.6g}, B {shares[1]:.6g}")
        ok &= shares[0] == shares[1]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in results[(s, workload)]] for s in "AB"]
            meds = [statistics.median(v) for v in sets]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            gap = sign * (meds[1] - meds[0]) / meds[0]
            pooled = spread(sets[0] + sets[1])
            line = f"  {name:12s}"
            for s, v in zip("AB", sets):
                q1, med, q3 = statistics.quantiles(v, n=4)
                line += f" {s}: {statistics.median(v):.4g} [{q1:.4g}, {q3:.4g}]"
            flag = "" if abs(gap) <= bound else "  GAP OVER BOUND"
            if name != "setup_s" and pooled > bound:
                flag += "  SPREAD OVER BOUND"
            elif name != "setup_s" and pooled > bound / 3:
                flag += "  spread over bound/3"
            ok &= abs(gap) <= bound and (name == "setup_s" or pooled <= bound)
            print(f"{line}  gap {gap:+.3f} (bound {bound}), spread {pooled:.3f}{flag}")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", f"steady-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump({f"{s}/{w}": v for (s, w), v in results.items()}, fh, indent=1)
    print(f"\n{'steady' if ok else 'NOT steady'}; raw results in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
