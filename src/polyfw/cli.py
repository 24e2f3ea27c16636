"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 acceptance-check failure
(verify / lmo-check / concentration flag violations).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import simplex_lp
from .config import (config_choice, config_fields, config_float, config_int, config_number,
                     config_type, need)
from .diagnostics import compute_constants, verify_trace
from .errors import ConfigError, PolyFWError
from .geometry import lmo, polytope_from_json
from .harness import (
    ALGORITHMS,
    TRACE_FIELDS,
    ExperimentConfig,
    concentration_experiment,
    problem_from_json,
    run_experiment,
    trace_from_json,
)
from .sampling import noise_from_json


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_json(args.config))
    summary = run_experiment(cfg)
    print(f"wrote {cfg.output_dir}/runs.csv and summary.json")
    print(json.dumps(summary.to_json(), indent=2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    data = config_fields("trace", _load_json(args.trace), TRACE_FIELDS)
    trace = trace_from_json(data)
    P, obj = problem_from_json(need(data, "trace", "problem"), "trace.problem")
    epsilon = config_float("trace.epsilon", need(data, "trace", "epsilon"), 0, above=True)
    eps_g = data.get("eps_g")
    eps_g = None if eps_g is None else config_float("trace.eps_g", eps_g)
    algorithm = config_choice("trace.algorithm", need(data, "trace", "algorithm"), ALGORITHMS)
    report = verify_trace(trace, compute_constants(obj, P, epsilon, eps_g), algorithm)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0 if report.passed else 3


def cmd_lmo_check(args) -> int:
    P = polytope_from_json(_load_json(args.polytope))
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    block = simplex_lp.stack_size(P.n_constraints, P.dim)
    for start in range(0, args.trials, block):
        # One draw of (k, d) normals gives the values of k draws of (d,).
        G = rng.standard_normal((min(block, args.trials - start), P.dim))
        scans = [lmo(P, g)[0] for g in G]
        X, _ = simplex_lp.solve_lp(G, P.A, P.b)
        for g, s, x in zip(G, scans, X):
            worst = max(worst, abs(float(g @ x) - float(g @ s)))
    print(f"{args.trials} directions, worst objective mismatch {worst:.3e}")
    return 0 if worst <= 1e-8 else 3


def cmd_concentration(args) -> int:
    spec = config_fields("", _load_json(args.config),
                         ("problem", "noise", "seed", "trials", "n_grid", "s_grid"))
    P, _ = problem_from_json(need(spec, "", "problem"), require_objective=False)
    noise = noise_from_json(need(spec, "", "noise"), P.dim)
    rng = np.random.default_rng(config_int("seed", spec.get("seed", 0), 0))
    trials = config_int("trials", spec.get("trials", 10**4), 1000)
    # Read element by element, not through floats: n above 2**53 stays exact.
    n_grid = need(spec, "", "n_grid")
    if type(n_grid) is not list or not n_grid:
        raise ConfigError("n_grid", f"must be a nonempty 1-d array of numbers, got {n_grid!r}")
    n_grid = [config_int("n_grid", n, 1) for n in n_grid]
    s_grid = config_float("s_grid", need(spec, "", "s_grid"), 0, above=True, ndim=1).tolist()
    cells, fits = concentration_experiment(noise, n_grid, s_grid, trials, rng)
    print(json.dumps({"cells": cells, "fits": fits}, indent=2, sort_keys=True))
    return 3 if any(c["violation"] for c in cells) else 0


def cmd_report(args) -> int:
    summary = _load_json(f"{args.dir}/summary.json")

    def number(spec, path, key):
        return config_number(f"{path}.{key}", need(spec, path, key))

    # Every field is read before the first line is printed.
    per_eps = config_type("summary.per_epsilon", need(summary, "summary", "per_epsilon"), list)
    keys = ("epsilon", "mean_T", "q90", "good_event_rate", "bound_mean_T")
    table = [[number(p, f"summary.per_epsilon[{k}]", key) for key in keys]
             for k, p in enumerate(per_eps)]
    slope, r2 = number(summary, "summary", "slope"), number(summary, "summary", "r2")
    violations = config_int(
        "summary.bound_violations", need(summary, "summary", "bound_violations"), 0
    )
    print(f"{'epsilon':>10} {'mean_T':>12} {'q90':>10} {'good_rate':>10} {'bound':>14}")
    for eps, mean_T, q90, rate, bound in table:
        print(f"{eps:>10.4g} {mean_T:>12.2f} {q90:>10.1f} {rate:>10.4f} {bound:>14.4g}")
    print(f"slope {slope:.3f} (r2 {r2:.3f}), bound violations {violations}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyfw")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a replicated experiment from a JSON config")
    p.add_argument("config")

    p = sub.add_parser("verify", help="check analysis inequalities on a saved trace")
    p.add_argument("trace")

    p = sub.add_parser("lmo-check", help="compare simplex LMO against enumeration")
    p.add_argument("polytope")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("concentration", help="empirical tail bounds per (n, s) cell")
    p.add_argument("config")

    p = sub.add_parser("report", help="pretty-print a summary.json")
    p.add_argument("dir")
    return parser


# Built once per process and shared by every main call. It holds command
# names, not functions: main looks cmd_<name> up in the module globals at
# call time, so a replaced global (a test's or a tracer's) is the one called.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "lmo-check" and (args.trials < 1 or args.seed < 0):
        _PARSER.error(f"--trials must be >= 1 and --seed >= 0, got {args.trials} and {args.seed}")
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PolyFWError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
