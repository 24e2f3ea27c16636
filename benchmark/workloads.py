"""The benchmark's three workloads: the configs each derives from the seed,
one timed round of program calls, the host probes that scale its timings,
and the problem build the set-up probe times in a fresh process.

Every workload runs a fixed amount of work per round, so round times are
comparable across seeds and run lengths; a run repeats whole rounds until
its time is up. The seed only chooses random streams (the experiment's
master seed, the lmo-check directions, the concentration draws). The
problems themselves are fixed, because the number of iterations a run
takes depends on the problem and a seed-dependent problem would make the
work per round differ from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

EPS_GRID = [0.2, 0.1, 0.05, 0.025]
AUDIT_EPS_GRID = [0.1, 0.05, 0.025]

# Criterion-4 problem: d = 3 corner simplex, z infeasible (sum 1.8 > 1).
SIMPLEX3 = {
    "polytope": {"preset": "simplex", "dim": 3},
    "objective": {"eigenvalues": [1.0, 2.0, 4.0], "z": [0.8, 0.6, 0.4]},
}

# d = 8 box: 256 vertices from C(16, 8) = 12,870 basis solves. The rotated
# quadratic's minimizer z lies outside the box, so the optimum sits on a face
# with five coordinates at a bound and three free.
AUDIT_DIM = 8
AUDIT_SCALE = 1.0
AUDIT_PROBLEM = {
    "polytope": {"preset": "box", "dim": AUDIT_DIM, "scale": AUDIT_SCALE},
    "objective": {
        "eigenvalues": [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 3.75, 4.0],
        "rotation_seed": 5,
        "z": [1.3, -0.3, 0.6, 1.2, -0.2, 0.4, 1.1, 0.5],
    },
}
AUDIT_WORKERS = 2
AUDIT_N = 1000
AUDIT_VERIFY_TRACES = 3  # replication 0 at each epsilon
LMO_CHECK_TRIALS = 100
CONCENTRATION = {"n_grid": [4, 16, 64], "s_grid": [0.5, 1.0], "trials": 10_000}

# Per-round replications: rounds of roughly half a second to a second on a
# 2-vCPU VM, so a run holds a few dozen rounds to take the median over.
GRID_STANDARD_REPS = 5
AWAY_SUBGAUSS_REPS = 4
AUDIT_REPS = 10

SUBGAUSS_C = 0.5  # calibrate_subgaussian_c gives ~0.52 for Rademacher noise

# Approximate time of either host probe on a quiet reference VM. Timed
# program calls are reported in reference seconds: raw seconds scaled by
# CAL_REF_S over the probe time measured just before and after the call.
CAL_REF_S = 0.025
_PROBE_V = np.eye(3)
_PROBE_Q = np.diag([1.0, 2.0, 4.0])
_PROBE_Z = np.array([0.8, 0.6, 0.4])


def bookkeeping_probe() -> float:
    """Seconds taken by a fixed block of the benchmark's own work, shaped
    like Frank-Wolfe bookkeeping (dict updates, 3x3 products, argmin, norms,
    integer arithmetic). It never calls polyfw, so it measures how fast the
    host runs this kind of code right now."""
    t0 = time.perf_counter()
    weights, x, acc = {0: 1.0}, np.zeros(3), 0
    for _ in range(1500):
        g = _PROBE_Q @ (x - _PROBE_Z)
        j = int(np.argmin(_PROBE_V @ g))
        weights = {k: 0.9 * v for k, v in weights.items()}
        weights[j] = weights.get(j, 0.0) + 0.1
        x = sum(v * _PROBE_V[k] for k, v in weights.items())
        acc += float(np.linalg.norm(g)) > 0
        for t in range(20):
            acc += t * t % 7
    return time.perf_counter() - t0


def sampling_probe() -> float:
    """Seconds taken by eight bulk Rademacher draws of 50,000 x 3 values and
    their means: the sampling work of the sub-Gaussian regime, without
    polyfw."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(8):
        rng.choice((-1.0, 1.0), (50_000, 3)).mean(axis=0)
    return time.perf_counter() - t0


def scaled_time(fn, probe, probe_before: float) -> tuple[float, float, float]:
    """Run fn, then the probe; return (raw seconds, reference seconds,
    probe time after)."""
    t0 = time.perf_counter()
    fn()
    raw = time.perf_counter() - t0
    after = probe()
    return raw, raw * 2.0 * CAL_REF_S / (probe_before + after), after


def experiment_config(workload: str, seed: int, out_dir: str) -> dict:
    """The `polyfw run` config one round of the workload executes."""
    common = {"master_seed": int(seed), "max_iter": 10**6, "output_dir": out_dir}
    if workload == "grid-standard":
        return {
            "problem": SIMPLEX3,
            "algorithm": "standard",
            "noise": {"kind": "gaussian", "sigma": 1.0},
            "sampling": {"mode": "bounded_variance_standard"},
            "epsilon_grid": EPS_GRID,
            "replications": GRID_STANDARD_REPS,
            "workers": 1,
            **common,
        }
    if workload == "away-subgauss":
        return {
            "problem": SIMPLEX3,
            "algorithm": "away",
            "noise": {"kind": "rademacher", "scale": 1.0},
            "sampling": {"mode": "subgaussian_away", "params": {"c": SUBGAUSS_C}},
            "epsilon_grid": EPS_GRID,
            "replications": AWAY_SUBGAUSS_REPS,
            "workers": 1,
            **common,
        }
    if workload == "audit":
        return {
            "problem": AUDIT_PROBLEM,
            "algorithm": "away",
            "noise": {"kind": "gaussian", "sigma": 1.0},
            "sampling": {"mode": "fixed", "n": AUDIT_N},
            "epsilon_grid": AUDIT_EPS_GRID,
            "replications": AUDIT_REPS,
            "workers": AUDIT_WORKERS,
            "save_traces": True,
            **common,
        }
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("grid-standard", "away-subgauss", "audit")


class Workload:
    """One workload's inputs on disk and its timed round."""

    def __init__(self, name: str, seed: int, work_dir: str):
        self.seed = int(seed)
        self.out_dir = os.path.join(work_dir, "run")
        self.config = experiment_config(name, seed, self.out_dir)
        os.makedirs(work_dir, exist_ok=True)
        self.config_path = _write_json(work_dir, "config.json", self.config)
        # The probe that scales timings is the one shaped like the
        # workload's dominant work.
        self.probe = sampling_probe if name == "away-subgauss" else bookkeeping_probe
        self.cli_calls: list[list[str]] = []
        if name == "audit":
            poly = _write_json(work_dir, "polytope.json", AUDIT_PROBLEM["polytope"])
            conc = _write_json(
                work_dir,
                "concentration.json",
                {
                    "problem": AUDIT_PROBLEM,
                    "noise": {"kind": "rademacher", "scale": 1.0},
                    "seed": self.seed,
                    **CONCENTRATION,
                },
            )
            traces = [
                os.path.join(self.out_dir, f"trace_e{i}_r0.json")
                for i in range(AUDIT_VERIFY_TRACES)
            ]
            self.cli_calls = [["verify", t] for t in traces]
            self.cli_calls.append(
                ["lmo-check", poly, "--trials", str(LMO_CHECK_TRIALS), "--seed", str(self.seed)]
            )
            self.cli_calls.append(["concentration", conc])

    def run_round(self) -> dict:
        """Run the experiment and then the workload's CLI commands, timing
        the program calls only, each between two host probes."""
        from polyfw import cli, harness

        cfg = harness.ExperimentConfig.from_dict(self.config)
        outputs = []

        def run_cli(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outputs.append((argv[0], code, buf.getvalue()))

        before = self.probe()
        raw, ref, before = scaled_time(lambda: harness.run_experiment(cfg), self.probe, before)
        raw_wall, ref_wall = raw, ref
        for argv in self.cli_calls:
            r, s, before = scaled_time(lambda: run_cli(argv), self.probe, before)
            raw_wall += r
            ref_wall += s
        with open(os.path.join(self.out_dir, "runs.csv")) as fh:
            csv_text = fh.read()
        with open(os.path.join(self.out_dir, "summary.json")) as fh:
            summary_text = fh.read()
        return {
            "wall_s": ref_wall,
            "run_s": ref,
            "raw_wall_s": raw_wall,
            "raw_run_s": raw,
            "csv": csv_text,
            "summary_json": summary_text,
            "cli": outputs,
        }


def _write_json(directory: str, name: str, data: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    return path


def build_problem(config: dict) -> dict:
    """The workload's problem, built through public functions: polytope and
    vertex list, geometry constants, reference solution, and the analysis
    constants and planned sample size at every epsilon."""
    from types import SimpleNamespace

    from polyfw import (
        ExperimentConfig,
        compute_constants,
        geometry_constants,
        plan_sample_size,
        polytope_from_json,
        reference_solution,
    )
    from polyfw.harness import resolve_plan
    from polyfw.objectives import objective_from_json
    from polyfw.sampling import noise_from_json

    cfg = ExperimentConfig.from_dict(config)
    P = polytope_from_json(cfg.problem["polytope"])
    V = P.vertices
    geo = geometry_constants(P)
    obj = objective_from_json(cfg.problem["objective"])
    ref = reference_solution(obj, P)
    noise = noise_from_json(cfg.noise, P.dim)
    # resolve_plan reads only the problem's polytope and noise model.
    holder = SimpleNamespace(P=P, noise=noise)
    consts, plans = [], []
    for eps in cfg.epsilon_grid:
        c = compute_constants(obj, P, eps, cfg.eps_g)
        consts.append(c)
        plans.append(plan_sample_size(resolve_plan(cfg, holder, c)))
    return {"P": P, "V": V, "geo": geo, "obj": obj, "ref": ref, "noise": noise,
            "consts": consts, "n_planned": plans}
