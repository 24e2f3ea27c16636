"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py` to see one line per criterion;
`-s` additionally shows the measured margins.
"""

import time

import numpy as np
import pytest

from polyfw.diagnostics import compute_constants
from polyfw.frank_wolfe import initial_active_set, run
from polyfw.geometry import (
    active_index_set,
    active_index_set_of_vertex_set,
    lmo,
    unit_simplex,
)
from polyfw.harness import (
    ExperimentConfig,
    fit_loglog_slope,
    concentration_experiment,
    run_experiment,
    theorem_bound_mean_T,
)
from polyfw.objectives import QuadraticObjective, reference_solution
from polyfw.sampling import NoiseModel, SamplePlan, estimate_gradient, theorem_sample_size
from polyfw.simplex_lp import lmo_simplex_method

from conftest import assert_weight_rows_valid, random_polytope

EPS_GRID = [0.2, 0.1, 0.05, 0.025]


def report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)


@pytest.fixture(scope="module")
def prob5():
    """Quadratic with L = 4, mu = 1 in d = 5 over the unit simplex; the
    unconstrained minimizer is infeasible, so the solution sits on a facet."""
    P = unit_simplex(5)
    obj = QuadraticObjective(
        [1.0, 1.5, 2.0, 3.0, 4.0], z=[0.9, 0.7, 0.5, 0.3, 0.1]
    )
    return obj, P


@pytest.fixture(scope="module")
def prob3():
    P = unit_simplex(3)
    obj = QuadraticObjective([1.0, 2.0, 4.0], z=[0.8, 0.6, 0.4])
    return obj, P


@pytest.fixture(scope="module")
def exact_traces(prob5):
    """Exact-gradient runs at epsilon = 0.05 shared by criteria 1, 2, 8."""
    obj, P = prob5
    out = {"consts": compute_constants(obj, P, 0.05)}
    for algorithm in ("standard", "away"):
        out[algorithm] = run(
            algorithm, obj, P, out["consts"], None, 0, 10**6, None, collect_weights=True,
        )
    return out


def test_criterion_1_per_iteration_decrease(prob5, exact_traces):
    t0 = time.perf_counter()
    c = exact_traces["consts"]
    trace = exact_traces["standard"]
    assert trace.T_eps is not None
    assert_weight_rows_valid(prob5[1], trace.weights)
    worst = -np.inf
    for rec, nxt in zip(trace.records[:-1], trace.records[1:]):
        worst = max(worst, (nxt.f_gap - rec.f_gap) - (-c.beta1 * c.epsilon))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, "per-iteration decrease", ok,
           f"T={trace.T_eps}, worst margin {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_away_step_contraction(prob5, exact_traces):
    t0 = time.perf_counter()
    c = exact_traces["consts"]
    trace = exact_traces["away"]
    assert trace.T_eps is not None
    assert_weight_rows_valid(prob5[1], trace.weights)
    worst_ratio, worst_drop = -np.inf, -np.inf
    for rec, nxt in zip(trace.records[:-1], trace.records[1:]):
        if rec.step_type == "away_drop":
            worst_drop = max(worst_drop, nxt.f_gap - rec.f_gap)
        else:
            worst_ratio = max(worst_ratio, nxt.f_gap / rec.f_gap)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 - c.beta2 + 1e-9 and worst_drop <= 1e-12 and elapsed < 10.0
    report(2, "away-step contraction", ok,
           f"T={trace.T_eps}, worst ratio {worst_ratio:.6f} vs {1.0 - c.beta2:.6f}, "
           f"worst drop increase {worst_drop:.2e}, {elapsed:.2f}s")
    assert worst_ratio <= 1.0 - c.beta2 + 1e-9
    assert worst_drop <= 1e-12
    assert elapsed < 10.0


def test_criterion_3_iteration_bounds(prob5):
    t0 = time.perf_counter()
    obj, P = prob5
    ref = reference_solution(obj, P)
    gap0 = obj.value(initial_active_set(P).point) - ref.f_star
    violations = []
    for algorithm in ("standard", "away"):
        for eps in EPS_GRID:
            c = compute_constants(obj, P, eps)
            trace = run(algorithm, obj, P, c, None, 0, 10**6, None, f_star=ref.f_star)
            bound = theorem_bound_mean_T(algorithm, gap0, c)
            if trace.T_eps is None or trace.T_eps > bound:
                violations.append((algorithm, eps, trace.T_eps, bound))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    report(3, "iteration-bound reproduction", ok,
           f"{len(violations)} violations over 8 runs, {elapsed:.2f}s")
    assert violations == []
    assert elapsed < 60.0


def stochastic_config(output_dir, algorithm, mode):
    return ExperimentConfig.from_dict({
        "problem": {
            "polytope": {"preset": "simplex", "dim": 3},
            "objective": {"eigenvalues": [1.0, 2.0, 4.0], "z": [0.8, 0.6, 0.4]},
        },
        "algorithm": algorithm,
        "noise": {"kind": "gaussian", "sigma": 1.0},
        "sampling": {"mode": mode},
        "epsilon_grid": EPS_GRID,
        "replications": 200,
        "master_seed": 20240817,
        "max_iter": 10**6,
        "output_dir": str(output_dir),
    })


def test_criterion_4_scaling_orders(tmp_path_factory):
    t0 = time.perf_counter()
    base = tmp_path_factory.mktemp("scaling")
    results = {}
    for algorithm, mode, t_cap, n_order in (
        ("standard", "bounded_variance_standard", 2.3, 4.0),
        ("away", "bounded_variance_away", 1.3, 2.0),
    ):
        summary = run_experiment(stochastic_config(base / algorithm, algorithm, mode))
        assert all(p.failed == 0 for p in summary.per_epsilon)
        n_slope, _ = fit_loglog_slope(
            [(1.0 / p.epsilon, p.n_planned) for p in summary.per_epsilon]
        )
        results[algorithm] = (summary.slope, t_cap, n_slope, n_order)
    elapsed = time.perf_counter() - t0
    ok = all(
        t_slope <= t_cap and abs(n_slope - n_order) <= 0.05
        for t_slope, t_cap, n_slope, n_order in results.values()
    ) and elapsed < 600.0
    detail = ", ".join(
        f"{alg}: T-slope {v[0]:.2f} (<= {v[1]}), n-slope {v[2]:.4f} ({v[3]} +- 0.05)"
        for alg, v in results.items()
    )
    report(4, "scaling orders", ok, f"{detail}, {elapsed:.1f}s")
    for t_slope, t_cap, n_slope, n_order in results.values():
        assert t_slope <= t_cap
        assert abs(n_slope - n_order) <= 0.05
    assert elapsed < 600.0


def test_criterion_5_good_event_probability(prob3):
    t0 = time.perf_counter()
    obj, P = prob3
    eps, p_g = 0.1, 0.9
    c = compute_constants(obj, P, eps)
    noise = NoiseModel.gaussian(0.5, 3)
    n = theorem_sample_size(
        SamplePlan("bounded_variance_standard", params={"p_g": p_g}), c, noise.V_g, P.dim
    )
    # 10 distinct iterates along an exact standard run.
    trace = run("standard", obj, P, c, None, 0, 10**6, None, collect_weights=True)
    idx = np.linspace(0, len(trace.weights) - 1, 10).astype(int)
    iterates = [trace.weights[i] @ P.vertices for i in idx]
    rng = np.random.default_rng(11)
    threshold = eps / (4.0 * c.D)
    good = total = 0
    for x in iterates:
        grad = obj.gradient(x)
        for _ in range(100):
            err = np.linalg.norm(estimate_gradient(grad, noise, n, rng) - grad)
            good += err <= threshold
            total += 1
    rate = good / total
    se = np.sqrt(max(rate * (1.0 - rate), 1e-12) / total)
    elapsed = time.perf_counter() - t0
    ok = total >= 1000 and rate >= p_g - 3.0 * se and elapsed < 60.0
    report(5, "good-event probability", ok,
           f"n={n}, rate {rate:.4f} >= {p_g} - 3se ({3 * se:.4f}), {elapsed:.2f}s")
    assert total >= 1000
    assert rate >= p_g - 3.0 * se
    assert elapsed < 60.0


def test_criterion_6_concentration_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    gauss = NoiseModel.gaussian(1.0, 3)
    cells_g, fits = concentration_experiment(
        gauss, n_grid=(2, 4, 6, 8, 10), s_grid=(0.5, 1.0),
        trials=10**4, rng=rng,
    )
    heavy = NoiseModel.student_t(3, 1.0, 3)
    cells_t, _ = concentration_experiment(
        heavy, n_grid=(5, 20, 80), s_grid=(1.0, 2.0), trials=10**4, rng=rng
    )
    violations = [c for c in cells_g + cells_t if c["violation"]]
    bad_fits = [f for f in fits if f["slope"] >= 0.0 or f["r2"] < 0.9]
    elapsed = time.perf_counter() - t0
    ok = not violations and len(fits) == 2 and not bad_fits and elapsed < 120.0
    report(6, "concentration bounds", ok,
           f"{len(violations)} bound violations, fits "
           + ", ".join(f"s={f['s']}: slope {f['slope']:.3f} r2 {f['r2']:.3f}" for f in fits)
           + f", {elapsed:.1f}s")
    assert violations == []
    assert len(fits) == 2 and bad_fits == []
    assert elapsed < 120.0


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        P = random_polytope(rng, d, extra=int(rng.integers(0, 12 - 2 * d + 1)))
        for _ in range(100):
            g = rng.standard_normal(d)
            s, _ = lmo(P, g)
            x = lmo_simplex_method(P, g)
            worst = max(worst, abs(float(g @ x) - float(g @ s)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report(7, "oracle equivalence", ok, f"worst mismatch {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_8_active_set_integrity(prob5, prob3, exact_traces):
    # Every weight row of the exact runs and of a stochastic away run (which
    # adds noisy steps) sums to 1 +- 1e-10, is nonnegative and gives a
    # feasible iterate.
    obj3, P3 = prob3
    rng = np.random.default_rng(5)
    noisy = run(
        "away", obj3, P3, compute_constants(obj3, P3, 0.05), NoiseModel.gaussian(0.3, 3), 50,
        10**5, rng, collect_weights=True,
    )
    obj5, P5 = prob5
    for t in ("standard", "away"):
        assert_weight_rows_valid(P5, exact_traces[t].weights)
    assert_weight_rows_valid(P3, noisy.weights)
    pool = (
        [(P5, w) for t in ("standard", "away") for w in exact_traces[t].weights]
        + [(P3, w) for w in noisy.weights]
    )
    pick = np.random.default_rng(6).choice(len(pool), size=100, replace=False)
    mismatches = 0
    for i in pick:
        P, w = pool[i]
        ids = tuple(w.nonzero()[0].tolist())
        if active_index_set(P, w @ P.vertices) != active_index_set_of_vertex_set(P, ids):
            mismatches += 1
    ok = mismatches == 0
    report(8, "active-set integrity", ok,
           f"invariants held on {len(pool)} iterations, "
           f"{mismatches}/100 index-set mismatches")
    assert mismatches == 0


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "problem": {
            "polytope": {"preset": "simplex", "dim": 3},
            "objective": {"eigenvalues": [1.0, 2.0, 4.0], "z": [0.8, 0.6, 0.4]},
        },
        "algorithm": "standard",
        "noise": {"kind": "gaussian", "sigma": 0.5},
        "sampling": {"mode": "fixed", "n": 5},
        "epsilon_grid": [0.2, 0.1],
        "replications": 5,
        "master_seed": 42,
        "max_iter": 10**5,
        "output_dir": "",
    }
    outputs = {}
    for name, workers in (("w1", 1), ("w1b", 1), ("w4", 4)):
        raw = dict(cfg, output_dir=str(tmp_path / name), workers=workers)
        run_experiment(ExperimentConfig.from_dict(raw))
        csv = (tmp_path / name / "runs.csv").read_text().splitlines()
        # wall_ms (final column) is a timing observable, excluded from the
        # byte contract; everything else must reproduce exactly.
        outputs[name] = (
            [",".join(line.split(",")[:-1]) for line in csv],
            (tmp_path / name / "summary.json").read_bytes(),
        )
    ok = outputs["w1"] == outputs["w1b"] == outputs["w4"]
    report(9, "determinism", ok,
           "CSV (excl. wall_ms) and summary.json identical across reruns and "
           "worker counts {1, 4}")
    assert outputs["w1"] == outputs["w1b"]
    assert outputs["w1"] == outputs["w4"]
