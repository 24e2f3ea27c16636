"""The paper's formulas against an exact-arithmetic oracle.

Every formula of the theory module is written again below from its
docstring, in stdlib decimal arithmetic at 50 digits, with nothing taken
from the module. The program is reached through the code that uses the
formulas: compute_constants (every AnalysisConstants field),
theorem_sample_size (every theorem n), summarize (both E[T] bounds and
emp_mgf), run (the step size, the Lyapunov potentials and both good-event
tests) and verify_trace (the decrease and contraction checks).

The three problems have closed-form geometry: the corner simplex d = 3
(D = sqrt 2, N = 4, omega = 1/sqrt 3), the box d = 2 (D = sqrt 2, N = 4,
omega = 1) and the probability simplex d = 4 (D = sqrt 2, N = 4, omega = 1),
the last with a rotated objective. M is evaluated exactly at the vertices
from the objective's stored Q and z.
"""

import dataclasses
import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from polyfw import harness
from polyfw.diagnostics import (AnalysisConstants, IterationRecord, RunTrace, compute_constants,
                                verify_trace)
from polyfw.errors import EpsGOutOfRange
from polyfw.frank_wolfe import initial_active_set, run
from polyfw.harness import ExperimentConfig, problem_from_json
from polyfw.sampling import NoiseModel, SamplePlan, theorem_sample_size

CTX = decimal.Context(prec=50)
RTOL = Decimal("1e-12")
EPSILONS = (0.2, 0.05, 0.01)
EPS_GS = (None, 0.05)
# Inputs just inside a boundary sit below it, those just outside above it.
SIGN = {"inside": -1, "outside": 1}
MODES = ("bounded_variance_standard", "bounded_variance_away", "subgaussian_standard",
         "subgaussian_away")

SQRT2 = CTX.sqrt(Decimal(2))
# name: (problem config, D, N, omega, vertices)
PROBLEMS = {
    "corner_simplex_d3": (
        {"polytope": {"preset": "simplex", "dim": 3},
         "objective": {"eigenvalues": [1.0, 2.0, 4.0], "z": [0.8, 0.6, 0.4]}},
        SQRT2, 4, CTX.divide(1, CTX.sqrt(Decimal(3))),
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    ),
    "box_d2": (
        {"polytope": {"preset": "box", "dim": 2},
         "objective": {"eigenvalues": [1.0, 3.0], "z": [-0.5, 0.4]}},
        SQRT2, 4, Decimal(1),
        [(0, 0), (1, 0), (0, 1), (1, 1)],
    ),
    "rotated_probability_simplex_d4": (
        {"polytope": {"preset": "probability_simplex", "dim": 4},
         "objective": {"eigenvalues": [1.0, 1.5, 2.5, 3.0], "z": [0.1, 0.2, 0.3, 0.4],
                       "rotation_seed": 3}},
        SQRT2, 4, Decimal(1),
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
    ),
}


# ---- The oracle: each formula from its docstring, at 50 digits ----------------


def oracle_problem(name):
    """Exact inputs of one problem: D, N, omega, L, mu and M = max(max_X |f|, 1)."""
    spec, D, N, omega, vertices = PROBLEMS[name]
    P, obj = problem_from_json(spec)
    Q = [[Decimal(q) for q in row] for row in obj.Q.tolist()]
    z = [Decimal(v) for v in obj.z.tolist()]
    lam = [Decimal(v) for v in spec["objective"]["eigenvalues"]]
    with decimal.localcontext(CTX):
        values = []
        for v in vertices:
            y = [Decimal(vi) - zi for vi, zi in zip(v, z)]
            values.append(abs(sum(yi * qij * yj for yi, row in zip(y, Q)
                                  for qij, yj in zip(row, y)) / 2))
        M = max(max(values), Decimal(1))
    return P, obj, {"D": D, "N": N, "omega": omega, "L": max(lam), "mu": min(lam), "M": M}


def oracle_constants(p, epsilon, eps_g):
    """Every AnalysisConstants field."""
    with decimal.localcontext(CTX):
        eps = Decimal(epsilon)
        D, N, omega, L, mu, M = p["D"], p["N"], p["omega"], p["L"], p["mu"], p["M"]
        eps_g = 1 / (8 * D) if eps_g is None else Decimal(eps_g)
        beta1 = min(eps / (8 * L * D * D), Decimal(1) / 4)
        delta_S = beta1 * eps / 2
        pg_standard = ((2 * M).exp() - (-delta_S).exp()) / ((2 * M).exp() - (-beta1 * eps).exp())
        h = Decimal(1) / 2 - 2 * eps_g * D
        beta2 = min(h / (1 + 2 * eps_g * D),
                    (omega / N) ** 2 * mu * h / (8 * L * D * D * (2 * eps_g * D + 1) ** 2))
        nu = 1 / (1 + beta2 * eps / 2)
        delta_A = (beta2 * eps / 2) / (2 + beta2 * eps)
        top = 2 * M * nu + 1 - nu
        den = max(-nu * beta2 * eps + 1 - nu, -(1 - nu))
        pg_away = (top.exp() - (-delta_A).exp()) / (top.exp() - den.exp())
    return {**p, "epsilon": eps, "eps_g": eps_g, "beta1": beta1, "beta2": beta2, "nu": nu,
            "delta_S": delta_S, "delta_A": delta_A, "pg_standard": pg_standard,
            "pg_away": pg_away}


def oracle_n(mode, k, V_g, p_g, c, d):
    """The real-valued theorem sample size of one mode (before rounding up)."""
    with decimal.localcontext(CTX):
        eps, eps_g, D, N, omega, M = k["epsilon"], k["eps_g"], k["D"], k["N"], k["omega"], k["M"]
        V_g, p_g, c = Decimal(V_g), Decimal(p_g), Decimal(c)
        log2d = Decimal(2 * d).ln()
        if mode == "bounded_variance_standard":
            return 16 * V_g * D * D / (eps * eps * (1 - p_g))
        if mode == "bounded_variance_away":
            return 2 * V_g * (2 * eps_g * D + 1) ** 2 * (N / omega) ** 2 / ((1 - p_g) * eps)
        if mode == "subgaussian_standard":
            return (16 * D * D / (c * eps * eps)) * (
                2 * M + 2 + log2d + (1 / (k["beta1"] * eps)).ln())
        c1 = (omega / N) ** 2 * k["mu"] / (2 * (2 * eps_g * D + 1) ** 2)
        return (2 * M + 2 + log2d - (k["beta2"] * eps).ln()) / (c * c1 * eps)


def oracle_log_potential(k, kind, gap, active_size):
    """Log of the Lyapunov potential: gap (standard), nu gap + (1 - nu) |S| (away)."""
    with decimal.localcontext(CTX):
        gap = Decimal(gap)
        return gap if kind == "standard" else k["nu"] * gap + (1 - k["nu"]) * active_size


def oracle_bound_mean_T(k, kind, gap0):
    with decimal.localcontext(CTX):
        eps = k["epsilon"]
        if kind == "standard":
            return 2 * Decimal(gap0) * max(8 * k["L"] * k["D"] ** 2 / eps ** 2, 4 / eps)
        return oracle_log_potential(k, "away", gap0, 1) * (2 + 4 / (k["beta2"] * eps))


def delta(k, kind):
    return k["delta_S"] if kind == "standard" else k["delta_A"]


def assert_close(value, exact):
    assert abs(Decimal(value) - exact) <= RTOL * abs(exact), (value, exact)


def assert_rounds_up(n, exact):
    """n is max(1, ceil(x)) for some x within RTOL of the exact real value."""
    assert max(1, math.ceil(exact * (1 - RTOL))) <= n <= max(1, math.ceil(exact * (1 + RTOL)))


# ---- The program against the oracle ------------------------------------------


@pytest.mark.parametrize("eps_g", EPS_GS, ids=["default_eps_g", "given_eps_g"])
@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("name", PROBLEMS)
def test_every_analysis_constant(name, epsilon, eps_g):
    P, obj, p = oracle_problem(name)
    consts = compute_constants(obj, P, epsilon, eps_g)
    exact = oracle_constants(p, epsilon, eps_g)
    assert consts.N == exact["N"]
    for f in dataclasses.fields(AnalysisConstants):
        if f.name != "N":
            assert_close(getattr(consts, f.name), exact[f.name])


@pytest.mark.parametrize("name", PROBLEMS)
def test_eps_g_is_admissible_up_to_one_over_4D(name):
    P, obj, p = oracle_problem(name)
    with decimal.localcontext(CTX):
        below, above = (1 / (4 * p["D"]) * (1 + SIGN[side] * Decimal("1e-9")) for side in SIGN)
    compute_constants(obj, P, 0.1, float(below))
    with pytest.raises(EpsGOutOfRange):
        compute_constants(obj, P, 0.1, float(above))


@pytest.mark.parametrize("name", PROBLEMS)
def test_every_theorem_sample_size(name):
    P, obj, p = oracle_problem(name)
    d, V_g = P.dim, 3.0
    for epsilon in EPSILONS:
        for eps_g in EPS_GS:
            consts = compute_constants(obj, P, epsilon, eps_g)
            exact = oracle_constants(p, epsilon, eps_g)
            for mode in MODES:
                if mode.startswith("bounded_variance"):
                    # p_g defaults to the mode's algorithm's bound, which enters
                    # the formula as the program holds it: 1 - p_g is a few
                    # digits of a float near 1.
                    default_pg = consts.pg_standard if "standard" in mode else consts.pg_away
                    cases = [({}, V_g, default_pg, 0.0),
                             ({"V_g": 2.5, "p_g": 0.9}, 2.5, 0.9, 0.0)]
                else:
                    cases = [({"c": 0.5}, V_g, 0.0, 0.5), ({"c": 2.0}, V_g, 0.0, 2.0)]
                for params, v, p_g, c in cases:
                    n = theorem_sample_size(SamplePlan(mode, params=params), consts, V_g, d)
                    assert_rounds_up(n, oracle_n(mode, exact, v, p_g, c, d))


def experiment(tmp_path, name, algorithm):
    spec = PROBLEMS[name][0]
    return ExperimentConfig.from_dict({
        "problem": spec, "algorithm": algorithm, "noise": {"kind": "gaussian", "sigma": 1.0},
        "sampling": {"mode": "fixed", "n": 1}, "epsilon_grid": list(EPSILONS),
        "replications": 3, "master_seed": 0, "max_iter": 10, "output_dir": str(tmp_path),
    })


@pytest.mark.parametrize("algorithm", ["standard", "away"])
@pytest.mark.parametrize("name", PROBLEMS)
def test_bound_mean_T_and_emp_mgf(tmp_path, name, algorithm):
    _, _, p = oracle_problem(name)
    cfg = experiment(tmp_path, name, algorithm)
    prob = harness._Problem(cfg)
    Ts = [3, 5, 8]
    rows = [{"T_eps": T, "total_samples": 0, "good_steps": 1, "n_steps": T}
            for _ in EPSILONS for T in Ts]
    summary = harness.summarize(cfg, prob, rows)
    for epsilon, stats in zip(EPSILONS, summary.per_epsilon):
        k = oracle_constants(p, epsilon, None)
        assert_close(stats.bound_mean_T, oracle_bound_mean_T(k, algorithm, prob.gap0))
        with decimal.localcontext(CTX):
            mgf = sum((delta(k, algorithm) * T / 2).exp() for T in Ts) / len(Ts)
        assert_close(stats.emp_mgf, mgf)


@pytest.mark.parametrize("algorithm", ["standard", "away"])
@pytest.mark.parametrize("name", PROBLEMS)
def test_step_size_potentials_and_good_events_along_a_run(name, algorithm):
    P, obj, p = oracle_problem(name)
    epsilon = 0.05
    consts = compute_constants(obj, P, epsilon)
    k = oracle_constants(p, epsilon, None)
    trace = run(algorithm, obj, P, consts, NoiseModel.gaussian(0.3, P.dim), 4, 40,
                np.random.default_rng(5), record=True)
    with decimal.localcontext(CTX):
        step = min(Decimal(1), k["epsilon"] / (2 * k["L"] * k["D"] ** 2))
        threshold = k["epsilon"] / (4 * k["D"])
    for rec in trace.records:
        assert_close(rec.lyapunov, CTX.exp(oracle_log_potential(k, algorithm, rec.f_gap,
                                                                 rec.active_size)))
    if algorithm == "standard":
        for rec in trace.records[:-1]:
            assert_close(rec.gamma, step)
            assert rec.good_event == (Decimal(rec.grad_error) <= threshold)


class FakeGaussianRng:
    """Stands in for the generator of a gaussian noise stream: its means are
    the given vectors, then zeros."""

    def __init__(self, means):
        self.means = [np.asarray(m, dtype=float) for m in means]

    def normal(self, loc, scale, shape):
        out = np.zeros(shape)
        for i, m in enumerate(self.means[: shape[0]]):
            out[i] = m
        self.means = self.means[shape[0]:]
        return out




def test_standard_good_event_at_its_boundary():
    # Gradient errors a relative 1e-9 on either side of eps / (4D).
    P, obj, p = oracle_problem("corner_simplex_d3")
    epsilon = 0.2
    k = oracle_constants(p, epsilon, None)
    threshold = CTX.divide(k["epsilon"], 4 * k["D"])
    sides = ["inside", "outside", "inside", "outside"]
    means = [(float(threshold * (1 + SIGN[s] * Decimal("1e-9"))), 0.0, 0.0) for s in sides]
    trace = run("standard", obj, P, compute_constants(obj, P, epsilon),
                NoiseModel.gaussian(1.0, 3), 1, len(means), FakeGaussianRng(means), record=True)
    assert [r.good_event for r in trace.records[:-1]] == [s == "inside" for s in sides]


@pytest.mark.parametrize("side", SIGN)
def test_away_good_event_at_its_boundary(side):
    # The first away step leaves the corner simplex's origin towards s = e_3,
    # so g^T(v - s) = -g_3. Noise along e_1 leaves it and s unchanged, and
    # puts the gradient error a relative 1e-9 on one side of eps_g g^T(v - s).
    P, obj, p = oracle_problem("corner_simplex_d3")
    epsilon = 0.2
    k = oracle_constants(p, epsilon, None)
    x0 = initial_active_set(P).point
    g = obj.gradient(x0)
    s = P.vertices[int(P.vertices.dot(g).argmin())]
    g_vs = float(g.dot(x0 - s))
    with decimal.localcontext(CTX):
        error = float(k["eps_g"] * Decimal(g_vs) * (1 + SIGN[side] * Decimal("1e-9")))
    trace = run("away", obj, P, compute_constants(obj, P, epsilon), NoiseModel.gaussian(1.0, 3),
                1, 1, FakeGaussianRng([(error, 0.0, 0.0)]), record=True)
    first = trace.records[0]
    assert first.step_type == "fw" and first.good_event == (side == "inside")


def one_step_trace(step_type, gap, next_gap):
    records = [IterationRecord(0, step_type, 0.1, 1.0, 0, 0.0, True, gap, 2, 1.0),
               IterationRecord(1, None, 0.0, 0.0, 0, 0.0, True, next_gap, 2, 1.0)]
    return RunTrace(records=records, T_eps=None, total_samples=0, final_gap=next_gap,
                    n_steps=1, good_steps=1)


@pytest.mark.parametrize("side", SIGN)
@pytest.mark.parametrize("kind, step_type", [("standard", "fw"), ("away", "away"),
                                             ("away", "away_drop")])
def test_step_checks_at_their_boundaries(kind, step_type, side):
    # From gap 2, next gaps a relative 1e-3 of the tolerance (1e-9 max(1, gap),
    # 1e-12 on a drop) on either side of the bound.
    P, obj, p = oracle_problem("box_d2")
    epsilon, gap = 0.05, Decimal(2)
    k = oracle_constants(p, epsilon, None)
    with decimal.localcontext(CTX):
        if step_type == "away_drop":
            bound, tol = gap, Decimal("1e-12")
        else:
            tol = Decimal("1e-9") * max(1, gap)
            bound = (gap - k["beta1"] * k["epsilon"] if kind == "standard"
                     else (1 - k["beta2"]) * gap)
        next_gap = bound + tol * (1 + SIGN[side] * Decimal("1e-3"))
    report = verify_trace(one_step_trace(step_type, float(gap), float(next_gap)),
                          compute_constants(obj, P, epsilon), kind)
    assert report.checked == 1
    assert report.passed == (side == "inside")
    assert_close(report.phi_ratio_bound, CTX.exp(-delta(k, kind)))
