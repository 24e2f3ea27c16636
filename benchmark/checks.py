"""Correctness checks made apart from the program.

Each check recomputes a quantity independently (the optimum by face
enumeration, the box vertices and LMO by closed form) or tests a property
the paper proves (scaling orders, good-event rates, per-iteration
inequalities). None compares against a stored copy of today's outputs, so a
later change that corrects the method is not failed by one.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

F_STAR_TOL = 1e-9
GAP_FLOOR = -1e-12


class Checks:
    """Collects named pass/fail results; `failures` lists what failed."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


def h_form(polytope: dict) -> tuple[np.ndarray, np.ndarray]:
    """Ax <= b for the box and corner-simplex presets, built from their
    definitions rather than from the program's polytope."""
    d, s = int(polytope["dim"]), float(polytope.get("scale", 1.0))
    eye = np.eye(d)
    if polytope["preset"] == "box":
        return np.vstack([eye, -eye]), np.concatenate([np.full(d, s), np.zeros(d)])
    if polytope["preset"] == "simplex":
        return np.vstack([-eye, np.ones((1, d))]), np.concatenate([np.zeros(d), [s]])
    raise ValueError(f"no independent form for preset {polytope['preset']!r}")


def minimum_by_faces(Q, z, A, b, tol=1e-9) -> tuple[float, np.ndarray]:
    """min 0.5 (x-z)^T Q (x-z) over {Ax <= b} by enumerating active sets.

    For every set S of at most d rows, solve the equality-constrained KKT
    system [[Q, A_S^T], [A_S, 0]] and keep feasible solutions; the optimum is
    the feasible candidate of least value, since the minimizer of a strictly
    convex quadratic minimizes it over the affine hull of its own face.
    Pairs of opposite rows (a box's two bounds on one coordinate) cannot be
    active together and are skipped.
    """
    m, d = A.shape
    opposite = {
        (i, j) for i in range(m) for j in range(i + 1, m) if np.allclose(A[i], -A[j])
    }
    best, best_x = math.inf, None
    for k in range(d + 1):
        for S in itertools.combinations(range(m), k):
            if any(p in opposite for p in itertools.combinations(S, 2)):
                continue
            AS = A[list(S)]
            K = np.block([[Q, AS.T], [AS, np.zeros((k, k))]])
            rhs = np.concatenate([Q @ z, b[list(S)]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:d]
            if np.all(A @ x <= b + tol):
                y = x - z
                f = 0.5 * float(y @ Q @ y)
                if f < best:
                    best, best_x = f, x
    return best, best_x


def simplex_minimum_diagonal(lam, z, scale) -> float:
    """Closed form for an axis-aligned quadratic on {x >= 0, sum x <= s}:
    x_i = max(0, z_i - tau / lam_i) with tau >= 0 the multiplier of the sum
    constraint, found among the breakpoints tau_i = lam_i z_i."""
    lam, z = np.asarray(lam, float), np.asarray(z, float)
    if np.maximum(z, 0.0).sum() <= scale:
        x = np.maximum(z, 0.0)
    else:
        order = np.argsort(-(lam * z))
        for k in range(1, len(z) + 1):
            act = order[:k]
            tau = (z[act].sum() - scale) / (1.0 / lam[act]).sum()
            x = np.maximum(z - tau / lam, 0.0)
            if abs(x.sum() - scale) <= 1e-12 * max(1.0, scale):
                break
    return 0.5 * float(((x - z) ** 2 * lam).sum())


def closed_form_lmo(polytope: dict, g) -> np.ndarray:
    """Minimizer of g^T s over the box (s_i = scale where g_i < 0) or the
    corner simplex (scale * e_argmin(g) when min g < 0, else 0)."""
    d, s = int(polytope["dim"]), float(polytope.get("scale", 1.0))
    g = np.asarray(g, float)
    if polytope["preset"] == "box":
        return np.where(g < 0.0, s, 0.0)
    out = np.zeros(d)
    if g.min() < 0.0:
        out[int(np.argmin(g))] = s
    return out


def check_problem(checks: Checks, config: dict, built: dict, rng) -> None:
    """Optimum, vertex list and LMO of the workload's problem."""
    import polyfw

    spec = config["problem"]
    obj, P, ref = built["obj"], built["P"], built["ref"]
    lam = np.asarray(spec["objective"]["eigenvalues"], float)
    z = np.asarray(spec["objective"]["z"], float)
    checks.expect(
        "objective.spectrum",
        np.allclose(np.sort(np.linalg.eigvalsh(obj.Q)), np.sort(lam), atol=1e-12)
        and np.allclose(obj.Q, obj.Q.T),
        "Q is not symmetric with the configured eigenvalues",
    )
    A, b = h_form(spec["polytope"])
    f_faces, _ = minimum_by_faces(obj.Q, z, A, b)
    checks.expect(
        "reference.f_star_faces", abs(ref.f_star - f_faces) <= F_STAR_TOL,
        f"reference_solution {ref.f_star!r} vs face enumeration {f_faces!r}",
    )
    if spec["polytope"]["preset"] == "simplex" and spec["objective"].get("rotation_seed") is None:
        f_closed = simplex_minimum_diagonal(lam, z, float(spec["polytope"].get("scale", 1.0)))
        checks.expect(
            "reference.f_star_closed_form", abs(ref.f_star - f_closed) <= F_STAR_TOL,
            f"reference_solution {ref.f_star!r} vs closed form {f_closed!r}",
        )
    poly = spec["polytope"]
    if poly["preset"] == "box":
        s = float(poly.get("scale", 1.0))
        expected = np.array(sorted(itertools.product((0.0, s), repeat=int(poly["dim"]))))
        got = np.asarray(P.vertices)
        order = np.lexsort(got.T[::-1])
        checks.expect(
            "box.vertices",
            got.shape == expected.shape and np.array_equal(got[order], expected),
            f"{len(got)} vertices, expected {len(expected)} = {{0, {s}}}^d",
        )
    worst_lmo = worst_lp = 0.0
    for _ in range(20):
        g = rng.standard_normal(P.dim)
        want = closed_form_lmo(poly, g)
        s_enum, _ = polyfw.lmo(P, g)
        s_lp = polyfw.lmo_simplex_method(P, g)
        worst_lmo = max(worst_lmo, float(np.abs(s_enum - want).max()))
        worst_lp = max(worst_lp, float(np.abs(s_lp - want).max()))
    checks.expect("lmo.closed_form", worst_lmo <= 1e-12, f"vertex-scan LMO off by {worst_lmo:.3e}")
    checks.expect("lmo_simplex.closed_form", worst_lp <= 1e-9,
                  f"simplex-method LMO off by {worst_lp:.3e}")


def parse_rows(csv_text: str) -> list[dict]:
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rec = dict(zip(header, line.split(",")))
        rows.append({
            "epsilon": float(rec["epsilon"]),
            "replication": int(rec["replication"]),
            "T_eps": int(rec["T_eps"]),
            "total_samples": int(rec["total_samples"]),
            "good_event_rate": float(rec["good_event_rate"]),
            "final_gap": float(rec["final_gap"]),
        })
    return rows


def strip_wall(csv_text: str) -> str:
    """runs.csv without its wall_ms column, which is the only field allowed
    to differ between runs of one config."""
    lines = csv_text.strip().splitlines()
    col = lines[0].split(",").index("wall_ms")
    return "\n".join(
        ",".join(f for i, f in enumerate(line.split(",")) if i != col) for line in lines
    )


def _fit(x, y) -> tuple[float, float]:
    """Least-squares slope of y on x and its r^2."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    slope, icept = np.polyfit(x, y, 1)
    resid = y - (slope * x + icept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return float(slope), (1.0 if ss_tot == 0 else 1.0 - float(resid @ resid) / ss_tot)


def check_rows(checks: Checks, workload: str, config: dict, built: dict,
               rows: list[dict], summary: dict) -> None:
    """Per-row bounds and the paper's scaling properties on one round."""
    grid = config["epsilon_grid"]
    checks.expect("rows.count", len(rows) == len(grid) * config["replications"],
                  f"{len(rows)} rows")
    checks.expect("rows.converged", all(r["T_eps"] >= 0 for r in rows),
                  "a replication hit max_iter")
    bad_gap = [r for r in rows if not GAP_FLOOR <= r["final_gap"] <= r["epsilon"]]
    checks.expect("rows.final_gap", not bad_gap,
                  f"{len(bad_gap)} rows with final_gap outside [-1e-12, epsilon]")
    per_eps = {p["epsilon"]: p for p in summary["per_epsilon"]}
    if config["sampling"]["mode"] == "fixed":
        n_of = {eps: config["sampling"]["n"] for eps in grid}
    else:
        n_of = {eps: per_eps[eps]["n_planned"] for eps in grid}
    checks.expect(
        "plan.matches_setup", [n_of[e] for e in grid] == list(built["n_planned"]),
        f"summary n {[n_of[e] for e in grid]} vs set-up n {built['n_planned']}",
    )
    bad_samples = [r for r in rows if r["total_samples"] != n_of[r["epsilon"]] * r["T_eps"]]
    checks.expect("rows.total_samples", not bad_samples,
                  f"{len(bad_samples)} rows with total_samples != n * T_eps")
    checks.expect("summary.bound_violations", summary["bound_violations"] == 0,
                  f"{summary['bound_violations']} epsilons above the E[T] bound")

    inv = np.log([1.0 / e for e in grid])
    mean_T = [np.mean([r["T_eps"] for r in rows if r["epsilon"] == e]) for e in grid]
    t_slope, _ = _fit(inv, np.log(mean_T))
    n = np.array([n_of[e] for e in grid], float)
    if workload == "grid-standard":
        n_slope, _ = _fit(inv, np.log(n))
        checks.expect("paper.n_slope", abs(n_slope - 4.0) <= 0.05, f"n-slope {n_slope:.4f}")
        checks.expect("paper.T_slope", t_slope <= 2.3, f"T-slope {t_slope:.3f}")
    elif workload == "away-subgauss":
        _, r2 = _fit(inv, n * np.array(grid))
        checks.expect("paper.n_eps_affine", r2 >= 0.999, f"r2 {r2:.6f}")
        checks.expect("paper.T_slope", t_slope <= 1.3, f"T-slope {t_slope:.3f}")
        for eps, c in zip(grid, built["consts"]):
            steps = sum(r["T_eps"] for r in rows if r["epsilon"] == eps)
            rate = per_eps[eps]["good_event_rate"]
            se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / max(steps, 1))
            checks.expect(f"paper.good_event_rate[{eps}]", rate >= c.pg_away - 3.0 * se,
                          f"rate {rate:.4f} < p_g {c.pg_away:.4f} - 3se")


def check_traces(checks: Checks, config: dict, built: dict, rows: list[dict]) -> None:
    """Every saved trace passes verify_trace and agrees with its row."""
    import polyfw
    from polyfw.harness import trace_from_json

    out = config["output_dir"]
    consts = dict(zip(config["epsilon_grid"], built["consts"]))
    failed, mismatched = [], []
    for i, eps in enumerate(config["epsilon_grid"]):
        for r in range(config["replications"]):
            with open(os.path.join(out, f"trace_e{i}_r{r}.json")) as fh:
                data = json.load(fh)
            trace = trace_from_json(data)
            if not polyfw.verify_trace(trace, consts[eps], config["algorithm"]).passed:
                failed.append((i, r))
            row = next(x for x in rows if x["epsilon"] == eps and x["replication"] == r)
            t = trace.T_eps if trace.T_eps is not None else -1
            if (t, trace.total_samples, trace.final_gap) != (
                row["T_eps"], row["total_samples"], row["final_gap"]
            ):
                mismatched.append((i, r))
    checks.expect("traces.verify", not failed, f"verify_trace failed on {failed}")
    checks.expect("traces.match_rows", not mismatched, f"traces disagree with rows {mismatched}")


def check_cli(checks: Checks, outputs: list[tuple[str, int, str]]) -> None:
    """The audit's CLI commands exit 0 and report what they should."""
    for command, code, text in outputs:
        if not checks.expect(f"cli.{command}.exit", code == 0, f"exit code {code}"):
            continue
        if command == "verify":
            checks.expect("cli.verify.passed", json.loads(text).get("passed") is True,
                          "verify reported violations")
        elif command == "lmo-check":
            worst = float(text.split("mismatch")[1].split()[0])
            checks.expect("cli.lmo_check.mismatch", worst <= 1e-8, f"mismatch {worst:.3e}")
        elif command == "concentration":
            cells = json.loads(text)["cells"]
            checks.expect("cli.concentration.chebyshev",
                          not any(c["violation"] for c in cells),
                          "a cell exceeds its Chebyshev bound")
