"""Standard and away-step Frank-Wolfe loops with active-set bookkeeping and
full per-iteration traces up to the stopping time."""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import AnalysisConstants, IterationRecord, RunTrace, lyapunov
from .errors import DegenerateDirection, InvariantViolation
from .geometry import Polytope, lmo
from .objectives import reference_solution
from .sampling import NoiseModel, noise_mean_stream

DROP_TOL = 1e-12


class ActiveSet:
    """Convex-combination representation of the current iterate: one weight
    per vertex of P in the array w, positive on the active vertices, zero
    elsewhere and summing to one; point is w @ V, with V = P.vertices,
    computed as w.dot(V) (the same bits on C-contiguous float64 operands,
    without the matmul call overhead).

    Weights at or below DROP_TOL are zeroed and the remaining mass
    renormalized, so floating-point dust never accumulates.
    """

    def __init__(self, P: Polytope, weights: dict[int, float]):
        self.P = P
        self.V = P.vertices
        self.w = np.zeros(len(self.V))
        self.w[list(weights)] = list(weights.values())
        self._settle()

    def __len__(self) -> int:
        return int(np.count_nonzero(self.w))

    def apply_fw(self, s_id: int, gamma: float) -> None:
        """Frank-Wolfe update for gamma in [0, 1]: scale the weights by
        (1 - gamma) and add gamma to s, so the full step collapses to {s}."""
        self.w *= 1.0 - gamma
        self.w[s_id] += gamma
        self._settle()

    def apply_away(self, v_id: int, gamma: float, at_max: bool) -> None:
        """Away update: scale other weights by (1 + gamma); the away vertex
        gets (1 + gamma) alpha - gamma, which is dropped at the maximal step."""
        alpha_v = self.w[v_id]
        self.w *= 1.0 + gamma
        self.w[v_id] = 0.0 if at_max else (1.0 + gamma) * alpha_v - gamma
        self._settle()

    def _settle(self) -> None:
        w = self.w
        w[w <= DROP_TOL] = 0.0
        total = np.add.reduce(w)  # w.sum() without its Python wrapper
        if not abs(total - 1.0) <= 0.5:
            raise InvariantViolation(f"active-set mass {total} lost; representation corrupt")
        if total != 1.0:
            w /= total
        self.point = w.dot(self.V)


def initial_active_set(P: Polytope) -> ActiveSet:
    """Singleton active set at the vertex solving min 1^T x."""
    _, vid = lmo(P, np.ones(P.dim))
    return ActiveSet(P, {vid: 1.0})


def standard_step_size(epsilon: float, L: float, D: float) -> float:
    """The standard algorithm's fixed step size min(1, epsilon / (2 L D^2))."""
    return min(1.0, epsilon / (2.0 * L * D * D))


def standard_fw_step(
    active: ActiveSet, g: np.ndarray, P: Polytope, gamma: float
) -> tuple[ActiveSet, dict]:
    """One standard Frank-Wolfe step of the given size (standard_step_size)
    towards the LMO vertex, applied to the given active set in place. The
    vertex is the first minimizer of V @ g, as lmo picks it; the scan is made
    here, as in away_fw_step, to skip lmo's per-call argument handling."""
    s_id = int(P.vertices.dot(g).argmin())
    active.apply_fw(s_id, gamma)
    info = {
        "step_type": "fw_max" if gamma >= 1.0 else "fw",
        "gamma": gamma,
        "gamma_max": 1.0,
        "s_id": s_id,
    }
    return active, info


def away_fw_step(
    active: ActiveSet, g: np.ndarray, P: Polytope, L: float, scores: np.ndarray | None = None
) -> tuple[ActiveSet, dict]:
    """One away-step Frank-Wolfe update, applied to the given active set in place.

    Scores every vertex once by g^T u (or takes scores = V @ g from a caller
    that already has them): the FW vertex s is the first minimizer (as in
    lmo) and the away vertex v the first maximizer over the active ids
    w.nonzero(), ascending, so ties break to the smallest id. Picks the
    better of the two directions (FW on ties), steps by min(gamma_max,
    -g.d / (L ||d||^2)) and applies the matching weight-update case. The
    returned info carries the realized vertices and g^T(v - s), which the
    caller needs for the good-event test. Raises DegenerateDirection, leaving
    the set unchanged, when the chosen direction is numerically zero.
    """
    V = P.vertices
    x = active.point
    if scores is None:
        scores = V.dot(g)
    s_id = int(scores.argmin())
    ids = active.w.nonzero()[0]
    v_id = int(ids[scores[ids].argmax()])
    s, v = V[s_id], V[v_id]
    d_fw, d_away = s - x, x - v
    g_vs = float(g.dot(v - s))  # always >= 0 by optimality of s and v

    descent_fw = -float(g.dot(d_fw))
    descent_away = -float(g.dot(d_away))
    take_fw = descent_fw >= descent_away
    if take_fw:
        d, gamma_max, descent = d_fw, 1.0, descent_fw
    else:
        # alpha_v = 1 makes d_away = 0 and -g.d_away = 0 <= -g.d_fw, so the
        # FW branch is taken and this division cannot see alpha_v = 1.
        alpha_v = float(active.w[v_id])
        if not alpha_v < 1.0:
            raise InvariantViolation("away branch reached with a singleton active set")
        d, gamma_max, descent = d_away, alpha_v / (1.0 - alpha_v), descent_away

    norm2 = float(d.dot(d))
    if norm2 <= 1e-28:
        raise DegenerateDirection("search direction is numerically zero")
    if not descent >= -1e-12:
        raise InvariantViolation("chosen direction is not a descent direction for g")
    unclamped = max(0.0, descent) / (L * norm2)
    at_max = unclamped >= gamma_max
    gamma = gamma_max if at_max else unclamped

    if take_fw:
        active.apply_fw(s_id, gamma)
        step_type = "fw_max" if at_max else "fw"
    else:
        active.apply_away(v_id, gamma, at_max)
        step_type = "away_drop" if at_max else "away"
    info = {
        "step_type": step_type,
        "gamma": gamma,
        "gamma_max": gamma_max,
        "s_id": s_id,
        "v_id": v_id,
        "g_vs": g_vs,
    }
    return active, info


def run(
    algorithm: str,
    obj,
    P: Polytope,
    consts: AnalysisConstants,
    noise: NoiseModel | None,
    n: int,
    max_iter: int,
    rng: np.random.Generator | None,
    *,
    f_star: float | None = None,
    collect_weights: bool = False,
) -> RunTrace:
    """Run one algorithm ("standard" or "away") on the epsilon cell of consts
    to the stopping time.

    Stops at the first k with f(x_k) - f* <= epsilon (recorded as T_eps) or
    after max_iter steps (T_eps = None); f* defaults to the reference solve.
    epsilon, D, L and eps_g are read from consts. The objective is evaluated
    once per iterate (value and gradient together). Every stepping iteration
    adds the mean of n gradient samples; n = 0 uses the true gradient.
    The noise means come from noise_mean_stream, which draws gaussian and
    rademacher means from their exact laws in blocks: the estimates equal
    successive estimate_gradient draws from rng, but a caller that reuses rng
    after run sees a stream advanced past the run's last step.
    The good-event flag compares the realized gradient error against
    epsilon/(4D) for the standard algorithm and eps_g * g^T(v - s) for the
    away-step algorithm. With collect_weights the trace's weights holds a copy
    of the active set's weight row w at every iterate, one row per record.
    """
    if algorithm not in ("standard", "away"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if f_star is None:
        f_star = reference_solution(obj, P).f_star
    epsilon, D, L, eps_g = consts.epsilon, consts.D, consts.L, consts.eps_g
    gamma = standard_step_size(epsilon, L, D)
    threshold = epsilon / (4.0 * D)
    # Bound once per run: the loop calls these every iterate.
    value_and_gradient = obj.value_and_gradient
    next_mean = noise_mean_stream(noise, n, rng).__next__ if n else None

    active = initial_active_set(P)
    records: list[IterationRecord] = []
    weights: list[np.ndarray] = []
    total_samples = 0
    T_eps = None
    f_gap = math.inf

    for k in range(max_iter + 1):
        if collect_weights:
            weights.append(active.w.copy())
        f, grad = value_and_gradient(active.point)
        f_gap = f - f_star
        n_k = len(active)
        lyap = lyapunov(algorithm, f_gap, n_k, consts)

        # Records are built positionally, in IterationRecord's field order
        # (k, step_type, gamma, gamma_max, n_samples, grad_error, good_event,
        # f_gap, active_size, lyapunov): cheaper than the keyword call.
        if f_gap <= epsilon or k == max_iter:
            records.append(IterationRecord(k, None, 0.0, 0.0, 0, 0.0, True, f_gap, n_k, lyap))
            if f_gap <= epsilon:
                T_eps = k
            break

        if next_mean is None:
            g, grad_error = grad, 0.0
        else:
            g = grad + next_mean()
            e = g - grad
            grad_error = math.sqrt(e.dot(e))  # np.linalg.norm(e), bit for bit
            total_samples += n

        if algorithm == "standard":
            active, info = standard_fw_step(active, g, P, gamma)
            good = grad_error <= threshold
        else:
            try:
                active, info = away_fw_step(active, g, P, L)
            except DegenerateDirection:
                # Noisy gradient re-selected the current singleton vertex;
                # the iterate is stationary for this estimate, so idle.
                info = {"step_type": "idle", "gamma": 0.0, "gamma_max": 1.0, "g_vs": 0.0}
            good = grad_error <= eps_g * info["g_vs"]

        records.append(IterationRecord(
            k, info["step_type"], info["gamma"], info["gamma_max"], n, grad_error, good,
            f_gap, n_k, lyap,
        ))

    return RunTrace(
        records=records,
        T_eps=T_eps,
        total_samples=total_samples,
        final_gap=f_gap,
        weights=np.array(weights) if collect_weights else None,
    )
