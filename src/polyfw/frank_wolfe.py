"""Standard and away-step Frank-Wolfe loops with active-set bookkeeping,
run to the stopping time: O(1) counters by default, per-iteration records
on request."""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from . import theory
from .diagnostics import AnalysisConstants, IterationRecord, RunTrace
from .errors import DegenerateDirection, InvariantViolation
from .geometry import Polytope, lmo
from .objectives import reference_solution
from .sampling import NoiseModel, noise_mean_stream

DROP_TOL = 1e-12
# ActiveSet runs its drop mask only when its lower bound on the positive
# weights is at or below MASK_BELOW.
MASK_BELOW = 2.0 * DROP_TOL
# The bound goes through the same correctly rounded products and quotients
# as the weights it bounds, so rounding, being monotone, keeps it at or below
# them; the exact factor 1 - 2^-50 per update, and the 2 in MASK_BELOW, are
# margin on top (each operation rounds by at most 2^-53 relative).
SLACK = 1.0 - 2.0**-50


class ActiveSet:
    """Convex-combination representation of the current iterate: one weight
    per vertex of P in the array w, positive on the active vertices, zero
    elsewhere and summing to one; point is w @ V, with V = P.vertices,
    computed as w.dot(V) (the same bits on C-contiguous float64 operands,
    without the matmul call overhead).

    Weights at or below DROP_TOL are zeroed and the remaining mass
    renormalized, so floating-point dust never accumulates. The set keeps
    low, a proven lower bound on every positive weight, carried through each
    update (see SLACK). The zeroing mask, about 1 us an update, runs only
    when low <= MASK_BELOW = 2 DROP_TOL, and low is then recomputed exactly;
    above that no weight can be dust, so skipping the mask leaves w as
    running it would, bit for bit.
    """

    def __init__(self, P: Polytope, weights: dict[int, float]):
        self.P = P
        self.V = P.vertices
        self.w = np.zeros(len(self.V))
        self.w[list(weights)] = list(weights.values())
        self._settle(0.0)  # a bound of 0 runs the mask

    def __len__(self) -> int:
        return int(np.count_nonzero(self.w))

    def apply_fw(self, s_id: int, gamma: float) -> None:
        """Frank-Wolfe update for gamma in [0, 1]: scale the weights by
        (1 - gamma) and add gamma to s, so the full step collapses to {s}."""
        w = self.w
        keep = 1.0 - gamma
        w *= keep
        w[s_id] += gamma
        # s gets at least gamma, every other positive weight low (1 - gamma).
        self._settle(min(self.low * keep * SLACK, gamma))

    def apply_away(self, v_id: int, gamma: float, at_max: bool) -> None:
        """Away update: scale other weights by (1 + gamma); the away vertex
        gets (1 + gamma) alpha - gamma, which is dropped at the maximal step."""
        w = self.w
        alpha_v = float(w[v_id])
        w *= 1.0 + gamma
        # Every other positive weight is at least low (1 + gamma).
        low = self.low * (1.0 + gamma) * SLACK
        if at_max:
            w[v_id] = 0.0
        else:
            w[v_id] = rest = (1.0 + gamma) * alpha_v - gamma
            low = min(low, rest)
        self._settle(low)

    def _settle(self, low: float) -> None:
        """Drop dust (only when low, a lower bound on the positive weights,
        allows it), renormalize, and set low and point."""
        w = self.w
        masked = low <= MASK_BELOW
        if masked:
            w[w <= DROP_TOL] = 0.0
        total = np.add.reduce(w)  # w.sum() without its Python wrapper
        if not abs(total - 1.0) <= 0.5:
            raise InvariantViolation(f"active-set mass {total} lost; representation corrupt")
        if total != 1.0:
            w /= total
            low = low / float(total) * SLACK
        self.low = float(w[w > 0.0].min()) if masked else low
        self.point = w.dot(self.V)


def initial_active_set(P: Polytope) -> ActiveSet:
    """Singleton active set at the vertex solving min 1^T x."""
    _, vid = lmo(P, np.ones(P.dim))
    return ActiveSet(P, {vid: 1.0})


def standard_fw_step(
    active: ActiveSet, g: np.ndarray, P: Polytope, gamma: float
) -> tuple[ActiveSet, dict]:
    """One standard Frank-Wolfe step of the given size
    (theory.standard_step_size) towards the LMO vertex, applied to the given
    active set in place. The vertex is the first minimizer of V @ g, as lmo
    picks it; the scan is made here, as in away_fw_step, to skip lmo's
    per-call argument handling."""
    s_id = int(active.V.dot(g).argmin())
    active.apply_fw(s_id, gamma)
    info = {
        "step_type": "fw_max" if gamma >= 1.0 else "fw",
        "gamma": gamma,
        "gamma_max": 1.0,
        "s_id": s_id,
    }
    return active, info


def away_fw_step(
    active: ActiveSet, g: np.ndarray, P: Polytope, L: float, scores: np.ndarray | None = None,
    curvature: Callable[[np.ndarray], float] | None = None,
) -> tuple[ActiveSet, dict]:
    """One away-step Frank-Wolfe update, applied to the given active set in place.

    Scores every vertex once by g^T u (or takes scores = V @ g from a caller
    that already has them): the FW vertex s is the first minimizer (as in
    lmo) and the away vertex v the first maximizer over the active ids
    w.nonzero(), ascending, so ties break to the smallest id. Picks the
    better of the two directions (FW on ties), steps by min(gamma_max,
    -g.d / c) and applies the matching weight-update case. The curvature c
    along d is L ||d||^2, the quadratic upper bound, unless the caller passes
    curvature(d) (d^T Q d for a quadratic makes the step exact). The
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
    c = L * norm2 if curvature is None else curvature(d)
    unclamped = max(0.0, descent) / c
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
    record: bool = False,
    collect_weights: bool = False,
) -> RunTrace:
    """Run one algorithm ("standard" or "away") on the epsilon cell of consts
    to the stopping time.

    Stops at the first k with f(x_k) - f* <= epsilon (recorded as T_eps) or
    after max_iter steps (T_eps = None); f* defaults to the reference solve.
    epsilon, D, L, eps_g and nu are read from consts. The objective is
    evaluated once per iterate (value and gradient together). Every stepping
    iteration adds the mean of n gradient samples; n = 0 uses the true
    gradient.
    The noise means come from noise_mean_stream, which draws gaussian and
    rademacher means from their exact laws in blocks: the estimates equal
    successive estimate_gradient draws from rng, but a caller that reuses rng
    after run sees a stream advanced past the run's last step.
    The good-event flag is the algorithm's good-event test (theory module)
    on the realized gradient error. The trace counts steps and good steps;
    only with record does it keep one IterationRecord per iterate (records
    is None otherwise), and every iterate's gap passes check_gap either way.
    With collect_weights the trace's weights holds a copy of the active set's
    weight row w at every iterate.
    """
    if algorithm not in ("standard", "away"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if f_star is None:
        f_star = reference_solution(obj, P).f_star
    epsilon, D, L, eps_g, nu = consts.epsilon, consts.D, consts.L, consts.eps_g, consts.nu
    gamma = theory.standard_step_size(epsilon, L, D)
    threshold = theory.standard_good_threshold(epsilon, D)
    # Bound once per run: the loop calls these every iterate.
    value_and_gradient = obj.value_and_gradient
    next_mean = noise_mean_stream(noise, n, rng).__next__ if n else None

    active = initial_active_set(P)
    records: list[IterationRecord] | None = [] if record else None
    weights: list[np.ndarray] = []
    good_steps = total_samples = 0
    T_eps = None
    f_gap = math.inf

    for k in range(max_iter + 1):
        if collect_weights:
            weights.append(active.w.copy())
        f, grad = value_and_gradient(active.point)
        f_gap = f - f_star
        if record:
            n_k = len(active)
            lyap = theory.lyapunov(algorithm, f_gap, n_k, nu)
        else:
            theory.check_gap(f_gap)

        # Records are built positionally, in IterationRecord's field order
        # (k, step_type, gamma, gamma_max, n_samples, grad_error, good_event,
        # f_gap, active_size, lyapunov): cheaper than the keyword call.
        if f_gap <= epsilon or k == max_iter:
            if record:
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
            good = theory.away_good_event(grad_error, eps_g, info["g_vs"])
        good_steps += good

        if record:
            records.append(IterationRecord(
                k, info["step_type"], info["gamma"], info["gamma_max"], n, grad_error, good,
                f_gap, n_k, lyap,
            ))

    return RunTrace(
        records=records,
        T_eps=T_eps,
        total_samples=total_samples,
        final_gap=f_gap,
        n_steps=k,  # the loop leaves through its break, after k steps
        good_steps=good_steps,
        weights=np.array(weights) if collect_weights else None,
    )
