"""Strongly convex quadratic test objectives with exact curvature constants
and a certified reference optimum over a polytope."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import config_fields, config_float, config_int, need
from .errors import ConfigError, DimensionMismatch, NoConvergence
from .geometry import Polytope

REFERENCE_GAP_TOL = 1e-12
REFERENCE_MAX_ITER = 10**7
FLOAT = np.dtype(float)  # the descriptor numpy gives the float64 arrays it computes


class QuadraticObjective:
    """f(x) = 0.5 (x - z)^T Q (x - z) with Q = R diag(eigenvalues) R^T.

    The gradient is Q(x - z); the gradient Lipschitz constant L and strong
    convexity constant mu are the extreme eigenvalues, exactly.
    """

    def __init__(self, eigenvalues, z, rotation_seed=None):
        lam = np.asarray(eigenvalues, dtype=float).ravel()
        z = np.asarray(z, dtype=float).ravel()
        if lam.shape != z.shape:
            raise DimensionMismatch(
                f"{lam.size} eigenvalues but z has dimension {z.size}"
            )
        if lam.size == 0 or not np.all(lam > 0):
            raise ValueError(f"eigenvalues must be nonempty and positive, got {lam.tolist()}")
        self.eigenvalues = lam
        self.z = np.ascontiguousarray(z)
        self._shape = self.z.shape  # what value_and_gradient takes as it is
        self.rotation_seed = rotation_seed
        if rotation_seed is None:
            self.rotation = np.eye(lam.size)
        else:
            rng = np.random.default_rng(rotation_seed)
            q, r = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
            self.rotation = q * np.sign(np.diag(r))
        Q = self.rotation @ np.diag(lam) @ self.rotation.T
        self.Q = np.ascontiguousarray(0.5 * (Q + Q.T))
        self.L = float(lam.max())
        self.mu = float(lam.min())

    @property
    def dim(self) -> int:
        return self.z.size

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.z.shape:
            raise DimensionMismatch(f"point has shape {x.shape}, expected ({self.dim},)")
        return x

    def value(self, x) -> float:
        y = self._check(x) - self.z
        return float((0.5 * y).dot(self.Q).dot(y))

    def gradient(self, x) -> np.ndarray:
        return self.Q.dot(self._check(x) - self.z)

    def value_and_gradient(self, x) -> tuple[float, np.ndarray]:
        """(value(x), gradient(x)) from one residual y = x - z, bit for bit:
        0.5 * (y @ Q @ y) is value's (0.5 * y) @ Q @ y rescaled exactly.
        Every product is ndarray.dot, left to right as @ groups it: on the
        C-contiguous Q and y it gives @'s bits at a third of its call cost
        (y.dot(Q @ y) would regroup the sum and change bits on rotated Q).
        A float64 ndarray of the right shape is used as it is; anything else
        is coerced and checked as value and gradient do."""
        if x.__class__ is not np.ndarray or x.dtype is not FLOAT or x.shape != self._shape:
            x = self._check(x)
        y = x - self.z
        Q = self.Q
        return 0.5 * float(y.dot(Q).dot(y)), Q.dot(y)


@dataclass(frozen=True)
class ReferenceSolution:
    """Feasible near-optimal point with a duality-gap certificate:
    f(x_star) - f* <= certified_gap by convexity."""

    x_star: np.ndarray
    f_star: float
    certified_gap: float


def reference_solution(
    obj: QuadraticObjective,
    P: Polytope,
    gap_tol: float = REFERENCE_GAP_TOL,
    max_iter: int = REFERENCE_MAX_ITER,
) -> ReferenceSolution:
    """Certified optimum of the objective over the polytope.

    If the unconstrained minimizer z is feasible it is returned outright.
    Otherwise runs away-step Frank-Wolfe with exact gradients and exact line
    search, gamma = min(gamma_max, -g.d / d^T Q d), which keeps its linear
    rate, until the duality gap falls below gap_tol * max(1, |f(x)|); that
    gap is the certificate.
    """
    from .frank_wolfe import away_fw_step, initial_active_set

    if P.contains(obj.z):
        return ReferenceSolution(x_star=obj.z.copy(), f_star=0.0, certified_gap=0.0)
    active = initial_active_set(P)  # stepped in place by away_fw_step
    V, L, Q, value_and_gradient = P.vertices, obj.L, obj.Q, obj.value_and_gradient

    def curvature(d: np.ndarray) -> float:
        return float(d.dot(Q).dot(d))

    gap = np.inf
    for _ in range(max_iter):
        x = active.point
        f, g = value_and_gradient(x)
        scores = V.dot(g)
        gap = float(g.dot(x) - scores.min())
        if gap <= gap_tol * max(1.0, abs(f)):
            return ReferenceSolution(x_star=x.copy(), f_star=f, certified_gap=gap)
        away_fw_step(active, g, P, L, scores, curvature)
    raise NoConvergence(
        f"reference solve hit {max_iter} iterations; gap {gap:.3e}", achieved_gap=gap
    )


def max_abs_value(obj: QuadraticObjective, P: Polytope) -> float:
    """max_{x in X} |f(x)| by vertex scan; valid because f is convex and
    nonnegative, so the maximum is attained at a vertex.

    One vectorised pass puts every vertex's value within `margin` of
    obj.value(v); obj.value runs only at the vertices that pass, so the
    result is max(obj.value(v) for v in P.vertices) bit for bit.
    """
    V = P.vertices
    Y = V - obj.z
    screen = 0.5 * ((Y @ obj.Q) * Y).sum(axis=1)
    # obj.value and the screen each round off by at most about
    # 2d eps * 0.5 |y|^T |Q| |y|.
    Y = np.abs(Y)
    scale = 0.5 * ((Y @ np.abs(obj.Q)) * Y).sum(axis=1).max()
    margin = 8 * (obj.dim + 2) * np.finfo(float).eps * scale
    # A NaN bound (inf - inf, from a value that overflows) keeps every vertex.
    return max(obj.value(v) for v in V[~(screen < screen.max() - 2 * margin)])


def objective_from_json(spec: dict) -> QuadraticObjective:
    """Build from {"eigenvalues": [...], "rotation_seed": int|null, "z": [...]}."""
    config_fields("objective", spec, ("eigenvalues", "z", "rotation_seed"))
    lam = need(spec, "objective", "eigenvalues")
    lam = config_float("objective.eigenvalues", lam, 0, above=True, ndim=1)
    z = config_float("objective.z", need(spec, "objective", "z"), ndim=1)
    if z.shape != lam.shape:
        raise ConfigError("objective.z", f"{lam.size} eigenvalues but z has dimension {z.size}")
    seed = spec.get("rotation_seed")
    seed = None if seed is None else config_int("objective.rotation_seed", seed, 0)
    return QuadraticObjective(eigenvalues=lam, z=z, rotation_seed=seed)
