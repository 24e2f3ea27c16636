"""Bounded polytopes in H-form: vertex enumeration, linear minimization, and
the geometric constants (diameter, zeta, phi, omega) used by the convergence
analysis."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import simplex_lp
from .errors import (
    ConfigError,
    DegeneratePolytope,
    DimensionMismatch,
    EmptyVertexList,
    Infeasible,
    InfeasiblePoint,
    Unbounded,
    UnboundedOrEmpty,
    UnknownVertexId,
)

FEAS_TOL = 1e-9
DEDUP_TOL = 1e-8
# Largest C(m, d) that vertex enumeration accepts (about 3 s of batched solves).
MAX_SUBSETS = 10**6
# d-row subsets per stacked solve; bounds the chunk's arrays to 2048 d x d systems.
SUBSET_CHUNK = 2048


@dataclass(frozen=True)
class GeometryConstants:
    """Polytope constants entering the convergence analysis.

    omega = zeta / phi, where zeta is the smallest strictly positive
    constraint slack over all vertices and phi is the largest row norm among
    constraints that are not active at every vertex.
    """

    D: float
    N: int
    zeta: float
    phi: float
    omega: float


class Polytope:
    """Bounded polytope {x : Ax <= b} with a cached vertex list.

    Immutable after construction; the vertex list is computed lazily on first
    access and ordered lexicographically by coordinates, which fixes the
    vertex ids used for LMO tie-breaking.
    """

    def __init__(self, A, b, vertices=None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatch(
                f"A has {A.shape[0]} rows but b has {b.shape[0]} entries"
            )
        self.A = A
        self.b = b
        self.row_norms = np.linalg.norm(A, axis=1)
        self._vertices = None if vertices is None else np.asarray(vertices, float)
        self._geo = None

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def n_constraints(self) -> int:
        return self.A.shape[0]

    @property
    def vertices(self) -> np.ndarray:
        if self._vertices is None:
            self._vertices = enumerate_vertices(self)
        return self._vertices

    def vertex(self, vertex_id: int) -> np.ndarray:
        V = self.vertices
        if not 0 <= vertex_id < len(V):
            raise UnknownVertexId(f"vertex id {vertex_id} out of range 0..{len(V) - 1}")
        return V[vertex_id]

    def contains(self, x, tol: float = FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"point has shape {x.shape}, expected ({self.dim},)")
        return bool(np.all(self.A @ x <= self.b + tol * (1.0 + np.abs(self.b))))


def enumerate_vertices(P: Polytope) -> np.ndarray:
    """All basic feasible solutions of Ax <= b, deduplicated and sorted
    lexicographically by coordinates.

    Solves A_S x = b_S for every d-subset S of rows with a nonsingular
    submatrix and keeps feasible solutions; the subsets are taken in
    itertools.combinations order, SUBSET_CHUNK at a time, with one stacked
    solve per chunk. A candidate is kept when it lies farther than DEDUP_TOL
    from every candidate kept before it. Desk scale only: more than
    MAX_SUBSETS subsets, or an unbounded polytope (proven by linear programs
    before any solve), raise ConfigError.
    """
    A, b, d, m = P.A, P.b, P.dim, P.n_constraints
    n_subsets = math.comb(m, d)
    if n_subsets > MAX_SUBSETS:
        raise ConfigError(
            "polytope",
            f"vertex enumeration needs C(m, d) = C({m}, {d}) = {n_subsets} solves, "
            f"above the cap of {MAX_SUBSETS}",
        )
    prove_bounded(P)
    subsets = itertools.combinations(range(m), d)
    candidates = [np.empty((0, d))]
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(subsets, SUBSET_CHUNK))
        rows = np.fromiter(chunk, dtype=np.intp).reshape(-1, d)
        if not len(rows):
            break
        sub, rhs = A[rows], b[rows]
        # slogdet's sign is 0 exactly when the LU factorization that solve()
        # runs meets a zero pivot, i.e. when solve() would raise.
        nonsingular = np.linalg.slogdet(sub)[0] != 0
        sub, rhs = sub[nonsingular], rhs[nonsingular]
        x = np.linalg.solve(sub, rhs[..., None])[..., 0]
        norm = np.linalg.norm(x, axis=1)
        resid = np.linalg.norm((sub @ x[..., None])[..., 0] - rhs, axis=1)
        # Guard against nearly singular bases that solve() tolerated.
        ok = np.isfinite(x).all(axis=1) & ~(norm > 1e12) & ~(resid > 1e-7 * (1.0 + norm))
        x = x[ok]
        candidates.append(x[(x @ A.T <= b + 1e-9).all(axis=1)])
    X = np.concatenate(candidates)
    if not len(X):
        raise UnboundedOrEmpty("no basic feasible solution found")
    kept = np.empty_like(X)
    n_kept = 0
    for x in X:
        if np.all(np.linalg.norm(kept[:n_kept] - x, axis=1) > DEDUP_TOL):
            kept[n_kept] = x
            n_kept += 1
    V = kept[:n_kept]
    order = np.lexsort(V.T[::-1])
    return V[order]


def prove_bounded(P: Polytope) -> None:
    """Prove {Ax <= b} bounded by minimizing and maximizing every coordinate
    with the simplex method (2d linear programs).

    An unbounded coordinate raises ConfigError naming the direction of the
    ray; an empty polytope raises UnboundedOrEmpty.
    """
    for i in range(P.dim):
        for sign, bound, ray in ((1.0, "below", "-"), (-1.0, "above", "+")):
            c = np.zeros(P.dim)
            c[i] = sign
            try:
                simplex_lp.solve_lp(c, P.A, P.b)
            except Unbounded:
                raise ConfigError(
                    "polytope",
                    f"unbounded: x[{i}] is not bounded {bound} (the polytope contains a ray "
                    f"along {ray}e_{i})",
                ) from None
            except Infeasible as exc:
                raise UnboundedOrEmpty(f"the polytope is empty ({exc})") from None


def lmo(P: Polytope, g) -> tuple[np.ndarray, int]:
    """Vertex minimizing g^T s over the polytope, by scanning the vertex list.

    Ties break to the smallest vertex id in enumeration order.
    """
    g = np.asarray(g, dtype=float)
    V = P.vertices
    if len(V) == 0:
        raise EmptyVertexList("polytope has no enumerated vertices")
    vid = int(np.argmin(V @ g))
    return V[vid], vid


def active_index_set(P: Polytope, x, tol: float = FEAS_TOL) -> set[int]:
    """Indices of constraints active at x: {i : |A_i x - b_i| <= tol_i} with
    tol_i = tol * (1 + |b_i|). Raises InfeasiblePoint if x violates a
    constraint beyond tolerance."""
    x = np.asarray(x, dtype=float)
    resid = P.A @ x - P.b
    tol_i = tol * (1.0 + np.abs(P.b))
    if np.any(resid > tol_i):
        i = int(np.argmax(resid - tol_i))
        raise InfeasiblePoint(f"constraint {i} violated by {resid[i]:.3e}")
    return set(np.nonzero(np.abs(resid) <= tol_i)[0].tolist())


def active_index_set_of_vertex_set(P: Polytope, vertex_ids, tol: float = FEAS_TOL) -> set[int]:
    """Constraints active at every vertex in the given id set (intersection
    of the per-vertex active sets)."""
    ids = list(vertex_ids)
    if not ids:
        raise UnknownVertexId("vertex id set is empty")
    common: set[int] | None = None
    for vid in ids:
        act = active_index_set(P, P.vertex(vid), tol)
        common = act if common is None else common & act
    return common


def geometry_constants(P: Polytope, tol: float = FEAS_TOL) -> GeometryConstants:
    """Diameter, vertex count, zeta, phi and omega = zeta/phi.

    zeta minimizes b_i - A_i v over (vertex, row) pairs with strictly
    positive slack; phi maximizes ||A_i|| over rows not active at every
    vertex. Raises DegeneratePolytope when the polytope is a single point
    (D = 0) or every row is active at every vertex, which leaves phi
    undefined.
    """
    if P._geo is not None:
        return P._geo
    V = P.vertices
    N = len(V)
    diffs = V[:, None, :] - V[None, :, :]
    D = float(np.sqrt((diffs**2).sum(axis=2).max()))
    if D == 0.0:
        raise DegeneratePolytope("the polytope is a single point (diameter 0)")
    slack = P.b[None, :] - V @ P.A.T  # (N, m)
    tol_i = tol * (1.0 + np.abs(P.b))
    active = slack <= tol_i[None, :]
    everywhere_active = active.all(axis=0)
    if everywhere_active.all():
        raise DegeneratePolytope("every constraint is active at every vertex")
    positive = slack[~active]
    zeta = float(positive.min())
    phi = float(P.row_norms[~everywhere_active].max())
    geo = GeometryConstants(D=D, N=N, zeta=zeta, phi=phi, omega=zeta / phi)
    P._geo = geo
    return geo


def unit_box(dim: int, scale: float = 1.0) -> Polytope:
    """[0, scale]^dim as rows x_i <= scale, -x_i <= 0."""
    eye = np.eye(dim)
    A = np.vstack([eye, -eye])
    b = np.concatenate([np.full(dim, float(scale)), np.zeros(dim)])
    return Polytope(A, b)


def unit_simplex(dim: int, scale: float = 1.0) -> Polytope:
    """Corner simplex {x >= 0, 1^T x <= scale}; vertices are 0 and scale*e_i."""
    A = np.vstack([-np.eye(dim), np.ones((1, dim))])
    b = np.concatenate([np.zeros(dim), [float(scale)]])
    return Polytope(A, b)


def probability_simplex(dim: int) -> Polytope:
    """{x >= 0, 1^T x = 1} encoded with the pair 1^T x <= 1, -1^T x <= -1."""
    A = np.vstack([-np.eye(dim), np.ones((1, dim)), -np.ones((1, dim))])
    b = np.concatenate([np.zeros(dim), [1.0], [-1.0]])
    return Polytope(A, b)


_PRESETS = {
    "box": unit_box,
    "simplex": unit_simplex,
    "probability_simplex": lambda dim, scale=1.0: probability_simplex(dim),
}


def polytope_from_json(spec: dict) -> Polytope:
    """Build a polytope from {"A": ..., "b": ...} or
    {"preset": "simplex"|"box", "dim": d, "scale": s}."""
    if "preset" in spec:
        name = spec["preset"]
        if name not in _PRESETS:
            raise ConfigError("polytope.preset", f"must be one of {sorted(_PRESETS)}, got {name!r}")
        dim = int(spec["dim"])
        if dim < 1:
            raise ConfigError("polytope.dim", f"must be >= 1, got {dim}")
        return _PRESETS[name](dim, float(spec.get("scale", 1.0)))
    try:
        return Polytope(spec["A"], spec["b"])
    except DimensionMismatch as err:
        raise ConfigError("polytope", str(err)) from err
