"""Bounded polytopes in H-form: vertex enumeration, linear minimization, and
the geometric constants (diameter, zeta, phi, omega) used by the convergence
analysis."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import simplex_lp
from .config import config_choice, config_fields, config_float, config_int, config_type, need
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
# Floats per block of the diameter's screen matrix and of its exact pair
# differences (8 MB).
PAIR_BLOCK = 2**20
# Floats that one chunk of stacked d x d bases, or one simplex tableau of
# prove_bounded, may need (128 MB); a larger polytope is a config error.
MAX_WORK_FLOATS = 2**24
# A basis whose |det| is below this share of the product of its row norms
# (Hadamard's bound) is numerically singular, e.g. a row and a rounded
# multiple of it: its solve() lands on a spurious point.
SINGULAR_RATIO = 1e-12


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
        # C-contiguous, so V.dot(g) and w.dot(V) give the bits of V @ g and w @ V.
        self._vertices = None if vertices is None else np.ascontiguousarray(vertices, float)
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

    Solves A_S x = b_S for every basis S of d rows whose submatrix is not
    numerically singular (see SINGULAR_RATIO) and keeps feasible solutions
    that solve() returns accurately. The bases are the d-row subsets
    that take at most one row of each class of `parallel_classes`; a subset
    holding a row together with a multiple of it (its negation, say) is
    singular and is never solved. They are taken SUBSET_CHUNK at a time, with
    one stacked solve per chunk. The feasible candidates are put in
    itertools.combinations order of their rows, and a candidate is kept when
    it lies farther than DEDUP_TOL from every candidate kept before it.
    Desk scale only: a polytope that check_size rejects, or an unbounded
    one (proven by linear programs before any solve), raises ConfigError.
    """
    A, b, d, m = P.A, P.b, P.dim, P.n_constraints
    check_size(m, d)
    prove_bounded(P)
    bases = itertools.chain.from_iterable(
        itertools.starmap(itertools.product, itertools.combinations(parallel_classes(A), d))
    )
    # Zero rows, never in a nonsingular basis, read as norm 1.
    log_norms = np.log(np.where(P.row_norms > 0, P.row_norms, 1.0))
    candidates, candidate_rows = [np.empty((0, d))], [np.empty((0, d), dtype=np.intp)]
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(bases, SUBSET_CHUNK))
        rows = np.fromiter(chunk, dtype=np.intp).reshape(-1, d)
        if not len(rows):
            break
        # Stable sorts here and in first_kept run lexsort's merge sort, so
        # they page in no further sort kernel (peak RSS of small runs).
        rows.sort(axis=1, kind="stable")
        sub, rhs = A[rows], b[rows]
        # slogdet's sign is 0 exactly when the LU factorization that solve()
        # runs meets a zero pivot, i.e. when solve() would raise.
        sign, logdet = np.linalg.slogdet(sub)
        ratio = logdet - log_norms[rows].sum(axis=1)
        nonsingular = (sign != 0) & (ratio > math.log(SINGULAR_RATIO))
        sub, rhs, rows = sub[nonsingular], rhs[nonsingular], rows[nonsingular]
        x = np.linalg.solve(sub, rhs[..., None])[..., 0]
        norm = np.linalg.norm(x, axis=1)
        resid = np.linalg.norm((sub @ x[..., None])[..., 0] - rhs, axis=1)
        # Guard against nearly singular bases that solve() tolerated.
        ok = np.isfinite(x).all(axis=1) & ~(norm > 1e12) & ~(resid > 1e-7 * (1.0 + norm))
        x, rows = x[ok], rows[ok]
        feasible = (x @ A.T <= b + 1e-9).all(axis=1)
        candidates.append(x[feasible])
        candidate_rows.append(rows[feasible])
    X = np.concatenate(candidates)
    if not len(X):
        raise UnboundedOrEmpty("polytope", "no basic feasible solution found")
    X = X[np.lexsort(np.concatenate(candidate_rows).T[::-1])]
    V = X[first_kept(X)]
    return V[np.lexsort(V.T[::-1])]


def check_size(m: int, d: int) -> None:
    """Raise ConfigError, naming m and d, unless the vertices of a polytope
    of m rows in d dimensions are desk-scale work: at most MAX_SUBSETS
    d-row subsets C(m, d), counted whether skipped or not, and at most
    MAX_WORK_FLOATS floats in a chunk of stacked d x d bases or in a phase
    one tableau of prove_bounded. Reads m and d only, so it runs before any
    matrix is built.
    """
    # Past min(d, m - d) = 64, C(m, d) >= C(130, 65) > 10^37: not worth the
    # big-integer arithmetic.
    n_subsets = math.comb(m, d) if min(d, m - d) <= 64 else None
    if n_subsets is None or n_subsets > MAX_SUBSETS:
        count = "> 10^37" if n_subsets is None else f"= {n_subsets}"
        raise ConfigError(
            "polytope",
            f"vertex enumeration needs C(m, d) = C({m}, {d}) {count} solves, "
            f"above the cap of {MAX_SUBSETS}",
        )
    chunk = min(SUBSET_CHUNK, n_subsets) * d * d
    tableau = (m + 1) * (2 * d + 2 * m + 1)  # one artificial per row at most
    if max(chunk, tableau) > MAX_WORK_FLOATS:
        raise ConfigError(
            "polytope",
            f"vertex enumeration with m = {m} rows in d = {d} dimensions needs "
            f"{chunk} floats per chunk of d x d bases and {tableau} per simplex "
            f"tableau, above the cap of {MAX_WORK_FLOATS}",
        )


def parallel_classes(A: np.ndarray) -> list[tuple[int, ...]]:
    """Row indices of A grouped into classes of exact multiples, each class
    in row order and the classes in order of their first row.

    Rows share a class when they are equal after division by their first
    nonzero entry, as a row, its negation and its duplicates are. With no
    two such rows every class is a singleton.
    """
    first = A[np.arange(len(A)), (A != 0).argmax(axis=1)]
    scaled = A / np.where(first == 0.0, 1.0, first)[:, None] + 0.0  # + 0.0 folds -0.0
    classes: dict[bytes, list[int]] = {}
    for i, row in enumerate(scaled):
        classes.setdefault(row.tobytes(), []).append(i)
    return [tuple(c) for c in classes.values()]


def first_kept(X: np.ndarray) -> np.ndarray:
    """Mask of the rows of X that lie farther than DEDUP_TOL from every row
    kept before them.

    A row with no other row within DEDUP_TOL is kept and blocks none, so
    only rows whose projection on a fixed unit direction comes within twice
    DEDUP_TOL (plus rounding) of another's go through the greedy scan.
    """
    u = np.sqrt(np.arange(2.0, X.shape[1] + 2))
    p = X @ (u / np.linalg.norm(u))
    window = 2 * DEDUP_TOL + 1e-12 * (1.0 + np.abs(X).sum(axis=1).max())
    order = np.argsort(p, kind="stable")
    close = np.diff(p[order]) <= window
    near = np.zeros(len(X), dtype=bool)
    near[order[1:][close]] = near[order[:-1][close]] = True
    keep = ~near
    kept = []
    for i in np.flatnonzero(near):
        if np.all(np.linalg.norm(X[kept] - X[i], axis=1) > DEDUP_TOL):
            keep[i] = True
            kept.append(i)
    return keep


def prove_bounded(P: Polytope) -> None:
    """Prove {Ax <= b} bounded by minimizing and maximizing every coordinate
    with the simplex method (at most 2d linear programs, solved as one
    stack).

    A row of A that is nonzero only at coordinate i, a x_i <= b, bounds x_i
    above when a > 0 and below when a < 0: it is the dual certificate of
    that direction, whose LP is skipped (the box needs none). When such axis
    rows leave a direction open, any other row a.x <= b bounds x_i on the
    side of sign(a_i) if every other coordinate j it touches has the axis
    row bound that a_i x_i <= b - sum_j a_j x_j needs: x_j bounded below
    where a_j > 0, above where a_j < 0 (the simplices need no LP either).
    An unbounded coordinate raises ConfigError naming the direction of the
    ray, the first in order (x_0 below, x_0 above, x_1 below, ...) when
    several are; an empty polytope raises UnboundedOrEmpty, here from the
    shared phase one or, when every direction has a certificate, from the
    enumeration that finds no vertex.
    """
    A = P.A
    axis = np.count_nonzero(A, axis=1) == 1
    # bounded[i, 0] (below) and bounded[i, 1] (above): the directions that
    # an axis row certifies.
    bounded = np.zeros((P.dim, 2), dtype=bool)
    cols = A[axis].nonzero()[1]
    bounded[cols, (A[axis, cols] > 0).astype(int)] = True
    if not bounded.all():
        rows = A[~axis]
        # missing[r, j]: row r needs a bound on x_j that no axis row gives.
        missing = ((rows > 0) & ~bounded[:, 0]) | ((rows < 0) & ~bounded[:, 1])
        r, i = np.nonzero((rows != 0) & (missing.sum(axis=1, keepdims=True) == missing))
        bounded[i, (rows[r, i] > 0).astype(int)] = True
    # The uncertified directions (i, s), minimize s * x_i, in order: i
    # ascending and s = 1 (below) before -1 (above).
    todo = [(int(i), 1.0 - 2.0 * side) for i, side in zip(*np.nonzero(~bounded))]
    if not todo:
        return
    costs = np.zeros((len(todo), P.dim))
    for row, (i, sign) in enumerate(todo):
        costs[row, i] = sign
    try:
        simplex_lp.solve_lp(costs, P.A, P.b)
    except Unbounded as exc:
        i, sign = todo[exc.lp]
        bound, ray = ("below", "-") if sign > 0 else ("above", "+")
        raise ConfigError(
            "polytope",
            f"unbounded: x[{i}] is not bounded {bound} (the polytope contains a ray "
            f"along {ray}e_{i})",
        ) from None
    except Infeasible as exc:
        raise UnboundedOrEmpty("polytope", f"the polytope is empty ({exc})") from None


def lmo(P: Polytope, g) -> tuple[np.ndarray, int]:
    """Vertex minimizing g^T s over the polytope, by scanning the vertex list.

    Ties break to the smallest vertex id in enumeration order.
    """
    g = np.ascontiguousarray(g, dtype=float)
    V = P.vertices
    if len(V) == 0:
        raise EmptyVertexList("polytope has no enumerated vertices")
    vid = int(V.dot(g).argmin())
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


def geometry_constants(P: Polytope) -> GeometryConstants:
    """Diameter, vertex count, zeta, phi and omega = zeta/phi.

    zeta minimizes b_i - A_i v over (vertex, row) pairs with strictly
    positive slack; phi maximizes ||A_i|| over rows not active (slack <=
    FEAS_TOL (1 + |b_i|)) at every vertex. Raises DegeneratePolytope when the
    polytope is a single point (D = 0) or every row is active at every
    vertex, which leaves phi undefined.
    """
    if P._geo is not None:
        return P._geo
    V = P.vertices
    N = len(V)
    D = diameter(V)
    if D == 0.0:
        raise DegeneratePolytope("polytope", "the polytope is a single point (diameter 0)")
    slack = P.b[None, :] - V @ P.A.T  # (N, m)
    tol_i = FEAS_TOL * (1.0 + np.abs(P.b))
    active = slack <= tol_i[None, :]
    everywhere_active = active.all(axis=0)
    if everywhere_active.all():
        raise DegeneratePolytope("polytope", "every constraint is active at every vertex")
    positive = slack[~active]
    zeta = float(positive.min())
    phi = float(P.row_norms[~everywhere_active].max())
    geo = GeometryConstants(D=D, N=N, zeta=zeta, phi=phi, omega=zeta / phi)
    P._geo = geo
    return geo


def diameter(V: np.ndarray) -> float:
    """max ||v_i - v_j|| over the rows of V, bit for bit the square root of
    the largest ((v_i - v_j) ** 2).sum().

    A Gram-matrix screen on the centred rows, ||c_i||^2 + ||c_j||^2 - 2 c_i.c_j,
    puts every pair's squared distance within `margin` of that exact sum;
    it runs a block of rows at a time, each block's matrix holding at most
    PAIR_BLOCK floats. Only the pairs the screen cannot rule out are summed
    exactly, PAIR_BLOCK values at a time.
    """
    N, d = V.shape
    C = V - V.mean(axis=0)
    sq = (C * C).sum(axis=1)
    # Centring, the screen and the exact sum each round off by at most a few
    # (d + 4) eps * max ||c||^2 (every squared distance is <= 4 max ||c||^2).
    margin = 64 * (d + 4) * np.finfo(float).eps * sq.max()
    rows = max(1, PAIR_BLOCK // N)
    pairs = max(1, PAIR_BLOCK // d)
    # One product gives S[i, j] = ||c_i||^2 + ||c_j||^2 - 2 c_i.c_j; with the
    # Fortran-ordered right factor vstack returns, the product runs ~8x slower.
    ones = np.ones(N)
    left = np.column_stack([C, sq, ones])
    right = np.ascontiguousarray(np.vstack([-2.0 * C.T, ones, sq]))
    best = -np.inf
    for i in range(0, N, rows):
        S = left[i : i + rows] @ right
        # A pair below either floor cannot hold the largest exact sum.
        floor = max(S.max() - 2 * margin, best - margin)
        ii, jj = np.divmod(np.flatnonzero(S >= floor), N)
        ii += i
        for k in range(0, len(ii), pairs):
            diff = V[ii[k : k + pairs]] - V[jj[k : k + pairs]]
            best = max(best, (diff**2).sum(axis=1).max())
    return float(np.sqrt(best))


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


def probability_simplex(dim: int, scale: float = 1.0) -> Polytope:
    """{x >= 0, 1^T x = scale} encoded with the pair 1^T x <= scale,
    -1^T x <= -scale; vertices are scale*e_i."""
    A = np.vstack([-np.eye(dim), np.ones((1, dim)), -np.ones((1, dim))])
    b = np.concatenate([np.zeros(dim), [float(scale)], [-float(scale)]])
    return Polytope(A, b)


# Each preset's builder and its number of rows in dimension d.
_PRESETS = {
    "box": (unit_box, lambda d: 2 * d),
    "simplex": (unit_simplex, lambda d: d + 1),
    "probability_simplex": (probability_simplex, lambda d: d + 2),
}


def polytope_from_json(spec: dict) -> Polytope:
    """Build a polytope from {"A": ..., "b": ...} or
    {"preset": "simplex"|"box"|"probability_simplex", "dim": d, "scale": s}."""
    if "preset" in config_type("polytope", spec, dict):
        config_fields("polytope", spec, ("preset", "dim", "scale"))
        name = config_choice("polytope.preset", spec["preset"], _PRESETS)
        dim = config_int("polytope.dim", need(spec, "polytope", "dim"), 1)
        scale = config_float("polytope.scale", spec.get("scale", 1.0), 0, above=True)
        build, rows = _PRESETS[name]
        check_size(rows(dim), dim)
        return build(dim, scale)
    config_fields("polytope", spec, ("A", "b"))
    A = config_float("polytope.A", need(spec, "polytope", "A"), ndim=2)
    b = config_float("polytope.b", need(spec, "polytope", "b"), ndim=1)
    if len(A) != len(b):
        raise ConfigError("polytope.b", f"A has {len(A)} rows but b has {len(b)} entries")
    return Polytope(A, b)
