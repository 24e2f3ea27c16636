"""Dense two-phase simplex method with Bland's anti-cycling rule, for one
linear program or a stack of them over the same polytope.

Solves min c^T x subject to Ax <= b with free x, by splitting x into a
difference of nonnegative parts and adding slacks. Phase one depends only
on A and b, so it runs once per call, whatever the number of cost vectors.
Phase two solves the stack in lockstep: each round picks every LP's
entering column from one mask, runs each LP's ratio test, and applies all
the pivots as one update of the rows whose factor is nonzero. Every LP
goes through the same floating-point operations as it would alone, so its
x is bit for bit its solve as a stack of one. At most STACK_FLOATS floats
of tableaux are held at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, Infeasible, Unbounded

if TYPE_CHECKING:  # geometry imports this module to prove boundedness
    from .geometry import Polytope

_PIVOT_TOL = 1e-10
# Floats in the phase-two tableaux of one stack (1 MB); a larger stack is
# solved in blocks of stack_size LPs.
STACK_FLOATS = 2**17


def stack_size(m: int, d: int) -> int:
    """LPs over m constraints in d variables that solve_lp solves at once:
    as many phase-two tableaux, (m + 1) x (2d + m + 1) at most, as fit in
    STACK_FLOATS, and at least one."""
    return max(1, STACK_FLOATS // ((m + 1) * (2 * d + m + 1)))


def _ratio_test(column, rhs, basis) -> int:
    """Leaving row of one LP, or -1: the smallest ratio rhs / column over the
    rows whose entry exceeds the tolerance, scanning rows in order; a ratio
    within the tolerance of the best goes to the lower basic variable."""
    best_ratio = None
    leave = -1
    # Python floats: the same comparisons and quotient as on numpy scalars,
    # without an element read per row.
    for i, a in enumerate(column.tolist()):
        if a > _PIVOT_TOL:
            ratio = rhs[i] / a
            if (
                best_ratio is None
                or ratio < best_ratio - _PIVOT_TOL
                or (abs(ratio - best_ratio) <= _PIVOT_TOL and basis[i] < basis[leave])
            ):
                best_ratio = ratio
                leave = i
    return leave


def _bland_iterate(T, B) -> np.ndarray:
    """Pivot the tableaux T (k x (m+1) x (n+1)), whose last row holds the
    reduced costs, with bases B (k x m), until every LP is optimal or has no
    leaving row; returns the mask of the LPs found unbounded.

    Bland's rule: the entering variable is the lowest-index column with
    negative reduced cost; the leaving row breaks ratio ties by the lowest
    basic variable index. An LP with a single candidate row leaves by it
    without computing its ratio.
    """
    k, m1, _ = T.shape
    m = m1 - 1
    every = np.arange(k)
    unbounded = np.zeros(k, dtype=bool)
    costs = T[:, m, :-1]
    while True:
        negative = costs < -_PIVOT_TOL
        entering = negative.argmax(axis=1)  # each row's first True
        lps = every[negative[every, entering]]
        if not len(lps):
            return unbounded
        cols = entering[lps]
        a = T[lps, :, cols]
        candidates = a[:, :m] > _PIVOT_TOL
        # No candidate row (leave -1) means no leaving row.
        leave = candidates.argmax(axis=1) if m else np.full(len(lps), -1)
        odd = [j for j, n in enumerate(candidates.sum(axis=1).tolist()) if n != 1]
        if odd:
            for j in odd:
                leave[j] = _ratio_test(a[j, :m], T[lps[j], :m, -1].tolist(), B[lps[j]].tolist())
            stuck = leave < 0
            if stuck.any():
                # The LP drops out, its costs zeroed.
                unbounded[lps[stuck]] = True
                T[lps[stuck], m] = 0.0
                go = ~stuck
                lps, leave, cols, a = lps[go], leave[go], cols[go], a[go]
        _pivot(T, B, lps, leave, cols, a)


def _pivot(T, B, lps, rows, cols, a):
    """Pivot LP lps[j] of the stack on (rows[j], cols[j]); a[j] is its
    column cols[j] before the pivot, cost row included."""
    k, m1, w = T.shape
    rows_of = T.reshape(k * m1, w)
    first = lps * m1
    at = first + rows
    j = np.arange(len(lps))
    pivot_rows = rows_of.take(at, axis=0) / a[j, rows][:, None]
    rows_of[at] = pivot_rows
    # Only the pivot row changed, so a holds the factor of every other row;
    # rows with a zero factor are left as they are. The cost row's factor
    # is the entering reduced cost, never zero.
    a[j, rows] = 0.0
    hit = np.abs(a) > 0.0
    lp, i = hit.nonzero()
    at = first.take(lp) + i
    rows_of[at] = rows_of.take(at, axis=0) - a[hit][:, None] * pivot_rows.take(lp, axis=0)
    B[lps, rows] = cols


def _feasible_basis(A, b) -> tuple[np.ndarray, np.ndarray]:
    """Phase one: a canonical tableau of {Ax <= b} and its basis. The
    tableau has a row per constraint, redundant rows dropped, and a zeroed
    cost row; its columns are x+ (d), x- (d), slack (m) and the right-hand
    side.

    Raises Infeasible when the artificials cannot be zeroed.
    """
    m, d = A.shape
    # Columns: x+ (d), x- (d), slack (m), artificial (one per negated row).
    neg = b < 0
    sign = np.where(neg, -1.0, 1.0)
    art_rows = np.flatnonzero(neg)
    n_real = 2 * d + m
    art_cols = n_real + np.arange(len(art_rows))
    n = n_real + len(art_rows)
    T = np.zeros((m + 1, n + 1))
    signed = sign[:, None] * A
    T[:m, :d] = signed
    T[:m, d : 2 * d] = -signed
    T[np.arange(m), 2 * d + np.arange(m)] = sign
    T[:m, -1] = sign * b
    basis = 2 * d + np.arange(m)
    if not len(art_rows):
        return T, basis
    T[art_rows, art_cols] = 1.0
    basis[art_rows] = art_cols

    cost = T[m]
    cost[art_cols] = 1.0
    for i in art_rows:  # row by row, in order: a summed subtraction rounds differently
        cost -= T[i]
    if _bland_iterate(T[None], basis[None]).any():
        raise Unbounded("no leaving row: LP unbounded below")
    if -cost[-1] > 1e-7:
        raise Infeasible(f"phase one objective {-cost[-1]:.3e} > 0")
    # Drive any residual artificial (at value zero) out of the basis.
    keep = np.ones(m + 1, dtype=bool)
    for i in np.flatnonzero(basis >= n_real):
        piv = np.flatnonzero(np.abs(T[i, :n_real]) > _PIVOT_TOL)
        if not len(piv):
            keep[i] = False  # redundant row
        else:
            col = piv[:1]
            _pivot(T[None], basis[None], np.zeros(1, int), [i], col, T[:, col].T)
    # Phase two never enters an artificial column, and a pivot changes each
    # column on its own, so dropping them leaves every other bit as it is.
    T = T[keep][:, np.r_[:n_real, n]]
    T[-1] = 0.0
    return T, basis[keep[:m]]


def solve_lp(c, A, b):
    """Minimize c^T x over {Ax <= b}; returns (x, objective value).

    c is one cost vector of shape (d,), or a stack of k of them, shape
    (k, d), for which it returns x of shape (k, d) and the k values. Each
    LP's x and value are those of its own solve. Raises Infeasible when
    phase one cannot zero the artificials, and Unbounded, whose `lp` is the
    index of the first unbounded LP of the stack, when phase two finds an
    unbounded ray.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float)
    m, d = A.shape
    if c.ndim not in (1, 2) or c.shape[-1] != d or b.shape != (m,):
        raise DimensionMismatch("c, A, b shapes disagree")
    costs = np.ascontiguousarray(c.reshape(-1, d))

    block = stack_size(m, d)
    T0, B0 = _feasible_basis(A, b)
    rows = len(B0)
    # Basic columns are unit columns, so a row's factor below is the initial
    # cost of its basic variable: zero unless that is an x+ or x-.
    costed = [(i, j) for i, j in enumerate(B0.tolist()) if j < 2 * d]
    X = np.empty((len(costs), d))
    for start in range(0, len(costs), block):
        stack = costs[start : start + block]
        k = len(stack)
        T = np.repeat(T0[None], k, axis=0)
        cost = T[:, rows]
        cost[:, :d] = stack
        cost[:, d : 2 * d] = -stack
        for i, j in costed:  # row by row, in order, as phase one
            f = cost[:, j]
            hit = f != 0.0
            cost[hit] -= f[hit, None] * T0[i]
        B = np.repeat(B0[None], k, axis=0)
        unbounded = _bland_iterate(T, B)
        if unbounded.any():
            raise Unbounded("no leaving row: LP unbounded below", start + int(unbounded.argmax()))
        Y = np.zeros((k, T0.shape[1] - 1))
        Y[np.arange(k)[:, None], B] = T[:, :rows, -1]
        X[start : start + k] = Y[:, :d] - Y[:, d : 2 * d]
    if c.ndim == 1:
        return X[0], float(costs[0] @ X[0])
    return X, np.array([float(g @ x) for g, x in zip(costs, X)])


def lmo_simplex_method(P: Polytope, g) -> np.ndarray:
    """LMO via the simplex method: minimizes g^T x over the polytope without
    touching the enumerated vertex list. Agrees with the enumeration LMO on
    objective value within 1e-8."""
    x, _ = solve_lp(np.asarray(g, dtype=float), P.A, P.b)
    return x
