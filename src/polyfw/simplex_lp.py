"""Dense two-phase simplex method with Bland's anti-cycling rule.

Solves min c^T x subject to Ax <= b with free x, by splitting x into a
difference of nonnegative parts and adding slacks. Intended for desk-scale
LMO queries; Bland's rule guarantees termination and speed is irrelevant at
these sizes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, Infeasible, Unbounded

if TYPE_CHECKING:  # geometry imports this module to prove boundedness
    from .geometry import Polytope

_PIVOT_TOL = 1e-10


def _bland_iterate(T, cost, basis, allowed):
    """Run simplex pivots on tableau T (m x (n+1)) with reduced-cost row
    `cost` (length n+1) until optimal. Bland's rule: entering variable is the
    lowest-index allowed column with negative reduced cost; the leaving row
    breaks ratio ties by the lowest basic variable index."""
    m = T.shape[0]
    while True:
        negative = allowed & (cost[:-1] < -_PIVOT_TOL)
        entering = int(negative.argmax())  # the first True
        if not negative[entering]:
            return
        best_ratio = None
        leave = -1
        # Python floats: the same comparisons and quotient as on numpy
        # scalars, without an element read per row.
        column, rhs = T[:, entering].tolist(), T[:, -1].tolist()
        for i in range(m):
            a = column[i]
            if a > _PIVOT_TOL:
                ratio = rhs[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio - _PIVOT_TOL
                    or (abs(ratio - best_ratio) <= _PIVOT_TOL and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise Unbounded("no leaving row: LP unbounded below")
        _pivot(T, cost, basis, leave, entering)


def _pivot(T, cost, basis, row, col):
    T[row] /= T[row, col]
    pivot_row = T[row]
    # Each update changes only its own row, so the column read up front
    # holds the factor every row would read at its turn.
    for i, a in enumerate(T[:, col].tolist()):
        if i != row and abs(a) > 0.0:
            T[i] -= a * pivot_row
    cost -= cost[col] * T[row]
    basis[row] = col


def solve_lp(c, A, b) -> tuple[np.ndarray, float]:
    """Minimize c^T x over {Ax <= b}; returns (x, objective value).

    Raises Infeasible when phase one cannot zero the artificials and
    Unbounded when phase two finds an unbounded ray.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    m, d = A.shape
    if c.shape != (d,) or b.shape != (m,):
        raise DimensionMismatch("c, A, b shapes disagree")

    # Columns: x+ (d), x- (d), slack (m), artificial (one per negated row).
    neg = b < 0
    sign = np.where(neg, -1.0, 1.0)
    art_rows = np.flatnonzero(neg)
    n_real = 2 * d + m
    art_cols = n_real + np.arange(len(art_rows))
    n = n_real + len(art_rows)
    T = np.zeros((m, n + 1))
    signed = sign[:, None] * A
    T[:, :d] = signed
    T[:, d : 2 * d] = -signed
    T[np.arange(m), 2 * d + np.arange(m)] = sign
    T[:, -1] = sign * b
    T[art_rows, art_cols] = 1.0
    basis = 2 * d + np.arange(m)
    basis[art_rows] = art_cols

    if len(art_rows):
        cost1 = np.zeros(n + 1)
        cost1[art_cols] = 1.0
        for i in art_rows:  # row by row, in order: a summed subtraction rounds differently
            cost1 -= T[i]
        _bland_iterate(T, cost1, basis, np.ones(n, dtype=bool))
        if -cost1[-1] > 1e-7:
            raise Infeasible(f"phase one objective {-cost1[-1]:.3e} > 0")
        # Drive any residual artificial (at value zero) out of the basis.
        keep = np.ones(m, dtype=bool)
        for i in np.flatnonzero(basis >= n_real):
            piv = np.flatnonzero(np.abs(T[i, :n_real]) > _PIVOT_TOL)
            if not len(piv):
                keep[i] = False  # redundant row
            else:
                _pivot(T, np.zeros(n + 1), basis, i, int(piv[0]))
        T = T[keep]
        basis = basis[keep]

    cost2 = np.zeros(n + 1)
    cost2[:d] = c
    cost2[d : 2 * d] = -c
    for i in range(T.shape[0]):
        if cost2[basis[i]] != 0.0:
            cost2 -= cost2[basis[i]] * T[i]
    _bland_iterate(T, cost2, basis, np.arange(n) < n_real)

    y = np.zeros(n)
    y[basis] = T[:, -1]
    x = y[:d] - y[d : 2 * d]
    return x, float(c @ x)


def lmo_simplex_method(P: Polytope, g) -> np.ndarray:
    """LMO via the simplex method: minimizes g^T x over the polytope without
    touching the enumerated vertex list. Agrees with the enumeration LMO on
    objective value within 1e-8."""
    x, _ = solve_lp(np.asarray(g, dtype=float), P.A, P.b)
    return x
