import math
from fractions import Fraction

import numpy as np
import pytest

from polyfw import frank_wolfe
from polyfw.errors import DimensionMismatch, NoConvergence
from polyfw.geometry import (Polytope, active_index_set, probability_simplex, unit_box,
                             unit_simplex)
from polyfw.objectives import (
    REFERENCE_GAP_TOL,
    QuadraticObjective,
    max_abs_value,
    objective_from_json,
    reference_solution,
)

from conftest import random_polytope


def test_value_at_minimizer_is_zero():
    obj = QuadraticObjective([1.0, 2.0], z=[0.3, -0.2])
    assert obj.value(obj.z) == 0.0


def test_value_identity_hessian():
    obj = QuadraticObjective([1.0, 1.0], z=[0.0, 0.0])
    assert np.isclose(obj.value(np.array([3.0, 4.0])), 12.5)


def test_value_matches_eigenbasis_expansion(rng):
    obj = QuadraticObjective([0.5, 1.5, 4.0], z=[1.0, -1.0, 0.5], rotation_seed=3)
    for _ in range(10):
        x = rng.standard_normal(3)
        y = obj.rotation.T @ (x - obj.z)
        assert np.isclose(obj.value(x), 0.5 * np.sum(obj.eigenvalues * y**2))


def test_gradient_trivial_cases():
    obj = QuadraticObjective([1.0, 2.0], z=[0.0, 0.0])
    np.testing.assert_allclose(obj.gradient(obj.z), 0.0)
    np.testing.assert_allclose(obj.gradient(np.array([1.0, 1.0])), [1.0, 2.0])


def test_gradient_matches_central_differences(rng):
    obj = QuadraticObjective([0.7, 2.0, 5.0], z=[0.2, 0.4, -0.1], rotation_seed=11)
    h = 1e-5
    for _ in range(20):
        x = rng.standard_normal(3)
        g = obj.gradient(x)
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[i] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize("d", [3, 8])
def test_value_and_gradient_equal_separate_calls_bit_for_bit(rng, d):
    obj = QuadraticObjective(
        np.linspace(0.5, 4.0, d), z=rng.standard_normal(d), rotation_seed=40 + d
    )
    for _ in range(200):
        x = rng.standard_normal(d) * rng.choice([1e-3, 1.0, 1e3])
        f, g = obj.value_and_gradient(x)
        assert type(f) is float and f == obj.value(x)
        assert g.tobytes() == obj.gradient(x).tobytes()


def test_dimension_mismatch():
    obj = QuadraticObjective([1.0, 2.0], z=[0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        obj.value(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        obj.value_and_gradient(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        QuadraticObjective([1.0, 2.0], z=[0.0, 0.0, 0.0])


class TestReferenceSolution:
    def test_interior_minimizer(self):
        obj = QuadraticObjective([1.0, 1.0], z=[0.5, 0.5])
        ref = reference_solution(obj, unit_box(2))
        np.testing.assert_allclose(ref.x_star, obj.z)
        assert ref.f_star == 0.0
        assert ref.certified_gap == 0.0

    def test_box_clamp(self):
        obj = QuadraticObjective([1.0, 1.0], z=[2.0, 2.0])
        ref = reference_solution(obj, unit_box(2))
        np.testing.assert_allclose(ref.x_star, [1.0, 1.0], atol=1e-7)
        assert abs(ref.f_star - 1.0) <= 1e-9

    def test_simplex_matches_grid_refinement_oracle(self):
        obj = QuadraticObjective([1.0, 4.0], z=[1.5, 0.5])
        P = unit_simplex(2)
        ref = reference_solution(obj, P)
        # Independent oracle: dense grid over the simplex, then local
        # refinement around the incumbent.
        lo, hi = np.zeros(2), np.ones(2)
        best, best_val = None, np.inf
        for _ in range(8):
            xs = np.linspace(lo[0], hi[0], 81)
            ys = np.linspace(lo[1], hi[1], 81)
            for a in xs:
                for c in ys:
                    if a < -1e-12 or c < -1e-12 or a + c > 1 + 1e-12:
                        continue
                    v = obj.value(np.array([a, c]))
                    if v < best_val:
                        best, best_val = np.array([a, c]), v
            span = (hi - lo) / 8
            lo = np.clip(best - span, 0.0, 1.0)
            hi = np.clip(best + span, 0.0, 1.0)
        assert abs(ref.f_star - best_val) <= 1e-8
        assert np.linalg.norm(ref.x_star - best) <= 1e-4
        assert ref.f_star - best_val <= ref.certified_gap + 1e-8

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_iteration_cap_raises_no_convergence_with_the_last_gap(self, max_iter):
        obj = QuadraticObjective([1.0, 2.0, 4.0], z=[0.8, 0.6, 0.4])
        P = unit_simplex(3)
        with pytest.raises(NoConvergence, match=f"hit {max_iter} iterations") as exc:
            reference_solution(obj, P, max_iter=max_iter)
        if max_iter == 1:
            # The one gap computed is the starting vertex's Frank-Wolfe gap.
            x0 = frank_wolfe.initial_active_set(P).point
            g = obj.gradient(x0)
            assert exc.value.achieved_gap == pytest.approx(g @ x0 - (P.vertices @ g).min())
        assert 0.0 < exc.value.achieved_gap < math.inf

    def test_certificate_and_feasibility(self, rng):
        P = random_polytope(rng, 3, extra=2)
        obj = QuadraticObjective([1.0, 2.0, 3.0], z=[2.0, -2.0, 1.5], rotation_seed=5)
        ref = reference_solution(obj, P)
        assert np.all(P.A @ ref.x_star <= P.b + 1e-8)
        assert ref.certified_gap <= 1e-10 * max(1.0, abs(ref.f_star))


def exact_face_minimum(obj, P, x):
    """f* in exact rational arithmetic: the KKT point of the objective on the
    affine hull of the constraints active at x (a maximal independent subset
    of them), proven optimal over P by a zero Frank-Wolfe gap at every
    vertex, its value rounded once to a float."""
    rows = []
    for i in sorted(active_index_set(P, x)):
        if np.linalg.matrix_rank(P.A[rows + [i]]) > len(rows):
            rows.append(i)
    d, k = P.dim, len(rows)
    Q = [[Fraction(q) for q in row] for row in obj.Q]
    z = [Fraction(v) for v in obj.z]
    A = [[Fraction(a) for a in P.A[i]] for i in rows]
    # [[Q, A^T], [A, 0]] [x; lambda] = [Q z; b], solved by Gauss-Jordan.
    K = [Q[r] + [A[j][r] for j in range(k)] + [sum(q * zc for q, zc in zip(Q[r], z))]
         for r in range(d)]
    K += [A[j] + [Fraction(0)] * k + [Fraction(P.b[rows[j]])] for j in range(k)]
    for c in range(d + k):
        pivot = next(r for r in range(c, d + k) if K[r][c] != 0)
        K[c], K[pivot] = K[pivot], K[c]
        K[c] = [v / K[c][c] for v in K[c]]
        for r in range(d + k):
            if r != c and K[r][c] != 0:
                K[r] = [v - K[r][c] * w for v, w in zip(K[r], K[c])]
    xs = [K[r][-1] for r in range(d)]
    y = [xc - zc for xc, zc in zip(xs, z)]
    g = [sum(q * yc for q, yc in zip(row, y)) for row in Q]
    for a, b in zip(P.A, P.b):
        assert sum(Fraction(ac) * xc for ac, xc in zip(a, xs)) <= Fraction(b)
    gx = sum(gc * xc for gc, xc in zip(g, xs))
    for v in P.vertices:
        assert sum(gc * Fraction(vc) for gc, vc in zip(g, v)) >= gx
    return float(sum(yc * gc for yc, gc in zip(y, g)) / 2)


AUDIT_BOX = (
    unit_box(8),
    QuadraticObjective([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 3.75, 4.0],
                       z=[1.3, -0.3, 0.6, 1.2, -0.2, 0.4, 1.1, 0.5], rotation_seed=5),
)


class TestReferenceAccuracy:
    @pytest.mark.parametrize("P, obj", [
        (unit_simplex(3), QuadraticObjective([1.0, 2.0, 4.0], z=[0.8, 0.6, 0.4])),
        AUDIT_BOX,
        (probability_simplex(4),
         QuadraticObjective([1.0, 2.0, 3.0, 5.0], z=[0.9, 0.5, -0.2, 0.3], rotation_seed=3)),
    ], ids=["corner_simplex3", "audit_box8", "rotated_probability_simplex4"])
    def test_f_star_within_one_ulp_of_the_exact_kkt_value(self, P, obj):
        ref = reference_solution(obj, P)
        exact = exact_face_minimum(obj, P, ref.x_star)
        assert abs(ref.f_star - exact) <= math.ulp(exact)
        assert ref.certified_gap <= REFERENCE_GAP_TOL * max(1.0, abs(ref.f_star))

    def test_without_curvature_the_step_is_the_l_rule(self):
        # Left without curvature, the step is the L ||d||^2 rule that run
        # steps by: passing that curvature explicitly changes no bit, and the
        # reference loop driven by it takes its 109 steps to its f* bits on
        # the audit box (exact line search takes 32, to one ulp below).
        P, obj = AUDIT_BOX
        active = frank_wolfe.initial_active_set(P)
        twin = frank_wolfe.initial_active_set(P)
        V, L = P.vertices, obj.L
        for steps in range(1000):
            f, g = obj.value_and_gradient(active.point)
            scores = V.dot(g)
            if g.dot(active.point) - scores.min() <= REFERENCE_GAP_TOL * max(1.0, abs(f)):
                break
            frank_wolfe.away_fw_step(active, g, P, L, scores)
            frank_wolfe.away_fw_step(twin, g, P, L, scores, lambda d: L * float(d.dot(d)))
            assert active.w.tobytes() == twin.w.tobytes()
        assert steps == 109
        assert f == 0.3539998507904596


class TestCurvatureConstants:
    def test_strong_convexity_inequality(self, rng):
        obj = QuadraticObjective([0.5, 1.0, 3.0], z=[0.0, 1.0, -1.0], rotation_seed=2)
        for _ in range(1000):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            lhs = obj.value(y)
            rhs = (
                obj.value(x)
                + obj.gradient(x) @ (y - x)
                + 0.5 * obj.mu * np.sum((y - x) ** 2)
            )
            assert lhs >= rhs - 1e-9

    def test_lipschitz_gradient_inequality(self, rng):
        obj = QuadraticObjective([0.5, 1.0, 3.0], z=[0.0, 1.0, -1.0], rotation_seed=2)
        for _ in range(1000):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert np.linalg.norm(
                obj.gradient(x) - obj.gradient(y)
            ) <= obj.L * np.linalg.norm(x - y) + 1e-9


def test_max_abs_value_by_vertex_scan():
    obj = QuadraticObjective([1.0, 1.0], z=[2.0, 2.0])
    # On the unit box the farthest vertex from z is the origin: f = 4.
    assert np.isclose(max_abs_value(obj, unit_box(2)), 4.0)


@pytest.mark.parametrize("z_scale", [0.5, 1e3, 1e6])
@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_screened_max_abs_value_equals_the_scan(rng, z_scale, shift):
    # z_scale 0.5 puts z inside or near the polytope, 1e6 far outside it;
    # shift translates the vertices (and z with them) by 10^6.
    for _ in range(30):
        d = int(rng.integers(2, 6))
        P = random_polytope(rng, d, extra=int(rng.integers(0, 6)))
        P = Polytope(P.A, P.b, vertices=P.vertices + shift)
        seed = None if rng.random() < 0.3 else int(rng.integers(1000))
        obj = QuadraticObjective(
            rng.uniform(0.1, 5.0, d), z=z_scale * rng.standard_normal(d) + shift,
            rotation_seed=seed,
        )
        assert max_abs_value(obj, P) == max(obj.value(v) for v in P.vertices)


def test_screened_max_abs_value_on_ties():
    # z at the centre of the box and Q = I up to rounding: all 2^d vertices
    # tie, and a zero margin picks the wrong one for some seeds.
    for seed in range(200):
        d = 3 + seed % 6
        obj = QuadraticObjective(np.ones(d), z=np.full(d, 0.5), rotation_seed=seed)
        P = unit_box(d)
        assert max_abs_value(obj, P) == max(obj.value(v) for v in P.vertices)


def test_objective_from_json_roundtrip():
    obj = objective_from_json(
        {"eigenvalues": [1.0, 2.0], "rotation_seed": 7, "z": [0.1, 0.2]}
    )
    assert obj.L == 2.0 and obj.mu == 1.0
    obj2 = objective_from_json(
        {"eigenvalues": [1.0, 2.0], "rotation_seed": 7, "z": [0.1, 0.2]}
    )
    np.testing.assert_array_equal(obj.Q, obj2.Q)
