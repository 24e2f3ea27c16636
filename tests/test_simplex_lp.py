import numpy as np
import pytest

from polyfw.errors import Infeasible, Unbounded
from polyfw.geometry import Polytope, lmo, probability_simplex, unit_box
from polyfw.simplex_lp import lmo_simplex_method, solve_lp

from conftest import random_polytope


def test_box_corner():
    x = lmo_simplex_method(unit_box(2), np.array([-1.0, -1.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-9)


def test_probability_simplex_tie_on_objective_value():
    # Minimum coordinate 0.2 appears twice; the objective value is the contract.
    g = np.array([0.9, 0.2, 0.5, 0.2])
    x = lmo_simplex_method(probability_simplex(4), g)
    assert abs(g @ x - 0.2) <= 1e-9


def test_agrees_with_enumeration_on_random_polytopes(rng):
    for _ in range(20):
        d = int(rng.integers(2, 5))
        P = random_polytope(rng, d, extra=int(rng.integers(0, 12 - 2 * d + 1)))
        for _ in range(100):
            g = rng.standard_normal(d)
            s, _ = lmo(P, g)
            x = lmo_simplex_method(P, g)
            assert np.all(P.A @ x <= P.b + 1e-8)
            assert abs(g @ x - g @ s) <= 1e-8


def test_infeasible():
    # x <= -1 and -x <= -1 (x >= 1) cannot both hold.
    with pytest.raises(Infeasible):
        solve_lp([1.0], [[1.0], [-1.0]], [-1.0, -1.0])


def test_unbounded():
    with pytest.raises(Unbounded):
        solve_lp([1.0], [[1.0]], [1.0])  # min x s.t. x <= 1


def test_negative_rhs_phase_one():
    # {1 <= x <= 2}: min x hits the shifted lower bound.
    x, val = solve_lp([1.0], [[1.0], [-1.0]], [2.0, -1.0])
    assert np.isclose(val, 1.0)
    np.testing.assert_allclose(x, [1.0], atol=1e-9)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_phase_one_lps_match_the_vertex_scan(rng, d):
    # Shifting a random polytope far from the origin puts b < 0 in many rows,
    # so every solve starts in phase one; the probability simplex adds an
    # equality pair 1^T x <= 1, -1^T x <= -1.
    shifted = []
    for _ in range(5):
        P = random_polytope(rng, d, extra=int(rng.integers(1, 5)))
        t = rng.uniform(2.0, 5.0, d) * rng.choice([-1.0, 1.0], d)
        shifted.append(Polytope(P.A, P.b + P.A @ t))
    for P in [*shifted, probability_simplex(d)]:
        assert np.any(P.b < 0)
        for _ in range(40):
            g = rng.standard_normal(d)
            s, _ = lmo(P, g)
            x, val = solve_lp(g, P.A, P.b)
            assert np.all(P.A @ x <= P.b + 1e-8)
            assert abs(val - g @ s) <= 1e-8 * (1.0 + abs(g @ s))
