import numpy as np
import pytest

from polyfw.geometry import Polytope


def random_polytope(rng, d, extra):
    """Random bounded polytope: a box [-1, 1]^d cut by `extra` random
    halfspaces through points near the origin. m = 2d + extra rows."""
    eye = np.eye(d)
    A = np.vstack([eye, -eye])
    b = np.ones(2 * d)  # the box [-1, 1]^d
    for _ in range(extra):
        a = rng.standard_normal(d)
        a /= np.linalg.norm(a)
        A = np.vstack([A, a])
        b = np.append(b, rng.uniform(0.3, 1.2))
    return Polytope(A, b)


def assert_weight_rows_valid(P, weights):
    """The active-set invariants on a weight row w, or on every row of a
    stack of them: the weights sum to 1 to within 1e-10, none is negative,
    and the iterate w @ V lies in P to within 1e-8."""
    assert np.all(np.abs(weights.sum(axis=-1) - 1.0) <= 1e-10)
    assert np.all(weights >= 0.0)
    assert np.all((weights @ P.vertices) @ P.A.T <= P.b + 1e-8)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
