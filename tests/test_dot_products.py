"""The stepping loop's small products run through ndarray.dot, which skips
matmul's call overhead. On C-contiguous float64 operands both give the same
bits; these tests pin that on the arrays the program itself builds, and pin
the contiguity those arrays are stored with."""

import numpy as np
import pytest

from conftest import random_polytope
from polyfw.frank_wolfe import ActiveSet
from polyfw.geometry import Polytope, unit_box, unit_simplex
from polyfw.objectives import QuadraticObjective


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def rotated(P: Polytope, rng) -> Polytope:
    """P under a random orthogonal map x -> R x: rows A R^T, vertices enumerated."""
    R, _ = np.linalg.qr(rng.standard_normal((P.dim, P.dim)))
    return Polytope(P.A @ R.T, P.b)


def polytopes(rng):
    yield "simplex d=3", unit_simplex(3)
    yield "box d=8", unit_box(8)
    for d in (3, 5, 8):
        yield f"rotated box d={d}", rotated(unit_box(d), rng)
    for d, extra in ((3, 4), (4, 6)):
        yield f"rotated random d={d}", rotated(random_polytope(rng, d, extra), rng)


def test_vertex_products_match_matmul_bit_for_bit(rng):
    for label, P in polytopes(rng):
        V = P.vertices
        N, d = V.shape
        for _ in range(200):
            g = rng.standard_normal(d) * 10.0 ** rng.integers(-6, 7)
            assert same_bits(V.dot(g), V @ g), label
            # Weights as the active set holds them: a few positive entries
            # summing to one, the rest exactly zero.
            w = np.zeros(N)
            ids = rng.choice(N, size=min(N, int(rng.integers(1, 6))), replace=False)
            w[ids] = rng.dirichlet(np.ones(len(ids)))
            x = w @ V
            assert same_bits(w.dot(V), x), label
            s, v = V[rng.integers(N)], V[rng.integers(N)]
            for u in (v - s, s - x, x - v):
                assert same_bits(g.dot(u), g @ u), label
                assert same_bits(u.dot(u), u @ u), label


@pytest.mark.parametrize("d", [3, 8])
def test_objective_products_match_matmul_bit_for_bit(rng, d):
    for seed in range(20):
        obj = QuadraticObjective(rng.uniform(0.1, 10.0, d), rng.standard_normal(d), seed)
        Q = obj.Q
        for _ in range(50):
            x = obj.z + rng.standard_normal(d) * 10.0 ** rng.integers(-4, 5)
            y = x - obj.z
            assert same_bits(y.dot(Q).dot(y), y @ Q @ y)
            assert same_bits((0.5 * y).dot(Q).dot(y), 0.5 * y @ Q @ y)
            assert same_bits(Q.dot(y), Q @ y)
            f, grad = obj.value_and_gradient(x)
            assert same_bits(f, 0.5 * float(y @ Q @ y))
            assert same_bits(grad, Q @ y)
            assert same_bits(obj.value(x), float(0.5 * y @ Q @ y))


def test_active_set_point_is_w_matmul_v(rng):
    P = rotated(unit_box(8), rng)
    a = ActiveSet(P, {0: 0.25, 7: 0.5, 200: 0.25})
    for _ in range(100):
        a.apply_fw(int(rng.integers(len(P.vertices))), float(rng.uniform(0.0, 0.5)))
        assert same_bits(a.point, a.w @ P.vertices)


def test_program_arrays_are_c_contiguous(rng):
    for _, P in polytopes(rng):
        assert P.vertices.flags.c_contiguous
    obj = QuadraticObjective([1.0, 2.0, 3.0], np.arange(6.0)[::2], rotation_seed=4)
    assert obj.Q.flags.c_contiguous and obj.z.flags.c_contiguous
    np.testing.assert_array_equal(obj.z, [0.0, 2.0, 4.0])


@pytest.mark.parametrize(
    "strided",
    [
        lambda V: np.asfortranarray(V),
        lambda V: np.repeat(V, 2, axis=1)[:, ::2],
        lambda V: np.repeat(V, 2, axis=0)[::2],
    ],
)
def test_vertices_argument_is_stored_c_contiguous(rng, strided):
    box = unit_box(8)
    V = strided(box.vertices)
    assert not V.flags.c_contiguous
    P = Polytope(box.A, box.b, vertices=V)
    assert P.vertices.flags.c_contiguous
    np.testing.assert_array_equal(P.vertices, box.vertices)
    for _ in range(100):
        g = rng.standard_normal(8)
        assert same_bits(P.vertices.dot(g), box.vertices @ g)
