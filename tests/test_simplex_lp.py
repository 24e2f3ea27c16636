import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyfw import simplex_lp
from polyfw.cli import main as cli_main
from polyfw.errors import Infeasible, Unbounded
from polyfw.geometry import Polytope, lmo, probability_simplex, unit_box, unit_simplex
from polyfw.simplex_lp import lmo_simplex_method, solve_lp

from conftest import random_polytope
from test_geometry import bounded_polytopes, rotated_box


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


def shifted_polytope(rng, d):
    """A random polytope moved away from the origin: b < 0 in many rows, so
    its LPs start in phase one."""
    P = random_polytope(rng, d, extra=int(rng.integers(1, 5)))
    t = rng.uniform(2.0, 5.0, d) * rng.choice([-1.0, 1.0], d)
    return Polytope(P.A, P.b + P.A @ t)


def directions(rng, d, k=16):
    """Normal directions, with rounded ones (ties), zero and +-e_i mixed in."""
    G = rng.standard_normal((k, d))
    G[:3] = np.round(G[:3])
    G[3] = 0.0
    G[4] = np.eye(d)[0]
    G[5] = -np.eye(d)[-1]
    return G


def outcome(solve):
    """The bytes of a solve's x and value, or the class of its exception."""
    try:
        x, value = solve()
    except (Infeasible, Unbounded) as exc:
        return type(exc)
    return x.tobytes(), np.float64(value).tobytes()


def assert_stack_matches_singles(A, b, G):
    singles = [outcome(lambda g=g: solve_lp(g, A, b)) for g in G]
    try:
        X, values = solve_lp(G, A, b)
    except Infeasible:
        # Phase one is shared, so every single solve fails with it.
        assert all(s is Infeasible for s in singles)
        return
    except Unbounded as exc:
        assert singles[exc.lp] is Unbounded
        assert all(isinstance(s, tuple) for s in singles[: exc.lp])
        return
    assert [(x.tobytes(), np.float64(v).tobytes()) for x, v in zip(X, values)] == singles


@settings(derandomize=True, max_examples=150, deadline=None)
@given(bounded_polytopes(), st.integers(0, 2**32 - 1))
def test_stack_equals_single_solves_on_bounded_polytopes(polytope, seed):
    A, b = polytope
    assert_stack_matches_singles(A, b, directions(np.random.default_rng(seed), A.shape[1]))


@pytest.mark.parametrize(
    "P",
    [*(unit_box(d) for d in range(2, 9)), unit_simplex(3), unit_simplex(6),
     probability_simplex(3), probability_simplex(5, 2.5), rotated_box(4)],
    ids=[*(f"box{d}" for d in range(2, 9)), "simplex3", "simplex6", "probability_simplex3",
         "probability_simplex5_scaled", "rotated_box4"],
)
def test_stack_equals_single_solves_on_presets(rng, P):
    assert_stack_matches_singles(P.A, P.b, directions(rng, P.dim, k=40))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stack_equals_single_solves_in_phase_one(rng, d):
    for _ in range(4):
        P = shifted_polytope(rng, d)
        assert np.any(P.b < 0)
        assert_stack_matches_singles(P.A, P.b, directions(rng, d, k=30))


def test_infeasible_stack_raises_infeasible():
    with pytest.raises(Infeasible):
        solve_lp(np.eye(1), [[1.0], [-1.0]], [-1.0, -1.0])


def test_unbounded_stack_names_its_first_unbounded_lp():
    # x_0 <= 1, 0 <= x_1 <= 1: only minimizing x_0 is unbounded.
    A, b = [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 0.0]
    G = np.array([[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [2.0, 1.0]])
    with pytest.raises(Unbounded) as info:
        solve_lp(G, A, b)
    assert info.value.lp == 2
    assert_stack_matches_singles(A, b, G)


def test_stack_shapes():
    P = unit_box(3)
    X, values = solve_lp(np.zeros((0, 3)), P.A, P.b)
    assert X.shape == (0, 3) and values.shape == (0,)
    x, value = solve_lp(-np.ones(3), P.A, P.b)
    assert x.shape == (3,) and isinstance(value, float)


@pytest.mark.parametrize("budget", [1, 600, 2000])
def test_small_stack_budget_gives_the_same_solutions(rng, monkeypatch, budget):
    problems = [unit_box(8), shifted_polytope(rng, 3), probability_simplex(4)]
    G = [directions(rng, P.dim, k=25) for P in problems]
    whole = [solve_lp(g, P.A, P.b) for P, g in zip(problems, G)]
    monkeypatch.setattr(simplex_lp, "STACK_FLOATS", budget)
    assert simplex_lp.stack_size(16, 8) == max(1, budget // 561) < 25
    for P, g, (X, values) in zip(problems, G, whole):
        X_small, values_small = solve_lp(g, P.A, P.b)
        assert X_small.tobytes() == X.tobytes() and values_small.tobytes() == values.tobytes()


def test_stack_memory_is_bounded():
    P = unit_box(8)
    G = np.random.default_rng(0).standard_normal((5_000, 8))
    tracemalloc.start()
    solve_lp(G, P.A, P.b)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # One stack's tableaux take STACK_FLOATS floats (1 MB), and x and the
    # values of all 5,000 LPs 0.4 MB; the 5,000 tableaux would take 22 MB.
    assert peak < 5 * 8 * simplex_lp.STACK_FLOATS + 5_000 * 9 * 8


@pytest.mark.parametrize("polytope", [{"preset": "box", "dim": 8}, "shifted"])
def test_lmo_check_prints_the_same_line_under_a_small_budget(
    tmp_path, capsys, monkeypatch, rng, polytope
):
    if polytope == "shifted":
        P = shifted_polytope(rng, 3)
        polytope = {"A": P.A.tolist(), "b": P.b.tolist()}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(polytope))
    argv = ["lmo-check", str(path), "--trials", "60", "--seed", "3"]
    assert cli_main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(simplex_lp, "STACK_FLOATS", 1000)
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == whole
