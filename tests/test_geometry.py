import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyfw import geometry, simplex_lp
from polyfw.errors import (
    ConfigError,
    DegeneratePolytope,
    DimensionMismatch,
    InfeasiblePoint,
    UnboundedOrEmpty,
    UnknownVertexId,
)
from polyfw.geometry import (
    Polytope,
    active_index_set,
    active_index_set_of_vertex_set,
    diameter,
    enumerate_vertices,
    geometry_constants,
    lmo,
    polytope_from_json,
    probability_simplex,
    unit_box,
    unit_simplex,
)

from conftest import random_polytope


def full_diameter(V):
    return float(np.sqrt(((V[:, None, :] - V[None, :, :]) ** 2).sum(axis=2).max()))


def rotated_box(d, seed=5):
    """[0, 1]^d turned by a random rotation: no row of A is an axis row."""
    R = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]
    P = unit_box(d)
    return Polytope(P.A @ R.T, P.b)


def as_set(V, tol=1e-8):
    return {tuple(np.round(v / tol) * tol) for v in V}


def parallel_rows(A):
    """par[i, j]: rows i and j are equal after division by their first
    nonzero entries (a row, its negation, a duplicate)."""
    scaled = [row / row[np.flatnonzero(row)[0]] if row.any() else row for row in A]
    return np.array([[np.array_equal(r, s) for s in scaled] for r in scaled])


def loop_bases(P):
    """The d-row subsets the reference loop solves: those with no two parallel rows."""
    par = parallel_rows(P.A)
    for rows in itertools.combinations(range(P.n_constraints), P.dim):
        if not any(par[i, j] for i, j in itertools.combinations(rows, 2)):
            yield list(rows)


def enumerate_by_loop(P):
    """Reference enumeration: one solve per d-row subset without two
    parallel rows and with |det| above SINGULAR_RATIO times the product of
    its row norms, pairwise dedup."""
    A, b, d, m = P.A, P.b, P.dim, P.n_constraints
    if m < d:
        raise UnboundedOrEmpty("polytope", f"need at least d={d} constraints, got m={m}")
    candidates = []
    for rows in loop_bases(P):
        sub = A[rows]
        sign, logdet = np.linalg.slogdet(sub)
        if sign == 0 or logdet - np.log(np.linalg.norm(sub, axis=1)).sum() <= math.log(
            geometry.SINGULAR_RATIO
        ):
            continue
        try:
            x = np.linalg.solve(sub, b[rows])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > 1e12:
            continue
        if np.linalg.norm(sub @ x - b[rows]) > 1e-7 * (1.0 + np.linalg.norm(x)):
            continue
        if np.all(A @ x <= b + 1e-9):
            candidates.append(x)
    if not candidates:
        raise UnboundedOrEmpty("polytope", "no basic feasible solution found")
    kept = []
    for x in candidates:
        if all(np.linalg.norm(x - y) > geometry.DEDUP_TOL for y in kept):
            kept.append(x)
    V = np.array(kept)
    return V[np.lexsort(V.T[::-1])]


def outcome(enumerate_fn, A, b):
    """The enumeration's bytes and shape, or the type of error it raised."""
    try:
        V = enumerate_fn(Polytope(A, b))
    except UnboundedOrEmpty:
        return "UnboundedOrEmpty"
    return V.shape, V.tobytes()


@st.composite
def bounded_polytopes(draw):
    """A box or a probability simplex in R^d (d = 2..5) cut by unit-normal
    rows, with degenerate draws mixed in: duplicated rows, the simplex's
    equality pair, an equality pair whose second row is a rounded multiple
    of the first, rows through a box corner (a vertex on more than d rows)
    and rows that cut a corner off by a hair. Some draws are empty."""
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        half = draw(st.sampled_from([0.5, 1.0, 2.0]))
        A = np.vstack([np.eye(d), -np.eye(d)])
        b = np.full(2 * d, half)
    else:
        P = probability_simplex(d)
        A, b, half = P.A, P.b, 1.0
    for _ in range(draw(st.integers(0, 3 if d < 5 else 1))):
        kind = draw(st.sampled_from(
            ["cut", "duplicate", "corner", "near_corner", "equality_pair", "scaled_equality_pair"]
        ))
        a = rng.standard_normal(d)
        a /= np.linalg.norm(a)
        if kind == "cut":
            rows, rhs = [a], [draw(st.floats(-0.5, 1.5))]
        elif kind == "duplicate":
            i = draw(st.integers(0, len(b) - 1))
            rows, rhs = [A[i]], [b[i]]
        elif kind in ("corner", "near_corner"):
            # A row through a box corner, or one that cuts it off by a margin
            # on either side of the feasibility and dedup tolerances.
            corner = half * rng.choice([-1.0, 1.0], d)
            margin = draw(st.sampled_from([1e-10, 1e-8, 1e-7])) if kind == "near_corner" else 0.0
            rows, rhs = [a], [a @ corner - margin]
        elif kind == "equality_pair":
            rows, rhs = [a, -a], [0.25, -0.25]
        else:
            # -k a is not an exact multiple of a in floating point.
            k = draw(st.floats(0.2, 5.0))
            rows, rhs = [a, -k * a], [0.25, -0.25 * k]
        A = np.vstack([A, *rows])
        b = np.concatenate([b, rhs])
    return A, b


class TestEnumerateVertices:


    def test_unit_box_corners(self):
        V = unit_box(2).vertices
        assert as_set(V) == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}

    def test_unit_simplex_r3(self):
        V = unit_simplex(3).vertices
        expect = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert as_set(V) == {tuple(float(c) for c in v) for v in expect}

    def test_lexicographic_order(self):
        V = unit_box(2).vertices
        assert [tuple(np.round(v, 9)) for v in V] == sorted(
            tuple(np.round(v, 9)) for v in V
        )

    def test_random_polygon_matches_pairwise_intersection(self, rng):
        # Independent oracle: intersect every constraint pair, keep feasible.
        for _ in range(5):
            P = random_polytope(rng, 2, extra=1)  # 5 constraints in 2-D
            A, b = P.A, P.b
            brute = []
            for i, j in itertools.combinations(range(len(b)), 2):
                M = A[[i, j]]
                if abs(np.linalg.det(M)) < 1e-12:
                    continue
                x = np.linalg.solve(M, b[[i, j]])
                if np.all(A @ x <= b + 1e-9):
                    brute.append(x)
            assert as_set(P.vertices) == as_set(brute)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Polytope(np.eye(2), np.ones(3))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(bounded_polytopes())
    def test_batched_equals_the_loop(self, polytope):
        A, b = polytope
        assert outcome(enumerate_vertices, A, b) == outcome(enumerate_by_loop, A, b)

    def test_presets_equal_the_loop(self):
        for P in (unit_box(6, 2.0), unit_simplex(5), probability_simplex(5)):
            assert outcome(enumerate_vertices, P.A, P.b) == outcome(enumerate_by_loop, P.A, P.b)

    def test_chunk_boundaries_do_not_matter(self, monkeypatch, rng):
        P = random_polytope(rng, 5, extra=6)
        n_bases = sum(1 for _ in loop_bases(P))
        assert n_bases > geometry.SUBSET_CHUNK
        expect = outcome(enumerate_by_loop, P.A, P.b)
        for chunk in (1, 7, n_bases - 1, n_bases, 2 * n_bases):
            monkeypatch.setattr(geometry, "SUBSET_CHUNK", chunk)
            assert outcome(enumerate_vertices, P.A, P.b) == expect

    def test_more_subsets_than_one_chunk(self, rng):
        P = random_polytope(rng, 5, extra=6)
        assert sum(1 for _ in loop_bases(P)) > geometry.SUBSET_CHUNK
        assert outcome(enumerate_vertices, P.A, P.b) == outcome(enumerate_by_loop, P.A, P.b)

    def test_box_skips_every_subset_with_parallel_rows(self, monkeypatch):
        factored = []
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: factored.append(len(a)) or slogdet(a))
        assert len(enumerate_vertices(unit_box(8))) == 256
        assert sum(factored) == 2**8  # not C(16, 8) = 12870

    @pytest.mark.parametrize("k", [1.0, 3.0, 7.0])
    def test_equality_pair_gives_no_spurious_vertex(self, k):
        # A segment: the pair a.x <= 1/4, -k a.x <= -k/4 inside a cut square.
        # Its basis {a, -k a} is singular, yet with cond ~1e16 it passed the
        # residual guard and added a third "vertex" with active rank 1. At
        # k = 1 the rows share a parallel class; at k = 3 and 7 the rounded
        # -k a is no exact multiple of a, and the determinant guard drops it.
        a = np.array([0.7300381777342467, 0.6834063645083065])
        A = np.vstack(
            [np.eye(2), -np.eye(2), [[-0.9989580607831187, -0.04563762478953964]], a, -k * a]
        )
        b = np.array([1.0, 1.0, 1.0, 1.0, 1.0445956854726584, 0.25, -0.25 * k])
        assert len(enumerate_vertices(Polytope(A, b))) == 2

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(bounded_polytopes())
    def test_every_vertex_is_feasible_with_d_independent_active_rows(self, polytope):
        P = Polytope(*polytope)
        try:
            V = enumerate_vertices(P)
        except UnboundedOrEmpty:
            return  # an empty draw
        for v in V:
            active = sorted(active_index_set(P, v))  # raises InfeasiblePoint if infeasible
            assert np.linalg.matrix_rank(P.A[active], tol=1e-9) == P.dim

    def test_empty_polytope(self):
        with pytest.raises(UnboundedOrEmpty):
            enumerate_vertices(Polytope([[1.0], [-1.0]], [0.0, -1.0]))  # x <= 0, x >= 1


class TestBoundednessAndCap:
    @pytest.mark.parametrize(
        "A, b, direction",
        [
            (np.eye(3), np.ones(3), "-e_0"),  # {x <= 1} in R^3: one "vertex"
            ([[1.0, 0.0]], [1.0], "-e_0"),  # m < d
            ([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.0, 1.0, 0.0], "+e_0"),  # a strip
        ],
    )
    def test_unbounded_is_a_config_error_naming_the_ray(self, A, b, direction):
        with pytest.raises(ConfigError, match=re.escape(f"ray along {direction}")):
            enumerate_vertices(Polytope(A, b))

    @pytest.mark.parametrize(
        "P, lps, n_vertices",
        [(unit_box(8), 0, 256), (unit_simplex(3), 0, 4), (probability_simplex(4), 0, 4),
         (rotated_box(4), 8, 16)],
        ids=["box8", "simplex3", "probability_simplex4", "rotated_box4"],
    )
    def test_axis_rows_replace_their_lps(self, monkeypatch, P, lps, n_vertices):
        # Axis rows certify the box; on the simplices 1^T x <= s bounds each
        # x_i above given the others' axis-row lower bounds. The rotated box
        # has no axis row and runs all 2d LPs.
        stacks = []

        def counted(c, *args):
            stacks.append(np.atleast_2d(c))
            return solve_lp(c, *args)

        solve_lp = simplex_lp.solve_lp
        monkeypatch.setattr(simplex_lp, "solve_lp", counted)
        geometry.prove_bounded(P)
        # The LPs are the rows of the stacked cost vectors.
        assert sum(len(c) for c in stacks) == lps
        assert len(enumerate_vertices(P)) == n_vertices

    def test_row_certificate_needs_the_other_bounds(self):
        # x_0 - x_1 <= 1 would bound x_0 above only with x_1 bounded above,
        # which no axis row gives: the LPs find the ray (1, 1).
        A, b = [[-1.0, 0.0], [0.0, -1.0], [1.0, -1.0]], [0.0, 0.0, 1.0]
        with pytest.raises(ConfigError, match=re.escape("x[0] is not bounded above")):
            enumerate_vertices(Polytope(A, b))

    def test_row_certificates_of_an_empty_polytope(self, monkeypatch):
        # {x >= 0, 1^T x <= -1}: every direction has a certificate, so no LP
        # runs, and the enumeration finds no vertex.
        monkeypatch.setattr(simplex_lp, "solve_lp", lambda *a: pytest.fail("an LP ran"))
        with pytest.raises(UnboundedOrEmpty):
            enumerate_vertices(Polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, -1.0]))

    def test_subset_cap_fails_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("enumeration started work above the cap")

        monkeypatch.setattr(geometry, "prove_bounded", no_work)
        monkeypatch.setattr(np.linalg, "slogdet", no_work)
        monkeypatch.setattr(np.linalg, "solve", no_work)
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match=r"C\(32, 16\) = 601080390"):
            enumerate_vertices(unit_box(16))
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize(
        "spec, message",
        [
            # C(3001, 3000) = 3001 subsets, but each of them a 3000 x 3000 system.
            ({"preset": "simplex", "dim": 3000}, "m = 3001 rows in d = 3000 dimensions"),
            ({"preset": "box", "dim": 10**7}, "C(20000000, 10000000) > 10^37"),
            ({"preset": "box", "dim": 12}, "C(24, 12) = 2704156"),
            ({"preset": "probability_simplex", "dim": 91}, "m = 93 rows in d = 91 dimensions"),
        ],
        ids=["simplex3000", "box1e7", "box12", "probability_simplex91"],
    )
    def test_oversized_presets_fail_before_any_matrix(self, monkeypatch, spec, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a preset started work above the cap")

        monkeypatch.setattr(np, "eye", no_work)
        monkeypatch.setattr(simplex_lp, "solve_lp", no_work)
        monkeypatch.setattr(np.linalg, "slogdet", no_work)
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match=re.escape(message)):
            polytope_from_json(spec)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize(
        "m, d", [(22, 11), (256, 255), (92, 90)],
        ids=["box11", "simplex255", "probability_simplex90"],
    )
    def test_largest_accepted_presets(self, m, d):
        geometry.check_size(m, d)
        # The same preset one dimension up: 2d, d + 1 and d + 2 rows.
        with pytest.raises(ConfigError, match="above the cap"):
            geometry.check_size(m + m // d, d + 1)


class TestPresets:
    def test_probability_simplex_honours_scale(self):
        P = polytope_from_json({"preset": "probability_simplex", "dim": 3, "scale": 2.0})
        assert np.array_equal(P.b, [0.0, 0.0, 0.0, 2.0, -2.0])
        # Lexicographic order: 2 e_3, 2 e_2, 2 e_1.
        assert np.array_equal(P.vertices, 2.0 * np.eye(3)[::-1])

    def test_probability_simplex_default_scale_is_one(self):
        P = polytope_from_json({"preset": "probability_simplex", "dim": 4})
        assert P.b.tobytes() == probability_simplex(4, 1.0).b.tobytes()
        assert np.array_equal(P.vertices, np.eye(4)[::-1])


class TestLMO:
    def test_probability_simplex_min_coordinate(self):
        P = probability_simplex(3)
        v, vid = lmo(P, np.array([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(v, [0.0, 1.0, 0.0], atol=1e-12)
        assert vid == 1  # e2 in lexicographic order (0,0,1) < (0,1,0) < (1,0,0)

    def test_box_sign_pattern(self):
        v, _ = lmo(unit_box(2), np.array([-1.0, 2.0]))
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-12)

    def test_matches_explicit_scan_on_random_polytopes(self, rng):
        for _ in range(5):
            P = random_polytope(rng, 3, extra=3)
            V = P.vertices
            for _ in range(100):
                g = rng.standard_normal(3)
                v, vid = lmo(P, g)
                vals = V @ g
                assert np.isclose(v @ g, vals.min())
                assert vid == int(np.argmin(vals))


class TestActiveIndexSets:
    def test_box_edge_point(self):
        P = unit_box(2)
        # rows: x1<=1 (0), x2<=1 (1), -x1<=0 (2), -x2<=0 (3)
        assert active_index_set(P, np.array([1.0, 0.5])) == {0}

    def test_simplex_vertex(self):
        P = unit_simplex(3)
        # rows: -x1,-x2,-x3 (0..2), sum<=1 (3)
        assert active_index_set(P, np.array([1.0, 0.0, 0.0])) == {1, 2, 3}

    def test_infeasible_point_raises(self):
        with pytest.raises(InfeasiblePoint):
            active_index_set(unit_box(2), np.array([1.5, 0.5]))

    def test_vertex_set_singleton(self, rng):
        P = random_polytope(rng, 2, extra=2)
        for vid in range(len(P.vertices)):
            assert active_index_set_of_vertex_set(P, [vid]) == active_index_set(
                P, P.vertex(vid)
            )

    def test_box_bottom_edge(self):
        P = unit_box(2)
        ids = {i for i, v in enumerate(P.vertices) if abs(v[1]) < 1e-12}
        assert active_index_set_of_vertex_set(P, ids) == {3}

    def test_empty_vertex_set_raises(self):
        with pytest.raises(UnknownVertexId):
            active_index_set_of_vertex_set(unit_box(2), [])

    def test_index_set_of_convex_combination(self, rng):
        # I(x) = I(U) for x = sum alpha_v v with all alpha_v > 0.
        checked = 0
        while checked < 100:
            P = random_polytope(rng, 3, extra=rng.integers(0, 4))
            n_v = len(P.vertices)
            k = int(rng.integers(1, min(n_v, 4) + 1))
            ids = rng.choice(n_v, size=k, replace=False)
            alpha = rng.dirichlet(np.ones(k))
            if alpha.min() < 1e-3:
                continue
            x = alpha @ P.vertices[ids]
            assert active_index_set(P, x) == active_index_set_of_vertex_set(P, ids)
            checked += 1


class TestGeometryConstants:
    def test_unit_box(self):
        geo = geometry_constants(unit_box(2))
        assert geo.N == 4
        assert np.isclose(geo.D, np.sqrt(2))
        assert np.isclose(geo.zeta, 1.0)
        assert np.isclose(geo.phi, 1.0)
        assert np.isclose(geo.omega, 1.0)

    def test_unit_simplex_r2(self):
        geo = geometry_constants(unit_simplex(2))
        assert np.isclose(geo.D, np.sqrt(2))
        assert np.isclose(geo.zeta, 1.0)
        assert np.isclose(geo.phi, np.sqrt(2))
        assert np.isclose(geo.omega, 1.0 / np.sqrt(2))

    def test_scaling_b_doubles_zeta_only(self):
        g1 = geometry_constants(unit_box(2))
        g2 = geometry_constants(unit_box(2, scale=2.0))
        assert np.isclose(g2.zeta, 2.0 * g1.zeta)
        assert np.isclose(g2.phi, g1.phi)

    def test_shuffled_vertex_order_gives_identical_values(self, rng):
        P = random_polytope(rng, 3, extra=2)
        geo = geometry_constants(P)
        perm = rng.permutation(len(P.vertices))
        shuffled = Polytope(P.A, P.b, vertices=P.vertices[perm])
        geo2 = geometry_constants(shuffled)
        assert geo2.zeta == geo.zeta
        assert geo2.phi == geo.phi
        assert geo2.D == geo.D

    @pytest.mark.parametrize("pair_block", [1, 7 * 3 * 10, geometry.PAIR_BLOCK])
    def test_blocked_diameter_equals_the_full_pair_array(self, monkeypatch, rng, pair_block):
        P = random_polytope(rng, 3, extra=4)
        V = P.vertices
        full = float(np.sqrt(((V[:, None, :] - V[None, :, :]) ** 2).sum(axis=2).max()))
        monkeypatch.setattr(geometry, "PAIR_BLOCK", pair_block)
        assert geometry_constants(P).D == full

    @pytest.mark.parametrize("shift", [0.0, 1e6, -3.7e5])
    def test_screened_diameter_equals_the_full_pair_array(self, rng, shift):
        for _ in range(40):
            d = int(rng.integers(2, 6))
            V = random_polytope(rng, d, extra=int(rng.integers(0, 7))).vertices
            V = V @ np.linalg.qr(rng.standard_normal((d, d)))[0] + shift
            assert diameter(V) == full_diameter(V)

    def test_screened_diameter_on_rotated_boxes(self):
        # Every antipodal pair ties up to rounding, and the screen orders
        # them differently from the exact sums: a zero margin fails here.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(3, 7))
            R = np.linalg.qr(rng.standard_normal((d, d)))[0]
            V = unit_box(d).vertices @ R.T + rng.choice([0.0, 1e6, -3e3])
            assert diameter(V) == full_diameter(V)

    @pytest.mark.parametrize(
        "V",
        [unit_box(5).vertices + 1e6, probability_simplex(6).vertices, np.zeros((1, 3))],
        ids=["translated_box", "equidistant", "single_point"],
    )
    @pytest.mark.parametrize("pair_block", [1, 37, geometry.PAIR_BLOCK])
    def test_screened_diameter_on_ties_and_blocks(self, monkeypatch, V, pair_block):
        # Every pair of the simplex, and every antipodal pair of the box,
        # ties for the maximum; small blocks carry the best sum across blocks.
        monkeypatch.setattr(geometry, "PAIR_BLOCK", pair_block)
        assert diameter(V) == full_diameter(V)

    def test_diameter_memory_is_bounded(self):
        # The full N x N x d pair array of the d = 10 box alone takes 80 MB.
        tracemalloc.start()
        try:
            geo = geometry_constants(unit_box(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert geo.N == 1024 and geo.D == math.sqrt(10)
        assert peak <= 32 * 2**20

    def test_degenerate_all_active(self):
        P = Polytope([[1.0], [-1.0]], [0.0, 0.0])  # the single point {0}
        with pytest.raises(DegeneratePolytope):
            geometry_constants(P)

    def test_zeta_is_a_lower_bound_on_inspected_slacks(self, rng):
        P = random_polytope(rng, 2, extra=3)
        geo = geometry_constants(P)
        slacks = P.b[None, :] - P.vertices @ P.A.T
        assert np.isclose(geo.zeta, slacks[slacks > 1e-9 * (1 + abs(P.b))].min())


class TestFeasibilityOfOutputs:
    def test_all_vertices_feasible(self, rng):
        for _ in range(10):
            P = random_polytope(rng, int(rng.integers(2, 5)), extra=int(rng.integers(0, 5)))
            assert np.all(P.vertices @ P.A.T <= P.b + 1e-8)


class TestJSON:
    def test_presets(self):
        P = polytope_from_json({"preset": "box", "dim": 2, "scale": 1.0})
        assert as_set(P.vertices) == as_set(unit_box(2).vertices)
        S = polytope_from_json({"preset": "simplex", "dim": 3})
        assert len(S.vertices) == 4

    def test_unknown_preset_is_a_config_error(self):
        with pytest.raises(ConfigError, match="polytope.preset"):
            polytope_from_json({"preset": "cube", "dim": 3})

    def test_explicit_h_form(self):
        P = polytope_from_json({"A": [[1.0], [-1.0]], "b": [1.0, 0.0]})
        assert as_set(P.vertices) == {(0.0,), (1.0,)}
