import copy
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polyfw
from conftest import assert_weight_rows_valid, random_polytope
from polyfw import frank_wolfe
from polyfw.diagnostics import compute_constants
from polyfw.errors import DegenerateDirection, InvariantViolation
from polyfw.frank_wolfe import (
    DROP_TOL,
    ActiveSet,
    away_fw_step,
    initial_active_set,
    run,
    standard_fw_step,
    standard_step_size,
)
from polyfw.geometry import Polytope, lmo, unit_box, unit_simplex
from polyfw.objectives import QuadraticObjective, reference_solution
from polyfw.sampling import NoiseModel, sample_noise_means


# unit_box(2) vertices in lexicographic order:
# 0 -> (0,0), 1 -> (0,1), 2 -> (1,0), 3 -> (1,1)
BOX = unit_box(2)


def dense(weights: dict[int, float], n: int = 4) -> np.ndarray:
    """The weight vector over n vertices of a {vertex_id: weight} map."""
    w = np.zeros(n)
    for vid, wt in weights.items():
        w[vid] = wt
    return w


class DictActiveSet:
    """Reference copy of the dict-based active set that the dense weight
    vector replaced: an insertion-ordered map vertex_id -> weight, a lazily
    cached point, and an away vertex found by a loop over the sorted ids."""

    def __init__(self, P: Polytope, weights: dict[int, float]):
        self.P = P
        self.weights = dict(weights)
        self._purge()
        self._point = None

    @property
    def point(self) -> np.ndarray:
        if self._point is None:
            V = self.P.vertices
            x = np.zeros(self.P.dim)
            for vid, w in self.weights.items():
                x += w * V[vid]
            self._point = x
        return self._point

    def away_vertex(self, g) -> tuple[int, float]:
        V = self.P.vertices
        best_id, best_val = -1, -math.inf
        for vid in sorted(self.weights):
            val = float(V[vid] @ g)
            if val > best_val:
                best_id, best_val = vid, val
        return best_id, self.weights[best_id]

    def apply_fw(self, s_id: int, gamma: float) -> None:
        if gamma >= 1.0:
            self.weights = {s_id: 1.0}
        else:
            self.weights = {vid: (1.0 - gamma) * w for vid, w in self.weights.items()}
            self.weights[s_id] = self.weights.get(s_id, 0.0) + gamma
        self._purge()
        self._point = None

    def apply_away(self, v_id: int, gamma: float, at_max: bool) -> None:
        new = {vid: (1.0 + gamma) * w for vid, w in self.weights.items()}
        if at_max:
            del new[v_id]
        else:
            new[v_id] = (1.0 + gamma) * self.weights[v_id] - gamma
        self.weights = new
        self._purge()
        self._point = None

    def _purge(self) -> None:
        self.weights = {vid: w for vid, w in self.weights.items() if w > DROP_TOL}
        total = sum(self.weights.values())
        if not self.weights or abs(total - 1.0) > 0.5:
            raise InvariantViolation(f"active-set mass {total} lost; representation corrupt")
        if total != 1.0:
            self.weights = {vid: w / total for vid, w in self.weights.items()}


class TestActiveSet:
    def test_point_reconstruction(self):
        a = ActiveSet(BOX, {0: 0.5, 3: 0.5})
        np.testing.assert_allclose(a.point, [0.5, 0.5])

    def test_apply_fw_partial_step(self):
        a = ActiveSet(BOX, {0: 0.5, 3: 0.5})
        a.apply_fw(1, 0.2)
        assert a.w == pytest.approx(dense({0: 0.4, 3: 0.4, 1: 0.2}))

    def test_apply_fw_full_step_collapses(self):
        a = ActiveSet(BOX, {0: 0.5, 3: 0.5})
        a.apply_fw(1, 1.0)
        assert np.array_equal(a.w, dense({1: 1.0}))

    def test_apply_away_interior(self):
        # alpha_v = 0.25, gamma = 0.2: v gets 1.2*0.25 - 0.2 = 0.1.
        a = ActiveSet(BOX, {0: 0.25, 3: 0.75})
        a.apply_away(0, 0.2, at_max=False)
        assert a.w == pytest.approx(dense({0: 0.1, 3: 0.9}))

    def test_apply_away_drop_renormalizes(self):
        a = ActiveSet(BOX, {0: 0.25, 1: 0.25, 3: 0.5})
        a.apply_away(3, 1.0, at_max=True)  # gamma_max = 0.5/0.5
        assert a.w == pytest.approx(dense({0: 0.5, 1: 0.5}))
        assert_weight_rows_valid(BOX, a.w)

    def test_mass_check_raises_under_python_O(self):
        # Runtime checks are not asserts, so python -O keeps them.
        code = (
            "from polyfw.frank_wolfe import ActiveSet\n"
            "from polyfw.geometry import unit_box\n"
            "ActiveSet(unit_box(2), {0: 0.1})\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(polyfw.__file__)))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert "polyfw.errors.InvariantViolation: active-set mass 0.1 lost" in out.stderr

    def test_purges_dust(self):
        a = ActiveSet(BOX, {0: 1.0 - 1e-14, 3: 1e-14})
        assert set(np.flatnonzero(a.w)) == {0}
        assert a.w[0] == 1.0

    def test_away_vertex_tie_breaks_to_smallest_id(self):
        # away_fw_step reports the away vertex it chose.
        a = ActiveSet(BOX, {1: 0.5, 2: 0.5})  # (0,1) and (1,0)
        _, info = away_fw_step(a, np.array([1.0, 1.0]), BOX, L=1.0)
        assert info["v_id"] == 1

    def test_corrupt_mass_raises(self):
        with pytest.raises(ValueError):
            ActiveSet(BOX, {0: 0.1})

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_fw_updates_preserve_invariants(self, steps):
        a = ActiveSet(BOX, {0: 1.0})
        for s_id, gamma in steps:
            a.apply_fw(s_id, gamma)
        assert_weight_rows_valid(BOX, a.w)
        assert np.linalg.norm(a.w @ a.V - a.point) <= 1e-8
        assert np.all(BOX.A @ a.point <= BOX.b + 1e-9)


REFERENCE_POLYTOPES = {
    "box": unit_box(3),
    "simplex": unit_simplex(3),
    "random": random_polytope(np.random.default_rng(5), 3, extra=4),
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(REFERENCE_POLYTOPES)),
    st.lists(
        st.tuples(
            st.sampled_from(["fw", "away", "step"]),
            st.integers(0, 2**32 - 1),
            st.floats(0.0, 1.0),
            st.booleans(),
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_dense_set_matches_dict_reference(name, ops):
    # Random FW and away updates, and away steps from random gradients,
    # applied to the dense set and to the dict-based reference.
    P = REFERENCE_POLYTOPES[name]
    N = len(P.vertices)
    _, vid0 = lmo(P, np.ones(P.dim))
    new, ref = ActiveSet(P, {vid0: 1.0}), DictActiveSet(P, {vid0: 1.0})
    for kind, seed, frac, at_max in ops:
        if kind == "fw":
            new.apply_fw(seed % N, frac)
            ref.apply_fw(seed % N, frac)
        elif kind == "away":
            ids = sorted(ref.weights)
            v_id = ids[seed % len(ids)]
            alpha = ref.weights[v_id]
            if alpha >= 1.0:
                continue
            gamma = alpha / (1.0 - alpha) * (1.0 if at_max else frac)
            new.apply_away(v_id, gamma, at_max)
            ref.apply_away(v_id, gamma, at_max)
        else:
            g = np.random.default_rng(seed).standard_normal(P.dim)
            before = new.w.copy()
            try:
                _, info = away_fw_step(new, g, P, L=0.5 + 4.0 * frac)
            except DegenerateDirection:
                assert np.array_equal(new.w, before)
                continue
            assert info["s_id"] == lmo(P, g)[1]
            assert info["v_id"] == ref.away_vertex(g)[0]
            if info["step_type"].startswith("fw"):
                ref.apply_fw(info["s_id"], info["gamma"])
            else:
                ref.apply_away(info["v_id"], info["gamma"], info["step_type"] == "away_drop")
        assert set(np.flatnonzero(new.w)) == set(ref.weights)
        np.testing.assert_allclose(new.w, dense(ref.weights, N), rtol=0, atol=1e-12)
        np.testing.assert_allclose(new.point, ref.point, rtol=0, atol=1e-12)
        assert len(new) == len(ref.weights)


def test_initial_active_set_is_min_ones_vertex():
    a = initial_active_set(unit_simplex(3))
    assert a.w[a.w > 0].tolist() == [1.0]
    _, vid = lmo(unit_simplex(3), np.ones(3))
    assert set(np.flatnonzero(a.w)) == {vid}


class TestStandardStep:
    def test_gamma_formula(self):
        a = ActiveSet(BOX, {3: 1.0})  # x = (1, 1)
        g = np.array([1.0, 1.0])
        a2, info = standard_fw_step(a, g, BOX, standard_step_size(0.1, L=1.0, D=np.sqrt(2)))
        assert a2 is a
        assert info["gamma"] == pytest.approx(0.025)
        assert info["step_type"] == "fw"
        np.testing.assert_allclose(a2.point, [0.975, 0.975])

    def test_gamma_capped_at_one(self):
        a = ActiveSet(BOX, {3: 1.0})
        g = np.array([1.0, 1.0])
        a2, info = standard_fw_step(a, g, BOX, standard_step_size(10.0, L=1.0, D=1.0))
        assert info["gamma"] == 1.0 and info["step_type"] == "fw_max"
        assert np.array_equal(a2.w, dense({0: 1.0}))
        np.testing.assert_allclose(a2.point, [0.0, 0.0])

    @pytest.mark.parametrize("P", [unit_simplex(3), unit_box(3)], ids=["simplex", "box"])
    @pytest.mark.parametrize(
        "g", [[0.0, 0.0, 0.0], [-1.0, -1.0, 0.0], [0.0, -2.0, -2.0], [-3.0, 0.0, -3.0]],
        ids=["zero", "equal_first_two", "equal_last_two", "equal_outer_two"],
    )
    def test_tied_scores_choose_the_lmo_vertex(self, P, g):
        # standard_fw_step scans V @ g itself; on tied scores it must still
        # take the vertex lmo returns (the first minimizer).
        g = np.array(g)
        scores = P.vertices.dot(g)
        assert np.count_nonzero(scores == scores.min()) >= 2
        _, info = standard_fw_step(initial_active_set(P), g, P, 0.5)
        assert info["s_id"] == lmo(P, g)[1]


class TestAwayStep:
    def test_singleton_takes_fw_branch(self):
        a = ActiveSet(BOX, {3: 1.0})
        new, info = away_fw_step(a, np.array([1.0, 1.0]), BOX, L=1.0)
        assert info["step_type"] == "fw_max"
        assert np.array_equal(new.w, dense({0: 1.0}))

    def test_away_drop_case(self):
        a = ActiveSet(BOX, {0: 0.75, 3: 0.25})  # x = (0.25, 0.25)
        new, info = away_fw_step(a, np.array([1.0, 1.0]), BOX, L=1.0)
        assert info["step_type"] == "away_drop"
        assert info["gamma"] == pytest.approx(1.0 / 3.0)
        assert np.array_equal(new.w, dense({0: 1.0}))

    def test_away_interior_case(self):
        # Same geometry with L = 10 keeps the step interior: gamma = 2/15.
        a = ActiveSet(BOX, {0: 0.75, 3: 0.25})
        new, info = away_fw_step(a, np.array([1.0, 1.0]), BOX, L=10.0)
        assert new is a
        assert info["step_type"] == "away"
        assert info["gamma"] == pytest.approx(2.0 / 15.0)
        assert new.w == pytest.approx(dense({0: 0.85, 3: 0.15}))

    def test_degenerate_direction_leaves_the_set_unchanged(self):
        # g = (1, 1) at the singleton (0, 0) re-selects vertex 0: d = 0.
        a = ActiveSet(BOX, {0: 1.0})
        with pytest.raises(DegenerateDirection):
            away_fw_step(a, np.array([1.0, 1.0]), BOX, L=1.0)
        assert np.array_equal(a.w, dense({0: 1.0}))
        np.testing.assert_array_equal(a.point, [0.0, 0.0])

    @pytest.mark.parametrize("P", [unit_simplex(3), unit_box(8)], ids=["simplex3", "box8"])
    def test_away_vertex_is_the_first_active_maximizer(self, P, rng):
        # away_fw_step scans only the active ids; it must pick what the
        # masked scan over all N vertices picks, ties included, and never an
        # inactive vertex with a higher score.
        V = P.vertices
        hidden = 0
        for trial in range(200):
            size = int(rng.integers(2, min(len(V), 6) + 1))
            ids = rng.choice(len(V), size, replace=False)
            a = ActiveSet(P, dict(zip(ids.tolist(), rng.dirichlet(np.ones(size)).tolist())))
            g = [
                np.zeros(P.dim),  # every score tied
                rng.integers(-1, 2, P.dim).astype(float),  # equal entries
                np.full(P.dim, rng.choice([-1.0, 1.0])),
                rng.standard_normal(P.dim),
            ][trial % 4]
            w, scores = a.w.copy(), V @ g
            expected = int(np.where(w > 0, scores, -np.inf).argmax())
            hidden += scores.max() > scores[expected]
            _, info = away_fw_step(a, g, P, L=1.0)
            assert info["v_id"] == expected and w[expected] > 0
        assert hidden > 0

    def test_g_vs_is_nonnegative(self, rng):
        for _ in range(50):
            a = ActiveSet(BOX, {0: 0.3, 1: 0.3, 3: 0.4})
            _, info = away_fw_step(a, rng.standard_normal(2), BOX, L=5.0)
            assert info["g_vs"] >= 0.0


class TestRun:
    def problem(self):
        P = unit_simplex(3)
        obj = QuadraticObjective([1.0, 2.0, 3.0], z=[0.4, 0.3, 0.2])
        return obj, P

    def test_immediate_stop(self):
        obj, P = self.problem()
        trace = run("standard", obj, P, compute_constants(obj, P, 10.0), None, 0, 50, None,
                    record=True)
        assert trace.T_eps == 0 and trace.n_steps == trace.good_steps == 0
        assert len(trace.records) == 1
        assert trace.records[0].step_type is None
        assert trace.total_samples == 0

    def test_exact_standard_run_is_consistent(self):
        obj, P = self.problem()
        ref = reference_solution(obj, P)
        trace = run(
            "standard", obj, P, compute_constants(obj, P, 0.05), None, 0, 10_000, None,
            record=True, collect_weights=True,
        )
        assert trace.T_eps is not None
        assert trace.final_gap <= 0.05
        assert_weight_rows_valid(P, trace.weights)
        gaps = [r.f_gap for r in trace.records]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        # Recorded gaps match direct evaluation at the reconstructed iterates.
        assert len(trace.weights) == len(trace.records)
        for rec, w in zip(trace.records, trace.weights):
            assert abs(rec.f_gap - (obj.value(w @ P.vertices) - ref.f_star)) <= 1e-12
        assert all(r.good_event for r in trace.records)  # exact gradients

    def test_exact_away_matches_independent_reimplementation(self):
        obj, P = self.problem()
        trace = run(
            "away", obj, P, compute_constants(obj, P, 1e-12), None, 0, 20, None,
            collect_weights=True,
        )
        # Oracle: the away-step recursion on a dense weight vector.
        V = P.vertices
        L = obj.L
        _, vid0 = lmo(P, np.ones(3))
        alpha = np.zeros(len(V))
        alpha[vid0] = 1.0
        for w in trace.weights:
            xo = alpha @ V
            assert np.linalg.norm(w @ V - xo) <= 1e-12
            assert set(w.nonzero()[0]) == set(np.nonzero(alpha > 1e-12)[0])
            g = obj.gradient(xo)
            vals = V @ g
            s_id = int(np.argmin(vals))
            active = np.nonzero(alpha > 1e-12)[0]
            v_id = int(active[np.argmax(vals[active])])
            d_fw = V[s_id] - xo
            d_away = xo - V[v_id]
            if -g @ d_fw >= -g @ d_away:
                gamma = min(1.0, float(-g @ d_fw) / (L * d_fw @ d_fw))
                alpha *= 1.0 - gamma
                alpha[s_id] += gamma
            else:
                a_v = alpha[v_id]
                gamma_max = a_v / (1.0 - a_v)
                gamma = min(gamma_max, float(-g @ d_away) / (L * d_away @ d_away))
                alpha *= 1.0 + gamma
                alpha[v_id] = (1.0 + gamma) * a_v - gamma
            alpha[alpha <= 1e-12] = 0.0
            alpha /= alpha.sum()

    def test_degenerate_away_step_is_recorded_idle(self, monkeypatch):
        # Noise means of (100, 100, 100) make every gradient estimate at the
        # initial vertex, the origin of the simplex, positive, so the FW
        # vertex is the origin again and every step is idle.
        obj, P = self.problem()
        monkeypatch.setattr(
            frank_wolfe, "noise_mean_stream", lambda *a: itertools.repeat(np.full(3, 100.0))
        )
        trace = run("away", obj, P, compute_constants(obj, P, 0.01), NoiseModel.gaussian(0.1, 3),
                    1, 3, None, record=True)
        steps = trace.records[:-1]
        assert [r.step_type for r in steps] == ["idle"] * 3
        assert all(r.gamma == 0.0 and not r.good_event for r in steps)
        assert len({r.f_gap for r in trace.records}) == 1
        assert trace.T_eps is None

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize(
        "algorithm, noise, n, epsilon, max_iter, idle",
        [
            ("standard", NoiseModel.gaussian(0.1, 3), 40, 0.1, 5000, False),
            ("away", NoiseModel.rademacher(0.3, 3), 5000, 0.01, 5000, False),
            ("standard", NoiseModel.gaussian(0.1, 3), 40, 1e-8, 7, False),
            ("away", NoiseModel.gaussian(0.1, 3), 1, 0.01, 3, True),
        ],
        ids=["standard", "away", "standard_max_iter", "away_idle"],
    )
    def test_one_step_call_per_stepping_iteration(
        self, algorithm, noise, n, epsilon, max_iter, idle, record, rng, monkeypatch
    ):
        # The benchmark counts standard_fw_step / away_fw_step calls inside
        # run against sum T_eps: exactly one call per stepping iteration,
        # an idle away step (DegenerateDirection) included, recorded or not.
        # The counters of a run without records equal what the records of
        # the same run (the same rng stream) give.
        calls = []
        for name in ("standard_fw_step", "away_fw_step"):
            step = getattr(frank_wolfe, name)

            def counted(*a, _step=step, **k):
                calls.append("idle")  # stays unless the step returns
                active, info = _step(*a, **k)
                calls[-1] = info["step_type"]
                return active, info

            monkeypatch.setattr(frank_wolfe, name, counted)
        if idle:
            monkeypatch.setattr(
                frank_wolfe, "noise_mean_stream", lambda *a: itertools.repeat(np.full(3, 100.0))
            )
        obj, P = self.problem()
        consts = compute_constants(obj, P, epsilon)
        twin = copy.deepcopy(rng)
        trace = run(algorithm, obj, P, consts, noise, n, max_iter, rng, record=record)
        step_calls = calls[:]
        assert (trace.records is None) == (not record)
        recorded = trace if record else run(
            algorithm, obj, P, consts, noise, n, max_iter, twin, record=True
        )
        steps = [r.step_type for r in recorded.records if r.step_type is not None]
        assert steps and ("idle" in steps) == idle
        assert step_calls == steps
        assert trace.n_steps == len(steps) == (max_iter if trace.T_eps is None else trace.T_eps)
        assert trace.good_steps == sum(r.good_event for r in recorded.records[:-1])
        assert (trace.T_eps, trace.total_samples, trace.final_gap) == (
            recorded.T_eps, recorded.total_samples, recorded.final_gap
        )

    @pytest.mark.parametrize(
        "algorithm, noise, n",
        [
            ("standard", NoiseModel.gaussian(0.2, 3), 4097),
            ("away", NoiseModel.rademacher(0.3, 3), 5000),
        ],
    )
    def test_blocked_noise_gives_the_trace_of_one_draw_per_step(
        self, algorithm, noise, n, monkeypatch
    ):
        obj, P = self.problem()
        consts = compute_constants(obj, P, 0.01)
        blocked = run(algorithm, obj, P, consts, noise, n, 2000, np.random.default_rng(8),
                      record=True)

        def one_mean_per_call(noise, n, rng):
            while True:
                yield sample_noise_means(noise, n, (), rng)

        monkeypatch.setattr(frank_wolfe, "noise_mean_stream", one_mean_per_call)
        single = run(algorithm, obj, P, consts, noise, n, 2000, np.random.default_rng(8),
                     record=True)
        assert len(blocked.records) > 2
        assert blocked == single

    def test_max_iter_exhaustion(self):
        obj, P = self.problem()
        trace = run("standard", obj, P, compute_constants(obj, P, 1e-8), None, 0, 3, None,
                    record=True)
        assert trace.T_eps is None and trace.n_steps == 3
        assert trace.records[-1].step_type is None
        assert trace.records[-1].k == 3

    @pytest.mark.parametrize("record", [False, True])
    def test_stochastic_run_counts_samples(self, record, rng):
        obj, P = self.problem()
        noise = NoiseModel.gaussian(0.1, 3)
        consts = compute_constants(obj, P, 0.1)
        twin = copy.deepcopy(rng)
        trace = run(
            "standard", obj, P, consts, noise, 40, 5000, rng, record=record, collect_weights=True,
        )
        assert_weight_rows_valid(P, trace.weights)
        assert len(trace.weights) == trace.n_steps + 1
        recorded = trace if record else run(
            "standard", obj, P, consts, noise, 40, 5000, twin, record=True
        )
        steps = [r for r in recorded.records if r.step_type is not None]
        assert trace.total_samples == 40 * len(steps) == 40 * trace.n_steps
        assert all(r.n_samples == 40 for r in steps)
        assert trace.good_steps == sum(r.good_event for r in steps)
        assert trace.T_eps is not None

    def test_good_event_flag_matches_threshold(self, rng):
        # On the unit simplex D = sqrt 2, so the standard good event is
        # grad_error <= eps / (4 sqrt 2) = 0.0177 at eps = 0.1. Means of
        # n = 48 Gaussian samples at sigma = 0.1 have norms near
        # 0.1 sqrt(3 / 48) = 0.025, so errors fall on both sides of it and
        # some below eps / (2 sqrt 2) = 0.0354, where a threshold of
        # eps / (2D) would call them good.
        obj, P = self.problem()
        epsilon = 0.1
        threshold = epsilon / (4.0 * math.sqrt(2.0))
        noise = NoiseModel.gaussian(0.1, 3)
        trace = run("standard", obj, P, compute_constants(obj, P, epsilon), noise, 48, 200, rng,
                    record=True)
        steps = trace.records[:-1]
        errors = [r.grad_error for r in steps]
        assert any(threshold < e <= 2.0 * threshold for e in errors)
        assert any(e <= threshold for e in errors)
        assert [r.good_event for r in steps] == [e <= threshold for e in errors]
        assert trace.good_steps == sum(r.good_event for r in steps)

    def test_unrecorded_run_memory_does_not_grow_with_max_iter(self):
        # Without records a run keeps O(1) state: the same peak allocation at
        # 2,000 and at 20,000 iterates (records would add ~4.5 MB).
        obj, P = self.problem()
        consts = compute_constants(obj, P, 1e-8)  # too small to reach
        f_star = reference_solution(obj, P).f_star
        peaks = []
        for max_iter in (2_000, 20_000):
            tracemalloc.start()
            try:
                trace = run("standard", obj, P, consts, None, 0, max_iter, None, f_star=f_star)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert trace.T_eps is None and trace.n_steps == max_iter
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024

    def test_rejects_bad_arguments(self):
        obj, P = self.problem()
        with pytest.raises(ValueError):
            run("neither", obj, P, compute_constants(obj, P, 0.1), None, 0, 10, None)
        with pytest.raises(ValueError, match="max_iter must be >= 0, got -1"):
            run("standard", obj, P, compute_constants(obj, P, 0.1), None, 0, -1, None)
        # A cell's epsilon reaches run only through its constants.
        with pytest.raises(ValueError):
            run("standard", obj, P, compute_constants(obj, P, -1.0), None, 0, 10, None)

    @pytest.mark.parametrize("algorithm", ["standard", "away"])
    def test_one_gradient_evaluation_per_step(self, algorithm, rng):
        # One fused value-and-gradient evaluation per iterate: one for each
        # stepping iteration plus one for the stopping iterate; value and
        # gradient are never called on their own.
        obj, P = self.problem()
        ref, consts = reference_solution(obj, P), compute_constants(obj, P, 0.1)
        calls = []
        fused = obj.value_and_gradient
        obj.value_and_gradient = lambda x: calls.append(x) or fused(x)
        obj.value = obj.gradient = lambda x: pytest.fail("separate objective evaluation")
        trace = run(
            algorithm, obj, P, consts, NoiseModel.gaussian(0.1, 3), 40, 5000, rng,
            f_star=ref.f_star,
        )
        assert trace.n_steps > 0
        assert len(calls) == trace.n_steps + 1
