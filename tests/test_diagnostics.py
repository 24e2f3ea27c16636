import dataclasses
import math

import numpy as np
import pytest

from polyfw.diagnostics import IterationRecord, RunTrace, compute_constants, lyapunov, verify_trace
from polyfw.errors import DegeneratePolytope, EpsGOutOfRange, InvariantViolation, MalformedTrace
from polyfw.frank_wolfe import run
from polyfw.geometry import Polytope, geometry_constants, unit_box, unit_simplex
from polyfw.objectives import QuadraticObjective


def interval_problem():
    """{0 <= x <= 1} with f(x) = x^2 / 2: L = mu = D = 1, omega = 1, N = 2."""
    return QuadraticObjective([1.0], z=[0.0]), unit_box(1)


class TestComputeConstants:
    def test_beta1_below_cap(self):
        obj, P = interval_problem()
        c = compute_constants(obj, P, epsilon=1.0)
        assert c.beta1 == pytest.approx(1.0 / 8.0)
        assert c.delta_S == pytest.approx(1.0 / 16.0)

    def test_beta1_hits_cap(self):
        obj, P = interval_problem()
        c = compute_constants(obj, P, epsilon=4.0)
        assert c.beta1 == 0.25

    def test_beta1_doubles_with_epsilon_below_cap(self):
        obj, P = interval_problem()
        c1 = compute_constants(obj, P, epsilon=0.5)
        c2 = compute_constants(obj, P, epsilon=1.0)
        assert c2.beta1 == pytest.approx(2.0 * c1.beta1)
        # delta_S = beta1 * eps / 2 is quadratic in eps below the cap.
        assert c2.delta_S == pytest.approx(4.0 * c1.delta_S)

    def test_beta2_hand_value(self):
        obj, P = interval_problem()
        c = compute_constants(obj, P, epsilon=1.0)  # eps_g defaults to 1/8
        half_minus = 0.5 - 2.0 * 0.125
        term1 = half_minus / (1.0 + 2.0 * 0.125)
        term2 = (1.0 / 2.0) ** 2 * 1.0 * half_minus / (8.0 * (1.0 + 2.0 * 0.125) ** 2)
        assert c.beta2 == pytest.approx(min(term1, term2))
        assert c.beta2 == pytest.approx(0.005)

    def test_nu_and_delta_identities(self):
        obj, P = interval_problem()
        for eps in (0.05, 0.2, 1.0):
            c = compute_constants(obj, P, epsilon=eps)
            assert c.nu == pytest.approx(1.0 / (1.0 + c.beta2 * eps / 2.0))
            # nu*beta2*eps - 1 + nu collapses to 1 - nu for this nu.
            assert c.nu * c.beta2 * eps - 1.0 + c.nu == pytest.approx(1.0 - c.nu)
            assert 0.0 < c.delta_A < 1.0 - c.nu + 1e-15

    def test_pg_in_unit_interval_over_grid(self):
        obj = QuadraticObjective([1.0, 3.0], z=[0.3, 0.1])
        P = unit_simplex(2)
        for eps in (1e-3, 1e-2, 0.1, 0.5, 1.0):
            c = compute_constants(obj, P, eps)
            assert 0.0 < c.pg_standard <= 1.0
            assert 0.0 < c.pg_away <= 1.0

    def test_geometry_and_curvature_passthrough(self):
        obj = QuadraticObjective([1.0, 3.0], z=[0.3, 0.1])
        P = unit_simplex(2)
        geo = geometry_constants(P)
        c = compute_constants(obj, P, 0.1)
        assert (c.D, c.N, c.omega) == (geo.D, geo.N, geo.omega)
        assert (c.L, c.mu) == (3.0, 1.0)
        assert c.M >= 1.0

    def test_eps_g_out_of_range(self):
        obj, P = interval_problem()
        with pytest.raises(EpsGOutOfRange):
            compute_constants(obj, P, 0.1, eps_g=0.25)  # = 1/(4D)
        with pytest.raises(EpsGOutOfRange):
            compute_constants(obj, P, 0.1, eps_g=0.0)

    def test_rejects_nonpositive_epsilon(self):
        obj, P = interval_problem()
        with pytest.raises(ValueError):
            compute_constants(obj, P, 0.0)

    def test_large_objective_bound_does_not_overflow(self):
        # M = f(0) = 1400, so e^{2M} overflows a float.
        obj = QuadraticObjective([1.0, 2.0, 4.0], z=[20.0, 20.0, 20.0])
        c = compute_constants(obj, unit_simplex(3), 0.1)
        assert c.M == 1400.0
        assert 0.0 < c.pg_standard <= 1.0 and 0.0 < c.pg_away <= 1.0

    def test_single_vertex_polytope_is_rejected(self):
        # One vertex (0, 0) while the row x + y <= 1 is never active: D = 0.
        P = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [0, 0, 0, 0, 1])
        obj = QuadraticObjective([1.0, 1.0], z=[0.5, 0.5])
        with pytest.raises(DegeneratePolytope):
            compute_constants(obj, P, 0.1)


class TestLyapunov:
    def test_values(self):
        obj, P = interval_problem()
        c = compute_constants(obj, P, 1.0)
        assert lyapunov("standard", 0.0, 1, c) == 1.0
        assert lyapunov("standard", 2.0, 1, c) == pytest.approx(math.e**2)
        assert lyapunov("away", 0.0, 1, c) == pytest.approx(math.exp(1.0 - c.nu))
        assert lyapunov("away", 1.0, 2, c) == pytest.approx(
            math.exp(c.nu + 2.0 * (1.0 - c.nu))
        )

    def test_rejects_bad_inputs(self):
        obj, P = interval_problem()
        c = compute_constants(obj, P, 1.0)
        with pytest.raises(ValueError):
            lyapunov("standard", -0.1, 1, c)
        with pytest.raises(ValueError):
            lyapunov("away", 0.1, 0, c)
        with pytest.raises(ValueError):
            lyapunov("momentum", 0.1, 1, c)

    @pytest.mark.parametrize("kind", ["standard", "away"])
    def test_gap_floor(self, kind):
        obj, P = interval_problem()
        c = compute_constants(obj, P, 1.0)
        assert lyapunov(kind, -1e-13, 1, c) == pytest.approx(lyapunov(kind, 0.0, 1, c))
        assert lyapunov(kind, -1e-12, 1, c) == pytest.approx(lyapunov(kind, 0.0, 1, c))
        for gap in (-1.1e-12, float("nan")):
            with pytest.raises(InvariantViolation):
                lyapunov(kind, gap, 1, c)


def record(k, step_type, f_gap, lyap, good=True):
    return IterationRecord(
        k=k, step_type=step_type, gamma=0.1, gamma_max=1.0, n_samples=0,
        grad_error=0.0, good_event=good, f_gap=f_gap, active_size=1, lyapunov=lyap,
    )


class TestVerifyTrace:
    def exact_trace(self, algorithm, epsilon):
        obj = QuadraticObjective([1.0, 2.0, 4.0], z=[0.6, 0.3, 0.2])
        P = unit_simplex(3)
        c = compute_constants(obj, P, epsilon)
        return run(algorithm, obj, P, c, None, 0, 10_000, None, record=True), c

    def test_exact_standard_run_has_no_violations(self):
        trace, c = self.exact_trace("standard", 0.05)
        rep = verify_trace(trace, c, "standard")
        assert rep.passed and rep.checked > 0
        assert rep.worst_margin <= 0.0
        assert rep.mean_phi_ratio <= rep.phi_ratio_bound + 1e-12

    def test_exact_away_run_has_no_violations(self):
        trace, c = self.exact_trace("away", 0.05)
        rep = verify_trace(trace, c, "away")
        assert rep.passed and rep.checked > 0
        assert rep.mean_phi_ratio <= rep.phi_ratio_bound + 1e-12

    def test_detects_planted_standard_violation(self):
        obj, P = interval_problem()
        c = compute_constants(obj, P, 1.0)  # required decrease beta1*eps = 1/8
        trace = RunTrace(
            records=[
                record(0, "fw", 2.0, math.exp(2.0)),
                record(1, None, 1.95, math.exp(1.95)),  # only 0.05 decrease
            ],
            T_eps=None, total_samples=0, final_gap=1.95, n_steps=1, good_steps=1,
        )
        rep = verify_trace(trace, c, "standard")
        assert not rep.passed and len(rep.violations) == 1
        assert rep.violations[0]["k"] == 0
        assert rep.violations[0]["margin"] == pytest.approx(0.075)

    def test_detects_planted_drop_increase(self):
        obj, P = interval_problem()
        c = compute_constants(obj, P, 1.0)
        trace = RunTrace(
            records=[
                record(0, "away_drop", 2.0, math.exp(2.0)),
                record(1, None, 2.0 + 1e-6, math.exp(2.0 + 1e-6)),
            ],
            T_eps=None, total_samples=0, final_gap=2.0 + 1e-6, n_steps=1, good_steps=1,
        )
        rep = verify_trace(trace, c, "away")
        assert not rep.passed and len(rep.violations) == 1
        assert rep.violations[0]["step_type"] == "away_drop"

    @staticmethod
    def one_step(kind, step_type, gap, next_gap):
        """verify_trace's report on a single good step from gap to next_gap on
        the interval at epsilon 1, where beta1 = 1/8 and beta2 = 1/200."""
        obj, P = interval_problem()
        trace = RunTrace(
            records=[
                record(0, step_type, gap, math.exp(gap)),
                record(1, None, next_gap, math.exp(next_gap)),
            ],
            T_eps=None, total_samples=0, final_gap=next_gap, n_steps=1, good_steps=1,
        )
        return verify_trace(trace, compute_constants(obj, P, 1.0), kind)

    @pytest.mark.parametrize("kind, bound", [("standard", 2.0 - 1 / 8), ("away", 2.0 * 0.995)])
    def test_tolerance_is_1e_9_relative_to_the_gap(self, kind, bound):
        # From gap 2 the tolerance is 2e-9: a margin of 1.5e-9 passes, one of
        # 1e-6 is a violation.
        inside = self.one_step(kind, "fw", 2.0, bound + 1.5e-9)
        assert inside.passed and inside.checked == 1
        assert inside.worst_margin == pytest.approx(1.5e-9, rel=1e-3)
        outside = self.one_step(kind, "fw", 2.0, bound + 1e-6)
        assert not outside.passed and len(outside.violations) == 1
        assert outside.violations[0]["margin"] == pytest.approx(1e-6, rel=1e-6)

    def test_away_contraction_is_by_the_full_beta2(self):
        # From gap 2 the next gap must be <= (1 - beta2) * 2 = 1.99. 1.9925
        # lies above that and below the weaker (1 - beta2/2) * 2 = 1.995.
        rep = self.one_step("away", "away", 2.0, 1.9925)
        assert not rep.passed and rep.violations[0]["margin"] == pytest.approx(0.0025)
        rep = self.one_step("away", "away", 2.0, 1.99)
        assert rep.passed and rep.checked == 1

    def test_bad_iterations_are_skipped(self):
        obj, P = interval_problem()
        c = compute_constants(obj, P, 1.0)
        trace = RunTrace(
            records=[
                record(0, "fw", 2.0, math.exp(2.0), good=False),  # no decrease, bad
                record(1, None, 2.0, math.exp(2.0)),
            ],
            T_eps=None, total_samples=0, final_gap=2.0, n_steps=1, good_steps=0,
        )
        rep = verify_trace(trace, c, "standard")
        assert rep.passed and rep.checked == 0

    def test_stopping_rule_is_checked_against_epsilon(self):
        trace, c = self.exact_trace("away", 0.1)
        gaps = [rec.f_gap for rec in trace.records]
        last = trace.records[-1].k
        assert verify_trace(trace, c, "away").passed and len(gaps) >= 3

        def stopping_violations(trace, epsilon):
            rep = verify_trace(trace, dataclasses.replace(c, epsilon=epsilon), "away")
            return [v["k"] for v in rep.violations if v.get("rule") == "stopping"]

        # T_eps null although the last record reached epsilon.
        assert stopping_violations(dataclasses.replace(trace, T_eps=None), 0.1) == [last]
        # T_eps set although no record reached epsilon.
        assert stopping_violations(trace, gaps[-1] / 10) == [last]
        # Records before the last already reached epsilon.
        assert stopping_violations(trace, gaps[-3]) == [last - 2, last - 1]

    def test_malformed_traces(self):
        obj, P = interval_problem()
        c = compute_constants(obj, P, 1.0)
        with pytest.raises(MalformedTrace):
            verify_trace(object(), c, "standard")
        bad = RunTrace(
            records=[record(0, "fw", 2.0, 1.0), "not a record"],
            T_eps=None, total_samples=0, final_gap=2.0, n_steps=1, good_steps=1,
        )
        with pytest.raises(MalformedTrace):
            verify_trace(bad, c, "standard")
        with pytest.raises(ValueError):
            verify_trace(bad, c, "sideways")

    def test_refuses_a_run_that_kept_no_records(self):
        # A default run keeps counters only: there is nothing to check, and
        # verify_trace must not report that nothing as a pass.
        obj = QuadraticObjective([1.0, 2.0, 4.0], z=[0.6, 0.3, 0.2])
        P = unit_simplex(3)
        c = compute_constants(obj, P, 0.05)
        trace = run("standard", obj, P, c, None, 0, 10_000, None)
        assert trace.records is None and trace.T_eps is not None
        with pytest.raises(MalformedTrace):
            verify_trace(trace, c, "standard")

    def test_report_json_roundtrip(self):
        trace, c = self.exact_trace("standard", 0.1)
        rep = verify_trace(trace, c, "standard")
        data = rep.to_json()
        assert data["passed"] is True
        assert data["checked"] == rep.checked
