"""Analysis constants of one problem at one epsilon (evaluated with the
theory module's formulas), the per-iteration trace records of a run, and
inequality verifiers for recorded traces."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import theory
from .errors import InvariantViolation, MalformedTrace
from .geometry import Polytope, geometry_constants
from .objectives import QuadraticObjective, max_abs_value


# The step types a record can carry: idle (gamma = 0) is an away step whose
# direction was numerically zero. The stop record has step_type None.
STEP_TYPES = ("fw", "fw_max", "away", "away_drop", "idle")


@dataclass(slots=True)
class IterationRecord:
    k: int
    step_type: str | None  # one of STEP_TYPES, or None on the stop record
    gamma: float
    gamma_max: float
    n_samples: int
    grad_error: float
    good_event: bool
    f_gap: float
    active_size: int
    lyapunov: float


@dataclass
class RunTrace:
    records: list[IterationRecord] | None  # None when the run kept no records
    T_eps: int | None  # None when max_iter was exhausted
    total_samples: int
    final_gap: float
    n_steps: int  # stepping iterations, one per record but the last
    good_steps: int  # those among them with a good event
    # One weight row w per iterate when requested: the iterate is w @ V and
    # its active vertex ids are w.nonzero()
    weights: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class AnalysisConstants:
    """All constants the convergence analysis attaches to one problem at one
    target accuracy epsilon and away-step threshold eps_g."""

    epsilon: float
    eps_g: float
    D: float
    L: float
    mu: float
    M: float
    N: int
    omega: float
    beta1: float
    beta2: float
    nu: float
    delta_S: float
    delta_A: float
    pg_standard: float
    pg_away: float

    def for_algorithm(self, kind: str) -> tuple[float, float]:
        """(delta, p_g) of one algorithm: (delta_S, pg_standard) for
        "standard", (delta_A, pg_away) for "away"."""
        if kind == "standard":
            return self.delta_S, self.pg_standard
        if kind == "away":
            return self.delta_A, self.pg_away
        raise ValueError(f"unknown kind {kind!r}")


def compute_constants(
    obj: QuadraticObjective,
    P: Polytope,
    epsilon: float,
    eps_g: float | None = None,
) -> AnalysisConstants:
    """Evaluate every analysis constant for the given problem: D, N and omega
    from geometry_constants, L and mu from the objective, M = max(max_X |f|, 1)
    by vertex scan, and the rest (eps_g's default included) by the theory
    module's formulas."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    geo = geometry_constants(P)
    D, N, omega = geo.D, geo.N, geo.omega
    L, mu = obj.L, obj.mu
    M = max(max_abs_value(obj, P), 1.0)
    beta1, delta_S, pg_standard = theory.standard_constants(epsilon, L, D, M)
    eps_g, beta2, nu, delta_A, pg_away = theory.away_constants(
        epsilon, eps_g, L, mu, D, N, omega, M)
    if not (0.0 < pg_standard <= 1.0 and 0.0 < pg_away <= 1.0):
        raise InvariantViolation(f"p_g bounds {pg_standard}, {pg_away} outside (0, 1]")

    return AnalysisConstants(
        epsilon=epsilon, eps_g=eps_g, D=D, L=L, mu=mu, M=M, N=N, omega=omega,
        beta1=beta1, beta2=beta2, nu=nu, delta_S=delta_S, delta_A=delta_A,
        pg_standard=pg_standard, pg_away=pg_away,
    )


@dataclass
class TraceReport:
    """Per-iteration inequality checks on one recorded trace."""

    kind: str
    checked: int = 0
    violations: list = field(default_factory=list)
    worst_margin: float = -math.inf  # most positive violation margin seen
    mean_phi_ratio: float = float("nan")
    phi_ratio_bound: float = float("nan")

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        out = asdict(self)
        out["passed"] = self.passed
        return out


def verify_trace(trace, consts: AnalysisConstants, kind: str) -> TraceReport:
    """Check the stopping rule, and theory.step_margin's decrease or
    contraction inequality on every good pre-stopping iteration of a trace.

    Stopping: only the last record may have f_gap <= eps, and it does iff
    T_eps is set; a record that breaks this is a violation with "rule":
    "stopping" and margin |f_gap - eps|. Also reports the empirical mean of
    the Lyapunov ratio over good iterations against exp(-delta).
    """
    delta, _ = consts.for_algorithm(kind)
    records = getattr(trace, "records", None)
    if records is None or not all(isinstance(rec, IterationRecord) for rec in records):
        raise MalformedTrace("trace records must be a list of IterationRecord")
    report = TraceReport(kind=kind)
    report.phi_ratio_bound = math.exp(-delta)
    ratios = []
    stop = trace.T_eps if trace.T_eps is not None else len(records)
    for rec, nxt in zip(records[:-1], records[1:]):
        if rec.k >= stop or not rec.good_event:
            continue
        ratios.append(nxt.lyapunov / rec.lyapunov)
        margin, tol = theory.step_margin(kind, rec.step_type, rec.f_gap, nxt.f_gap,
                                         consts.epsilon, consts.beta1, consts.beta2)
        if margin > tol:
            report.violations.append(
                {"k": rec.k, "step_type": rec.step_type, "margin": margin}
            )
        report.worst_margin = max(report.worst_margin, margin)
    report.checked = len(ratios)
    if ratios:
        report.mean_phi_ratio = sum(ratios) / len(ratios)
    eps, last = consts.epsilon, len(records) - 1
    for i, rec in enumerate(records):
        if (rec.f_gap <= eps) != (i == last and trace.T_eps is not None):
            report.violations.append({"k": rec.k, "step_type": rec.step_type,
                                      "margin": abs(rec.f_gap - eps), "rule": "stopping"})
    return report
