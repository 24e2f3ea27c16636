"""Analysis constants (beta1, beta2, nu, deltas, good-event probability
lower bounds, Lyapunov values), the per-iteration trace records of a run,
and inequality verifiers for recorded traces."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import EpsGOutOfRange, InvariantViolation, MalformedTrace
from .geometry import Polytope, geometry_constants
from .objectives import QuadraticObjective, max_abs_value


# The step types a record can carry: idle (gamma = 0) is an away step whose
# direction was numerically zero. The stop record has step_type None.
STEP_TYPES = ("fw", "fw_max", "away", "away_drop", "idle")


@dataclass
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
    records: list[IterationRecord]
    T_eps: int | None  # None when max_iter was exhausted
    total_samples: int
    final_gap: float
    # One weight row w per record when requested: the iterate is w @ V and
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


def compute_constants(
    obj: QuadraticObjective,
    P: Polytope,
    epsilon: float,
    eps_g: float | None = None,
) -> AnalysisConstants:
    """Evaluate every analysis constant for the given problem.

    beta1 = min(eps/(8LD^2), 1/4); beta2 is the smaller of the maximal-step
    and interior-step contraction coefficients; nu, delta_A follow the
    closed-form parameter choice; the p_g values are the good-event
    probability lower bounds for the two algorithms. M is the bound
    max(max_X |f|, 1), computed by vertex scan.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    geo = geometry_constants(P)
    D, N, omega = geo.D, geo.N, geo.omega
    if eps_g is None:
        eps_g = 1.0 / (8.0 * D)
    if not 0.0 < eps_g < 1.0 / (4.0 * D):
        raise EpsGOutOfRange("eps_g", f"{eps_g} outside (0, 1/(4D)) = (0, {1.0 / (4.0 * D)})")
    L, mu = obj.L, obj.mu
    M = max(max_abs_value(obj, P), 1.0)

    beta1 = min(epsilon / (8.0 * L * D * D), 0.25)
    half_minus = 0.5 - 2.0 * eps_g * D
    beta2 = min(
        half_minus / (1.0 + 2.0 * eps_g * D),
        (omega / N) ** 2 * mu * half_minus / (8.0 * L * D * D * (2.0 * eps_g * D + 1.0) ** 2),
    )
    nu = 1.0 / (1.0 + beta2 * epsilon / 2.0)
    delta_S = beta1 * epsilon / 2.0
    delta_A = (beta2 * epsilon / 2.0) / (2.0 + beta2 * epsilon)
    if not 0.0 < delta_A < min(nu * beta2 * epsilon - 1.0 + nu, 1.0 - nu) + 1e-15:
        raise InvariantViolation(f"delta_A={delta_A} outside its admissible interval")

    pg_standard = _exp_ratio(2.0 * M, -delta_S, -beta1 * epsilon)
    pg_away = _exp_ratio(
        2.0 * M * nu + 1.0 - nu, -delta_A, -nu * beta2 * epsilon + 1.0 - nu, -(1.0 - nu)
    )
    if not (0.0 < pg_standard <= 1.0 and 0.0 < pg_away <= 1.0):
        raise InvariantViolation(f"p_g bounds {pg_standard}, {pg_away} outside (0, 1]")

    return AnalysisConstants(
        epsilon=epsilon, eps_g=eps_g, D=D, L=L, mu=mu, M=M, N=N, omega=omega,
        beta1=beta1, beta2=beta2, nu=nu, delta_S=delta_S, delta_A=delta_A,
        pg_standard=pg_standard, pg_away=pg_away,
    )


def _exp_ratio(top: float, num: float, *den: float) -> float:
    """(e^top - e^num) / (e^top - e^max(den)) through expm1, which keeps the
    differences accurate when the exponents underflow (at tiny epsilon the
    ratio rounds to exactly 1.0); divided through by e^top where it overflows."""
    try:
        t = math.expm1(top)
    except OverflowError:
        return math.expm1(num - top) / max(math.expm1(x - top) for x in den)
    return (t - math.expm1(num)) / (t - max(math.expm1(x) for x in den))


def lyapunov(kind: str, f_gap: float, active_size: int, consts: AnalysisConstants) -> float:
    """Exponential potential: exp(gap) for the standard algorithm,
    exp(nu * gap + (1 - nu) * active_size) for the away-step algorithm. Gaps
    down to -1e-12 are rounding noise around f*; below that they raise."""
    if not f_gap >= -1e-12:
        raise InvariantViolation(f"negative optimality gap {f_gap}")
    if kind == "standard":
        return math.exp(f_gap)
    if kind == "away":
        if active_size < 1:
            raise ValueError("active_size must be >= 1")
        return math.exp(consts.nu * f_gap + (1.0 - consts.nu) * active_size)
    raise ValueError(f"unknown kind {kind!r}")


@dataclass
class TraceReport:
    """Per-iteration inequality checks on one recorded trace."""

    kind: str
    checked: int = 0
    violations: list = field(default_factory=list)
    worst_margin: float = -math.inf  # most positive violation margin seen
    mean_phi_ratio: float = float("nan")
    phi_ratio_bound: float = float("nan")
    good_iterations: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        out = asdict(self)
        out["passed"] = self.passed
        return out


def verify_trace(trace, consts: AnalysisConstants, kind: str) -> TraceReport:
    """Check the stopping rule, and the per-iteration decrease/contraction
    inequalities on every good pre-stopping iteration of a trace.

    standard: f(x_{k+1}) - f(x_k) <= -beta1 * eps + tol
    away, non-drop: gap_{k+1} <= (1 - beta2) * gap_k + tol
    away, drop: gap_{k+1} <= gap_k + 1e-12
    with tol = 1e-9 * max(1, |gap_k|). Stopping: only the last record may
    have f_gap <= eps, and it does iff T_eps is set; a record that breaks
    this is a violation with "rule": "stopping" and margin |f_gap - eps|.
    Also reports the empirical mean of the Lyapunov ratio over good
    iterations against exp(-delta).
    """
    if kind not in ("standard", "away"):
        raise ValueError(f"unknown kind {kind!r}")
    records = getattr(trace, "records", None)
    if records is None or not all(isinstance(rec, IterationRecord) for rec in records):
        raise MalformedTrace("trace records must be a list of IterationRecord")
    report = TraceReport(kind=kind)
    delta = consts.delta_S if kind == "standard" else consts.delta_A
    report.phi_ratio_bound = math.exp(-delta)
    ratios = []
    stop = trace.T_eps if trace.T_eps is not None else len(records)
    for rec, nxt in zip(records[:-1], records[1:]):
        if rec.k >= stop or not rec.good_event:
            continue
        report.good_iterations += 1
        ratios.append(nxt.lyapunov / rec.lyapunov)
        tol = 1e-9 * max(1.0, abs(rec.f_gap))
        report.checked += 1
        if kind == "standard":
            margin = (nxt.f_gap - rec.f_gap) - (-consts.beta1 * consts.epsilon)
        elif rec.step_type == "away_drop":
            margin = nxt.f_gap - rec.f_gap
            tol = 1e-12
        else:
            margin = nxt.f_gap - (1.0 - consts.beta2) * rec.f_gap
        if margin > tol:
            report.violations.append(
                {"k": rec.k, "step_type": rec.step_type, "margin": margin}
            )
        report.worst_margin = max(report.worst_margin, margin)
    if ratios:
        report.mean_phi_ratio = sum(ratios) / len(ratios)
    eps, last = consts.epsilon, len(records) - 1
    for i, rec in enumerate(records):
        if (rec.f_gap <= eps) != (i == last and trace.T_eps is not None):
            report.violations.append({"k": rec.k, "step_type": rec.step_type,
                                      "margin": abs(rec.f_gap - eps), "rule": "stopping"})
    return report
