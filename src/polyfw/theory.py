"""The formulas of the convergence analysis, each stated once, as pure
functions of floats.

The "standard algorithm" is Frank-Wolfe with a fixed step size, the "away
algorithm" away-step Frank-Wolfe. A problem enters through the target
accuracy epsilon, the objective's curvature constants L and mu, the bound
M = max(max_X |f|, 1), and the polytope's diameter D, vertex count N and
omega = zeta / phi (geometry.geometry_constants), on which the away-step
constants rest (Lacoste-Julien & Jaggi 2015). A gap is f(x) - f*.
"""

import math

from .errors import ConfigError, EpsGOutOfRange, InvariantViolation


def standard_constants(epsilon: float, L: float, D: float, M: float) -> tuple[float, float, float]:
    """Standard algorithm, (beta1, delta_S, p_g):
    beta1 = min(eps / (8 L D^2), 1/4), the decrease a good step guarantees,
    in units of eps;
    delta_S = beta1 eps / 2, the Lyapunov potential's rate of decrease;
    p_g = (e^(2M) - e^(-delta_S)) / (e^(2M) - e^(-beta1 eps)), the lower
    bound on the good-event probability that the sample sizes must reach."""
    beta1 = min(epsilon / (8.0 * L * D * D), 0.25)
    delta_S = beta1 * epsilon / 2.0
    return beta1, delta_S, _exp_ratio(2.0 * M, -delta_S, -beta1 * epsilon)


def away_constants(
    epsilon: float, eps_g: float | None, L: float, mu: float, D: float, N: int, omega: float,
    M: float,
) -> tuple[float, float, float, float, float]:
    """Away algorithm, (eps_g, beta2, nu, delta_A, p_g), with h = 1/2 - 2 eps_g D:
    eps_g = 1/(8D) unless given, the good-event coefficient, which must lie
    in (0, 1/(4D)) (else EpsGOutOfRange);
    beta2 = min(h / (1 + 2 eps_g D), (omega/N)^2 mu h / (8 L D^2 (2 eps_g D + 1)^2)),
    the gap contraction a good non-drop step guarantees;
    nu = 1 / (1 + beta2 eps / 2), the gap's weight in the Lyapunov potential;
    delta_A = (beta2 eps / 2) / (2 + beta2 eps), the potential's rate of
    decrease, which must lie in (0, min(nu beta2 eps - 1 + nu, 1 - nu));
    p_g = (e^(2M nu + 1 - nu) - e^(-delta_A))
          / (e^(2M nu + 1 - nu) - e^(max(-nu beta2 eps + 1 - nu, -(1 - nu)))),
    the lower bound on the good-event probability.
    A delta_A that underflows to 0 is a ConfigError naming epsilon."""
    if eps_g is None:
        eps_g = 1.0 / (8.0 * D)
    if not 0.0 < eps_g < 1.0 / (4.0 * D):
        raise EpsGOutOfRange("eps_g", f"{eps_g} outside (0, 1/(4D)) = (0, {1.0 / (4.0 * D)})")
    half_minus = 0.5 - 2.0 * eps_g * D
    beta2 = min(
        half_minus / (1.0 + 2.0 * eps_g * D),
        (omega / N) ** 2 * mu * half_minus / (8.0 * L * D * D * (2.0 * eps_g * D + 1.0) ** 2),
    )
    nu = 1.0 / (1.0 + beta2 * epsilon / 2.0)
    delta_A = (beta2 * epsilon / 2.0) / (2.0 + beta2 * epsilon)
    if delta_A == 0.0:
        raise ConfigError("epsilon", f"{epsilon} is so small that delta_A underflows to 0")
    if not 0.0 < delta_A < min(nu * beta2 * epsilon - 1.0 + nu, 1.0 - nu) + 1e-15:
        raise InvariantViolation(f"delta_A={delta_A} outside its admissible interval")
    return eps_g, beta2, nu, delta_A, _exp_ratio(
        2.0 * M * nu + 1.0 - nu, -delta_A, -nu * beta2 * epsilon + 1.0 - nu, -(1.0 - nu))


def _exp_ratio(top: float, num: float, *den: float) -> float:
    """(e^top - e^num) / (e^top - e^max(den)) through expm1, which keeps the
    differences accurate when the exponents underflow (at tiny epsilon the
    ratio rounds to exactly 1.0); divided through by e^top where it overflows."""
    try:
        t = math.expm1(top)
    except OverflowError:
        return math.expm1(num - top) / max(math.expm1(x - top) for x in den)
    return (t - math.expm1(num)) / (t - max(math.expm1(x) for x in den))


def standard_step_size(epsilon: float, L: float, D: float) -> float:
    """Standard algorithm, fixed step size: min(1, eps / (2 L D^2))."""
    return min(1.0, epsilon / (2.0 * L * D * D))


def standard_good_threshold(epsilon: float, D: float) -> float:
    """Standard algorithm, good-event test: a step is good when its gradient
    error ||g - grad f(x)|| is at most eps / (4D)."""
    return epsilon / (4.0 * D)


def away_good_event(grad_error: float, eps_g: float, g_vs: float) -> bool:
    """Away algorithm, good-event test: ||g - grad f(x)|| <= eps_g g^T(v - s),
    with s the FW vertex and v the away vertex the estimate g picked."""
    return grad_error <= eps_g * g_vs


def subgaussian_c1(mu: float, eps_g: float, D: float, N: int, omega: float) -> float:
    """Away algorithm, sub-Gaussian sample size's threshold coefficient c1,
    with the error threshold s^2 = c1 eps: (omega/N)^2 mu / (2 (2 eps_g D + 1)^2)."""
    return (omega / N) ** 2 * mu / (2.0 * (2.0 * eps_g * D + 1.0) ** 2)


# The sample sizes are real numbers; the planner rounds them up. Squares are
# products: ** raises OverflowError past 1e154 where a product overflows to inf.


def bounded_variance_standard_n(V_g: float, p_g: float, epsilon: float, D: float) -> float:
    """Standard algorithm, bounded-variance sample size, for gradient
    draws with E||G - grad f||^2 <= V_g: 16 V_g D^2 / (eps^2 (1 - p_g))."""
    return 16.0 * V_g * (D * D) / (epsilon * epsilon * (1.0 - p_g))


def bounded_variance_away_n(
    V_g: float, p_g: float, epsilon: float, eps_g: float, D: float, N: int, omega: float
) -> float:
    """Away algorithm, bounded-variance sample size:
    2 V_g (2 eps_g D + 1)^2 (N/omega)^2 / ((1 - p_g) eps)."""
    return 2.0 * V_g * (2.0 * eps_g * D + 1.0) ** 2 / ((1.0 - p_g) * epsilon) * (N / omega) ** 2


def subgaussian_standard_n(
    c: float, d: int, epsilon: float, D: float, M: float, beta1: float
) -> float:
    """Standard algorithm, sub-Gaussian sample size, for draws whose mean
    of n has tails 2d exp(-n c s^2):
    (16 D^2 / (c eps^2)) (2M + 2 + log 2d + log(1/(beta1 eps)))."""
    front = 16.0 * (D * D) / (c * (epsilon * epsilon))
    return front * (2.0 * M + 2.0 + math.log(2.0 * d)) + front * math.log(1.0 / (beta1 * epsilon))


def subgaussian_away_n(
    c: float, d: int, epsilon: float, M: float, beta2: float, c1: float
) -> float:
    """Away algorithm, sub-Gaussian sample size:
    (2M + 2 + log 2d - log(beta2 eps)) / (c c1 eps)."""
    return (2.0 * M + 2.0 + math.log(2.0 * d) - math.log(beta2 * epsilon)) / (c * c1 * epsilon)


def check_gap(f_gap: float) -> None:
    """The potentials' domain: gaps down to -1e-12 are rounding noise around
    f*; below that they raise InvariantViolation."""
    if not f_gap >= -1e-12:
        raise InvariantViolation(f"negative optimality gap {f_gap}")


def away_log_potential(nu: float, gap: float, active_size: int) -> float:
    """Away algorithm, log of the Lyapunov potential at an iterate whose
    active set has active_size vertices: nu gap + (1 - nu) active_size."""
    return nu * gap + (1.0 - nu) * active_size


def lyapunov(kind: str, f_gap: float, active_size: int, nu: float) -> float:
    """Lyapunov potential of one iterate: e^gap for the standard algorithm
    ("standard"), e^away_log_potential for the away algorithm ("away"), at
    a gap that passes check_gap."""
    check_gap(f_gap)
    if kind == "standard":
        return math.exp(f_gap)
    if kind == "away":
        if active_size < 1:
            raise ValueError("active_size must be >= 1")
        return math.exp(away_log_potential(nu, f_gap, active_size))
    raise ValueError(f"unknown kind {kind!r}")


def bound_mean_T(
    kind: str, gap0: float, epsilon: float, L: float, D: float, nu: float, beta2: float
) -> float:
    """Supermartingale bound on E[T_eps] from the initial gap gap0:
    standard algorithm, 2 gap0 max(8 L D^2 / eps^2, 4 / eps);
    away algorithm, log Phi_0 (2 + 4 / (beta2 eps)), with log Phi_0 the away
    log-potential of the singleton starting set.
    At an extreme epsilon the bound overflows to inf (or underflows to 0)."""
    if kind == "standard":
        eps2 = epsilon * epsilon
        # eps^2 that underflowed to 0 leaves 8 L D^2 / eps^2 above every float.
        quad = 8.0 * L * (D * D) / eps2 if eps2 else math.inf
        return 2.0 * gap0 * max(quad, 4.0 / epsilon)
    return away_log_potential(nu, gap0, 1) * (2.0 + 4.0 / (beta2 * epsilon))


def mgf_rate(delta: float) -> float:
    """Both algorithms, the rate r = delta / 2 of the stopping time's moment
    generating function E[e^(r T_eps)] that summary.json's emp_mgf estimates,
    with delta the algorithm's delta_S or delta_A."""
    return 0.5 * delta


def step_margin(
    kind: str, step_type: str | None, gap: float, next_gap: float, epsilon: float,
    beta1: float, beta2: float,
) -> tuple[float, float]:
    """The inequality a good step before the stopping time satisfies, from
    gap to next_gap, as (margin, tol): the step breaks it when margin > tol.
    standard algorithm, decrease:     next_gap - gap <= -beta1 eps
    away algorithm, contraction:      next_gap <= (1 - beta2) gap
    away algorithm, drop step:        next_gap <= gap
    tol = 1e-9 max(1, |gap|), and 1e-12 on a drop step ("away_drop")."""
    tol = 1e-9 * max(1.0, abs(gap))
    if kind == "standard":
        return (next_gap - gap) - (-beta1 * epsilon), tol
    if step_type == "away_drop":
        return next_gap - gap, 1e-12
    return next_gap - (1.0 - beta2) * gap, tol
