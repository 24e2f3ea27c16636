"""Noisy gradient oracles: additive noise families, sample-average
estimators, Chebyshev tail bounds, and per-iteration sample-size planning."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import theory
from .config import config_choice, config_fields, config_float, config_int, config_type, need
from .diagnostics import AnalysisConstants
from .errors import ConfigError, MissingParam, NonpositiveS

# noise_mean_stream draws gaussian and rademacher means in blocks of 8, 16, 32,
# ... up to this many: a 4-6 step run takes one block, a long one pays per block.
MEAN_BLOCK_MAX = 256

# Student-t noise is drawn and summed at most this many values at a time, so
# one sample mean takes bounded memory at any n.
DRAW_CHUNK = 2**22

# Student-t means have no closed-form law and cost n * dim draws each; a plan or
# concentration cell that draws more values in one call is a config error (check_draws).
STUDENT_T_MAX_DRAWS = 10**8

# Largest n Generator.binomial takes (its n is a C long); a rademacher n
# above it is a config error (check_draws).
BINOMIAL_MAX_N = 2**63 - 1

NOISE_KINDS = ("gaussian", "student_t", "rademacher")

# Each sampling mode's free inputs; the planners take every other constant from the problem.
PLAN_INPUTS = {
    "exact": (), "fixed": (),
    "bounded_variance_standard": ("V_g", "p_g"), "bounded_variance_away": ("V_g", "p_g"),
    "subgaussian_standard": ("c",), "subgaussian_away": ("c",),
}


@dataclass(frozen=True)
class NoiseModel:
    """Additive i.i.d. coordinate noise on gradient draws.

    V_g is the exact second-moment bound E||G_1 - grad f||^2; rho is the
    vector sub-Gaussian parameter (None for the heavy-tailed student_t
    family, which has bounded variance but is not sub-Gaussian).
    """

    kind: str  # "gaussian" | "student_t" | "rademacher"
    dim: int
    sigma: float = 0.0
    scale: float = 0.0
    dof: int = 0

    @classmethod
    def gaussian(cls, sigma: float, dim: int) -> "NoiseModel":
        return cls(kind="gaussian", dim=dim, sigma=float(sigma))

    @classmethod
    def student_t(cls, dof: int, scale: float, dim: int) -> "NoiseModel":
        if dof < 3:
            raise ValueError("student_t noise requires dof >= 3")
        return cls(kind="student_t", dim=dim, scale=float(scale), dof=int(dof))

    @classmethod
    def rademacher(cls, scale: float, dim: int) -> "NoiseModel":
        return cls(kind="rademacher", dim=dim, scale=float(scale))

    @property
    def V_g(self) -> float:
        if self.kind == "gaussian":
            return self.dim * self.sigma**2
        if self.kind == "student_t":
            return self.dim * self.scale**2 * self.dof / (self.dof - 2)
        return self.dim * self.scale**2

    @property
    def rho(self) -> float | None:
        if self.kind == "gaussian":
            return self.sigma * math.sqrt(self.dim)
        if self.kind == "rademacher":
            return self.scale * math.sqrt(self.dim)
        return None

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """A stack of n noise vectors, shape (n, dim)."""
        shape = (n, self.dim)
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, shape)
        if self.kind == "student_t":
            return self.scale * rng.standard_t(self.dof, shape)
        return self.scale * rng.choice((-1.0, 1.0), shape)


def sample_noise_means(
    noise: NoiseModel, n: int, size: tuple, rng: np.random.Generator
) -> np.ndarray:
    """Sample means of n independent noise vectors, shape size + (dim,).

    Gaussian means come from their exact law N(0, sigma^2/n I) and rademacher
    ones from scale (2B - n)/n with B ~ Binomial(n, 1/2), O(dim) at any n.
    At n <= 64, B is the number of ones in the low n bits of one full-range
    64-bit word (one generator output per value); above, it is drawn with
    rng.binomial, which takes n up to BINOMIAL_MAX_N. Student-t means are
    averages of n drawn vectors, DRAW_CHUNK values at a time in stream
    order; one that spans several chunks is the sum of its chunk sums over n.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    d = noise.dim
    shape = (*size, d)
    if noise.kind == "gaussian":
        return rng.normal(0.0, noise.sigma / math.sqrt(n), shape)
    if noise.kind == "rademacher":
        if n <= 64:
            # The mask comes from a Python int: an np.int64 shift overflows at 64.
            low_bits = np.uint64((1 << int(n)) - 1)
            heads = np.bitwise_count(
                rng.integers(0, 2**64 - 1, shape, dtype=np.uint64, endpoint=True) & low_bits
            )
            # heads is uint8, so 2 * heads - n would wrap; 2.0 makes it float.
            return noise.scale * (2.0 * heads - n) / n
        return noise.scale * (2 * rng.binomial(n, 0.5, shape) - n) / n
    count = math.prod(size)
    means = np.empty((count, d))
    per_chunk = DRAW_CHUNK // (n * d)
    if per_chunk >= 1:
        for start in range(0, count, per_chunk):
            take = min(per_chunk, count - start)
            draws = noise.draw(rng, take * n).reshape(take, n, d)
            means[start : start + take] = draws.mean(axis=1)
    else:
        rows = max(1, DRAW_CHUNK // d)
        for i in range(count):
            total = np.zeros(d)
            for start in range(0, n, rows):
                total += noise.draw(rng, min(rows, n - start)).sum(axis=0)
            means[i] = total / n
    return means.reshape(shape)


def noise_mean_stream(noise: NoiseModel, n: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Endless stream of the values successive sample_noise_means(noise, n,
    (), rng) calls would return, in the same order, bit for bit.

    Gaussian and rademacher means, O(d) each, are drawn in blocks that
    double from 8 up to MEAN_BLOCK_MAX, which takes rng past the last mean
    consumed. Student-t means, which average n * d draws, come one at a
    time: a block would hold n * d values per mean.
    """
    if noise.kind != "student_t":
        size = 8
        while True:
            yield from sample_noise_means(noise, n, (size,), rng)
            size = min(2 * size, MEAN_BLOCK_MAX)
    while True:
        yield sample_noise_means(noise, n, (), rng)


def estimate_gradient(grad, noise: NoiseModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample mean of n independent draws grad + noise around the exact
    gradient grad; n = 1 is a single unbiased draw. See sample_noise_means
    for which noise families cost O(d) and which (student-t) O(n d)."""
    return grad + sample_noise_means(noise, n, (), rng)


def chebyshev_tail_bound(V_g: float, n: int, s: float) -> float:
    """Chebyshev bound on P(||mean of n draws - grad|| > s): min(1, V_g/(n s^2))."""
    if s <= 0:
        raise NonpositiveS(f"threshold s must be positive, got {s}")
    if n < 1:
        raise ValueError("sample size must be >= 1")
    return min(1.0, V_g / (n * s * s))


@dataclass(frozen=True)
class SamplePlan:
    """Per-iteration sample-size rule.

    mode "exact" signals exact-gradient runs (resolves to 0); "fixed" uses
    the given n; the theorem modes take their free inputs (PLAN_INPUTS) in
    params and get n from theorem_sample_size at one epsilon.
    """

    mode: str
    n: int | None = None
    params: dict = field(default_factory=dict)

    @classmethod
    def exact(cls) -> "SamplePlan":
        return cls(mode="exact")

    @classmethod
    def fixed(cls, n: int) -> "SamplePlan":
        return cls(mode="fixed", n=int(n))


def theorem_sample_size(plan: SamplePlan, consts: AnalysisConstants, V_g: float, d: int) -> int:
    """The per-iteration n of a theorem mode at consts.epsilon: the mode's
    sample-size formula in the theory module, rounded up, at least 1.
    plan.params holds the mode's free inputs: V_g defaults to the noise's,
    p_g to the algorithm's (AnalysisConstants.for_algorithm), c is given;
    every other constant comes from consts.

    A theorem p_g that rounds to 1, or an n that is not finite (an extreme
    epsilon), raises ConfigError.
    """
    p, mode = plan.params, plan.mode
    eps, eps_g, D, M, N, omega = (consts.epsilon, consts.eps_g, consts.D, consts.M, consts.N,
                                  consts.omega)
    if mode.startswith("bounded_variance"):
        V_g = p.get("V_g", V_g)
        p_g = p.get("p_g", consts.for_algorithm(mode.rpartition("_")[2])[1])
        if not p_g < 1.0:
            raise ConfigError("sampling.mode", f"{mode} needs p_g < 1, but p_g = {p_g} at "
                              f"M = {M} and epsilon = {eps} (1 - p_g shrinks like exp(-2M) "
                              f"and rounds to 0)")
    try:
        if mode == "bounded_variance_standard":
            raw = theory.bounded_variance_standard_n(V_g, p_g, eps, D)
        elif mode == "bounded_variance_away":
            raw = theory.bounded_variance_away_n(V_g, p_g, eps, eps_g, D, N, omega)
        elif mode == "subgaussian_standard":
            raw = theory.subgaussian_standard_n(p["c"], d, eps, D, M, consts.beta1)
        elif mode == "subgaussian_away":
            c1 = theory.subgaussian_c1(consts.mu, eps_g, D, N, omega)
            raw = theory.subgaussian_away_n(p["c"], d, eps, M, consts.beta2, c1)
        else:
            raise MissingParam(f"mode {mode!r} has no theorem sample size")
    except (ZeroDivisionError, ValueError):
        # A product holding eps underflowed to 0, under a division or a log:
        # the exact n is beyond every float.
        raw = math.inf
    if not math.isfinite(raw):
        raise ConfigError("sampling", f"{mode} plans n = {raw} at epsilon = {eps}, not a "
                          f"finite sample size")
    return max(1, math.ceil(raw))


def plan_sample_size(plan: SamplePlan) -> int:
    """The plan's per-iteration sample size: 0 for "exact", else its n, given
    for "fixed" and set from cell_sample_size for the theorem modes."""
    if plan.mode == "exact":
        return 0
    if plan.n is None or plan.n < 1:
        raise MissingParam(f"mode {plan.mode!r} needs a resolved n >= 1, got {plan.n!r}")
    return int(plan.n)


def cell_sample_size(plan: SamplePlan, consts: AnalysisConstants, noise: NoiseModel) -> int:
    """The per-iteration n of a parsed plan at consts.epsilon, in every mode:
    plan_sample_size's for "exact" and "fixed", else theorem_sample_size's at
    the noise's V_g and dimension; check_draws names sampling.n or sampling."""
    if plan.mode in ("exact", "fixed"):
        return check_draws(noise, plan_sample_size(plan), 1, "sampling.n")
    n = theorem_sample_size(plan, consts, noise.V_g, noise.dim)
    return check_draws(noise, n, 1, "sampling", f" at epsilon = {consts.epsilon}")


def check_draws(noise: NoiseModel, n: int, count: int, path: str, at: str = "") -> int:
    """n, if sample_noise_means can draw count means of n: a rademacher n up to
    BINOMIAL_MAX_N, student-t count * n * d up to STUDENT_T_MAX_DRAWS values
    (gaussian means take any n). Else ConfigError at path, its message ending in at."""
    if noise.kind == "rademacher" and n > BINOMIAL_MAX_N:
        raise ConfigError(path, f"rademacher noise at n = {n} is above the largest binomial "
                          f"n, {BINOMIAL_MAX_N}{at}")
    if noise.kind == "student_t" and count * n * noise.dim > STUDENT_T_MAX_DRAWS:
        raise ConfigError(path, f"student_t noise at n = {n} draws {count * n * noise.dim} "
                          f"values, above the budget of {STUDENT_T_MAX_DRAWS}{at}")
    return n


def calibrate_subgaussian_c(
    noise: NoiseModel,
    rng: np.random.Generator,
    n_grid=(5, 10, 20, 50),
    s_grid=(0.25, 0.5, 1.0),
    trials: int = 10**4,
) -> float:
    """Largest c such that 2d exp(-n c s^2) upper-bounds the observed tail
    frequency of ||sample mean|| on the calibration grid.

    The analysis only asserts existence of c through an absolute constant,
    so a usable value has to be fitted empirically.
    """
    d = noise.dim
    best = math.inf
    for n in n_grid:
        norms = np.linalg.norm(sample_noise_means(noise, n, (trials,), rng), axis=1)
        for s in s_grid:
            freq = float((norms >= s).mean())
            if freq > 0.0:
                best = min(best, math.log(2.0 * d / freq) / (n * s * s))
    if not math.isfinite(best):
        # No exceedances anywhere: the grid only certifies c up to its
        # tightest cell; fall back to that conservative bound.
        best = min(
            math.log(2.0 * d * trials) / (n * s * s) for n in n_grid for s in s_grid
        )
    return best


def noise_from_json(spec: dict, dim: int) -> NoiseModel:
    """Build from {"kind": ..., "sigma"|"scale": ..., "dof": ...}."""
    kind = config_choice("noise.kind", need(spec, "noise", "kind"), NOISE_KINDS)
    key = "sigma" if kind == "gaussian" else "scale"
    config_fields("noise", spec, ("kind", key, "dof") if kind == "student_t" else ("kind", key))
    scale = config_float(f"noise.{key}", need(spec, "noise", key), 0)
    if kind == "gaussian":
        return NoiseModel.gaussian(scale, dim)
    if kind == "student_t":
        dof = config_int("noise.dof", need(spec, "noise", "dof"), 3)
        return NoiseModel.student_t(dof, scale, dim)
    return NoiseModel.rademacher(scale, dim)


def plan_from_json(spec: dict) -> SamplePlan:
    """Build from {"mode": ..., "n": ... (fixed only), "params": {the mode's
    PLAN_INPUTS, each > 0, p_g < 1, c required}}; any other key is an error."""
    mode = config_choice("sampling.mode", need(spec, "sampling", "mode"), PLAN_INPUTS)
    fields = {"exact": ("mode",), "fixed": ("mode", "n")}.get(mode, ("mode", "params"))
    config_fields("sampling", spec, fields)
    if mode == "fixed":
        return SamplePlan.fixed(config_int("sampling.n", need(spec, "sampling", "n"), 1))
    params = config_type("sampling.params", spec.get("params", {}), dict)
    if "eps_g" in params:
        raise ConfigError("sampling.params.eps_g", "is set by the top-level field eps_g only")
    config_fields("sampling.params", params, PLAN_INPUTS[mode])
    if mode.startswith("subgaussian"):
        need(params, "sampling.params", "c")
    params = {k: config_float(f"sampling.params.{k}", v, 0, above=True) for k, v in params.items()}
    if params.get("p_g", 0.0) >= 1.0:
        raise ConfigError("sampling.params.p_g", f"must be < 1, got {spec['params']['p_g']!r}")
    return SamplePlan(mode=mode, params=params)
