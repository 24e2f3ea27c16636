"""Batch experiment driver: replicated Frank-Wolfe runs over an epsilon
grid, concentration experiments, and log-log scaling fits, with CSV/JSON
artifacts that are byte-deterministic given the configuration."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .config import (config_choice, config_fields, config_float, config_int, config_number,
                     config_type, need)
from .diagnostics import (
    STEP_TYPES,
    AnalysisConstants,
    IterationRecord,
    RunTrace,
    compute_constants,
)
from .errors import ConfigError, DegenerateFit, MalformedTrace
from .frank_wolfe import initial_active_set, run
from .geometry import polytope_from_json
from .objectives import objective_from_json, reference_solution
from .sampling import (
    NoiseModel,
    SamplePlan,
    cell_sample_size,
    chebyshev_tail_bound,
    check_draws,
    noise_from_json,
    plan_from_json,
    sample_noise_means,
)

ALGORITHMS = ("standard", "away")
CSV_HEADER = "epsilon,replication,T_eps,total_samples,good_event_rate,final_gap,wall_ms"
# Most records one saved trace may hold; a run keeps max_iter + 1 at worst.
# A record takes 250-300 B in memory: ~0.3 GB at the limit. Writing a trace
# adds one chunk's dict copies and JSON text (~6 MB) at any length.
TRACE_MAX_RECORDS = 2**20
# Records per json.dumps call when a trace is written.
TRACE_CHUNK = 4096


@dataclass
class ExperimentConfig:
    problem: dict
    algorithm: str
    noise: dict
    sampling: dict
    epsilon_grid: list[float]
    replications: int
    master_seed: int
    max_iter: int
    output_dir: str
    eps_g: float | None = None
    workers: int = 1
    save_traces: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        config_fields("", raw, [f.name for f in dataclasses.fields(cls)])
        problem = need(raw, "", "problem")
        grid = config_float("epsilon_grid", need(raw, "", "epsilon_grid"), 0, above=True, ndim=1)
        eps_g = raw.get("eps_g")
        cfg = cls(
            problem=problem,
            algorithm=config_choice("algorithm", need(raw, "", "algorithm"), ALGORITHMS),
            noise=need(raw, "", "noise"),
            sampling=need(raw, "", "sampling"),
            epsilon_grid=grid.tolist(),
            replications=config_int("replications", need(raw, "", "replications"), 1),
            master_seed=config_int("master_seed", need(raw, "", "master_seed"), 0),
            max_iter=config_int("max_iter", need(raw, "", "max_iter"), 0),
            output_dir=config_type("output_dir", need(raw, "", "output_dir"), str),
            eps_g=None if eps_g is None else config_float("eps_g", eps_g),
            workers=config_int("workers", raw.get("workers", 1), 1),
            save_traces=config_type("save_traces", raw.get("save_traces", False), bool),
        )
        if cfg.save_traces and cfg.max_iter >= TRACE_MAX_RECORDS:
            raise ConfigError("max_iter", f"{cfg.max_iter} lets a saved trace hold "
                              f"{cfg.max_iter + 1} records, above the limit of "
                              f"{TRACE_MAX_RECORDS} with save_traces")
        return cfg

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class PerEpsilonStats:
    epsilon: float
    n_planned: int
    mean_T: float
    std_T: float
    q50: float
    q90: float
    q99: float
    mean_total_samples: float
    good_event_rate: float
    bound_mean_T: float
    emp_mgf: float
    failed: int


@dataclass
class SummaryStats:
    per_epsilon: list[PerEpsilonStats]
    slope: float
    r2: float
    bound_violations: int

    def to_json(self) -> dict:
        return {
            # Every field is a scalar, so a shallow copy is asdict's deep one.
            "per_epsilon": [dict(vars(p)) for p in self.per_epsilon],
            "slope": self.slope,
            "r2": self.r2,
            "bound_violations": self.bound_violations,
        }


def problem_from_json(spec: dict, path: str = "problem", require_objective: bool = True):
    """(polytope, objective) from {"polytope": ..., "objective": ...} at path.
    The objective must have the polytope's dimension; without
    require_objective an absent one reads as None."""
    config_fields(path, spec, ("polytope", "objective"))
    P = polytope_from_json(need(spec, path, "polytope"))
    if not require_objective and "objective" not in spec:
        return P, None
    obj = objective_from_json(need(spec, path, "objective"))
    if obj.dim != P.dim:
        raise ConfigError(f"{path}.objective", f"has dimension {obj.dim}, but the polytope "
                          f"has dimension {P.dim}")
    return P, obj


class _Problem:
    """Problem objects, and the analysis constants and per-iteration n at each
    epsilon of the grid, built once from a config and shared across cells.
    The sampling spec is read first, so a bad one fails before any polytope
    work."""

    def __init__(self, cfg: ExperimentConfig):
        plan = plan_from_json(cfg.sampling)
        self.P, self.obj = problem_from_json(cfg.problem)
        self.noise = noise_from_json(cfg.noise, self.P.dim)
        self.ref = reference_solution(self.obj, self.P)
        x0 = initial_active_set(self.P).point
        self.gap0 = self.obj.value(x0) - self.ref.f_star
        self.consts = [compute_constants(self.obj, self.P, e, cfg.eps_g) for e in cfg.epsilon_grid]
        self.n_planned = [cell_sample_size(plan, c, self.noise) for c in self.consts]


def resolve_plan(cfg: ExperimentConfig, prob: _Problem, consts: AnalysisConstants) -> SamplePlan:
    """The configured sampling mode at one epsilon, with its n set; reads only
    prob.noise."""
    plan = plan_from_json(cfg.sampling)
    return dataclasses.replace(plan, n=cell_sample_size(plan, consts, prob.noise))


def cell_rng(master_seed: int, eps_index: int, replication: int) -> np.random.Generator:
    """Deterministic stream per (epsilon index, replication), independent of
    scheduling."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, eps_index, replication)))


def run_cell(cfg: ExperimentConfig, prob: _Problem, eps_index: int, replication: int):
    """One replication at one epsilon; returns (row fields, trace)."""
    epsilon = cfg.epsilon_grid[eps_index]
    rng = cell_rng(cfg.master_seed, eps_index, replication)
    t0 = time.perf_counter()
    trace = run(
        cfg.algorithm, prob.obj, prob.P, prob.consts[eps_index], prob.noise,
        prob.n_planned[eps_index], cfg.max_iter, rng, f_star=prob.ref.f_star,
        record=cfg.save_traces,
    )
    wall_ms = int(round(1000.0 * (time.perf_counter() - t0)))
    row = {
        "epsilon": epsilon,
        "replication": replication,
        "T_eps": trace.T_eps if trace.T_eps is not None else -1,
        "total_samples": trace.total_samples,
        "good_event_rate": trace.good_steps / trace.n_steps if trace.n_steps else 1.0,
        "final_gap": trace.final_gap,
        "wall_ms": wall_ms,
        "good_steps": trace.good_steps,
        "n_steps": trace.n_steps,
    }
    return row, trace


_worker_problem: tuple[ExperimentConfig, _Problem] | None = None


def _init_worker(cfg: ExperimentConfig, prob: _Problem) -> None:
    global _worker_problem
    _worker_problem = (cfg, prob)


def _worker(eps_index: int, replication: int) -> dict:
    row, _ = run_cell(*_worker_problem, eps_index, replication)
    return row


def _format_row(row: dict) -> str:
    return ",".join(
        [
            repr(float(row["epsilon"])),
            str(int(row["replication"])),
            str(int(row["T_eps"])),
            str(int(row["total_samples"])),
            repr(float(row["good_event_rate"])),
            repr(float(row["final_gap"])),
            str(int(row["wall_ms"])),
        ]
    )


def theorem_bound_mean_T(algorithm: str, gap0: float, consts: AnalysisConstants) -> float:
    """Supermartingale bound on E[T_eps]: 2(f(x0)-f*) max(8LD^2/eps^2, 4/eps)
    for the standard algorithm; log(Phi0) (2 + 4/(beta2 eps)) for away.
    Squares are products, not **, which raises OverflowError past 1e154: at
    an extreme epsilon the bound overflows to inf (or underflows to 0)."""
    eps = consts.epsilon
    if algorithm == "standard":
        eps2 = eps * eps
        # eps^2 that underflowed to 0 leaves 8 L D^2 / eps^2 above every float.
        quad = 8.0 * consts.L * (consts.D * consts.D) / eps2 if eps2 else math.inf
        return 2.0 * gap0 * max(quad, 4.0 / eps)
    log_phi0 = consts.nu * gap0 + (1.0 - consts.nu) * 1.0
    return log_phi0 * (2.0 + 4.0 / (consts.beta2 * eps))


def summarize(cfg: ExperimentConfig, prob: _Problem, rows: list[dict]) -> SummaryStats:
    per_eps = []
    bound_violations = 0
    for i, eps in enumerate(cfg.epsilon_grid):
        consts = prob.consts[i]
        cell_rows = rows[i * cfg.replications : (i + 1) * cfg.replications]
        done = [r for r in cell_rows if r["T_eps"] >= 0]
        failed = len(cell_rows) - len(done)
        Ts = np.array([r["T_eps"] for r in done], dtype=float)
        delta = consts.delta_S if cfg.algorithm == "standard" else consts.delta_A
        bound = theorem_bound_mean_T(cfg.algorithm, prob.gap0, consts)
        total_good = sum(r["good_steps"] for r in cell_rows)
        total_steps = sum(r["n_steps"] for r in cell_rows)
        mean_T = float(Ts.mean()) if len(Ts) else float("nan")
        quantiles = np.quantile(Ts, [0.5, 0.9, 0.99]).tolist() if len(Ts) else [math.nan] * 3
        if len(Ts) and mean_T > bound:
            bound_violations += 1
        per_eps.append(
            PerEpsilonStats(
                epsilon=eps,
                n_planned=prob.n_planned[i],
                mean_T=mean_T,
                std_T=float(Ts.std(ddof=1)) if len(Ts) > 1 else 0.0,
                q50=quantiles[0],
                q90=quantiles[1],
                q99=quantiles[2],
                mean_total_samples=(
                    float(np.mean([r["total_samples"] for r in done])) if done else float("nan")
                ),
                good_event_rate=(total_good / total_steps) if total_steps else 1.0,
                bound_mean_T=bound,
                emp_mgf=(
                    float(np.mean(np.exp(np.minimum(0.5 * delta * Ts, 700.0))))
                    if len(Ts)
                    else float("nan")
                ),
                failed=failed,
            )
        )
    points = [
        (1.0 / p.epsilon, p.mean_T)
        for p in per_eps
        if math.isfinite(p.mean_T) and p.mean_T > 0
    ]
    try:
        slope, r2 = fit_loglog_slope(points)
    except DegenerateFit:  # fewer than 3 points, or all at one epsilon
        slope = r2 = float("nan")
    return SummaryStats(
        per_epsilon=per_eps, slope=slope, r2=r2, bound_violations=bound_violations
    )


def run_experiment(cfg: ExperimentConfig) -> SummaryStats:
    """Run the full replication grid, write runs.csv and summary.json into
    the output directory, and return the summary.

    Output is deterministic for a fixed config regardless of worker count
    (rows come in (epsilon index, replication) order; every cell owns a
    seeded stream derived from (master_seed, epsilon index, replication)).
    With save_traces every cell runs in the calling process, where its trace
    is written: workers return rows only, so a pool would have to run each
    cell a second time to get its trace. The output directory is created
    only once the problem and its sample plans are built, so a config that
    fails there leaves nothing behind.
    """
    prob = _Problem(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    csv_path = os.path.join(cfg.output_dir, "runs.csv")
    json_path = os.path.join(cfg.output_dir, "summary.json")
    cells = [
        (i, r) for i in range(len(cfg.epsilon_grid)) for r in range(cfg.replications)
    ]
    # The pool forks all its workers at the first submit: never more than
    # the cells, or the CPUs this process may run on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cfg.workers, len(cells), cpus or 1)
    try:
        if workers <= 1 or cfg.save_traces:
            rows = []
            for i, r in cells:
                row, trace = run_cell(cfg, prob, i, r)
                rows.append(row)
                if cfg.save_traces:
                    _save_trace(cfg, i, r, trace)
        else:
            # Imported here: concurrent.futures.process and multiprocessing
            # cost every import of polyfw ~25 ms and never run in-process.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(cfg, prob)
            ) as pool:
                rows = list(pool.map(_worker, *zip(*cells)))
        summary = summarize(cfg, prob, rows)
        with open(csv_path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(_format_row(row) + "\n")
        with open(json_path, "w") as fh:
            fh.write(json.dumps(summary.to_json(), indent=2, sort_keys=True) + "\n")
        return summary
    except Exception:
        for path in [csv_path, json_path, *(_trace_path(cfg, i, r) for i, r in cells)]:
            if os.path.exists(path):
                os.remove(path)
        raise


def _trace_path(cfg: ExperimentConfig, eps_index: int, replication: int) -> str:
    return os.path.join(cfg.output_dir, f"trace_e{eps_index}_r{replication}.json")


def _save_trace(cfg, eps_index, replication, trace):
    """Write the bytes of json.dumps(trace_to_json(...)), TRACE_CHUNK records
    at a time: the dict copies and JSON text alive at once are one chunk's,
    however long the trace. The header goes out with the first chunk, so a
    trace of one chunk is still a single json.dumps call (the C encoder)."""
    records = trace.records
    head = {**_trace_header(cfg, eps_index, trace),
            "records": [dict(vars(rec)) for rec in records[:TRACE_CHUNK]]}
    with open(_trace_path(cfg, eps_index, replication), "w") as fh:
        fh.write(json.dumps(head)[:-2])  # all but the closing "]}"
        for start in range(TRACE_CHUNK, len(records), TRACE_CHUNK):
            chunk = records[start:start + TRACE_CHUNK]
            fh.write(", " + json.dumps([dict(vars(rec)) for rec in chunk])[1:-1])
        fh.write("]}")


# The header fields trace_to_json writes, the only ones a trace may hold.
TRACE_FIELDS = ("algorithm", "epsilon", "eps_g", "problem", "T_eps", "total_samples",
                "final_gap", "records")


def _trace_header(cfg: ExperimentConfig, eps_index: int, trace: RunTrace) -> dict:
    return {
        "algorithm": cfg.algorithm,
        "epsilon": cfg.epsilon_grid[eps_index],
        "eps_g": cfg.eps_g,
        "problem": cfg.problem,
        "T_eps": trace.T_eps,
        "total_samples": trace.total_samples,
        "final_gap": trace.final_gap,
    }


def trace_to_json(cfg: ExperimentConfig, eps_index: int, trace: RunTrace) -> dict:
    # Every field is a scalar, so a shallow copy is asdict's deep one.
    return {**_trace_header(cfg, eps_index, trace),
            "records": [dict(vars(rec)) for rec in trace.records]}


def _finite(path: str, value, positive: bool = False) -> None:
    """A finite JSON number (> 0 when positive): config_float's check on a
    scalar without its array conversion, which a long trace would pay per
    field."""
    if not math.isfinite(config_number(path, value)):
        raise ConfigError(path, f"must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(path, f"must be > 0, got {value!r}")


def _check_record(i: int, rec: IterationRecord) -> None:
    path = f"record {i}"
    config_int(f"{path}.k", rec.k, 0)
    if rec.step_type is not None:
        config_choice(f"{path}.step_type", rec.step_type, STEP_TYPES)
    for name in ("gamma", "gamma_max", "grad_error", "f_gap"):
        _finite(f"{path}.{name}", getattr(rec, name))
    _finite(f"{path}.lyapunov", rec.lyapunov, positive=True)
    config_int(f"{path}.n_samples", rec.n_samples, 0)
    config_type(f"{path}.good_event", rec.good_event, bool)
    config_int(f"{path}.active_size", rec.active_size, 1)


def _check_header(records: list[IterationRecord], T_eps, total_samples, final_gap) -> None:
    """The header against the records, as run writes them: k = 0, 1, 2, ..., a
    null step_type on the last record only, T_eps (unless null) the last k,
    final_gap (unless absent) the last f_gap, total_samples the n_samples sum."""
    if not records:
        raise MalformedTrace("records: must be nonempty")
    last = records[-1]
    for i, rec in enumerate(records):
        if rec.k != i:
            raise MalformedTrace(f"record {i}.k: must be {i}, got {rec.k!r}")
        if (rec.step_type is None) != (rec is last):
            raise MalformedTrace(f"record {i}.step_type: must be null on the last record "
                                 f"only, got {rec.step_type!r}")
    if T_eps is not None and T_eps != last.k:
        raise MalformedTrace(f"T_eps: must be the last record's k = {last.k!r}, got {T_eps!r}")
    if not math.isnan(final_gap) and final_gap != last.f_gap:
        raise MalformedTrace(f"final_gap: must be the last record's f_gap = {last.f_gap!r}, "
                             f"got {final_gap!r}")
    if total_samples != sum(rec.n_samples for rec in records):
        raise MalformedTrace(f"total_samples: must be the sum of the records' n_samples, "
                             f"got {total_samples!r}")


def trace_from_json(data: dict) -> RunTrace:
    """Rebuild a trace from trace_to_json. A missing, unknown or bad record
    field, a bad T_eps, total_samples or final_gap, or a header that
    disagrees with the records (_check_header) raises MalformedTrace naming it."""
    raw = need(data, "trace", "records")
    if not isinstance(raw, list):
        raise MalformedTrace(f"records must be a list, got {raw!r}")
    records = []
    try:
        for i, rec in enumerate(raw):
            try:
                records.append(IterationRecord(**rec))
            except TypeError as exc:  # names the missing or unknown key
                raise MalformedTrace(f"record {i}: {exc}") from None
            _check_record(i, records[-1])
        T_eps = data.get("T_eps")
        if T_eps is not None:
            config_int("T_eps", T_eps, 0)
        total_samples = config_int("total_samples", data.get("total_samples", 0), 0)
        final_gap = data.get("final_gap", math.nan)
        if "final_gap" in data:
            _finite("final_gap", final_gap)
    except ConfigError as exc:  # a bad value is a malformed trace, not a config error
        raise MalformedTrace(str(exc)) from None
    _check_header(records, T_eps, total_samples, final_gap)
    return RunTrace(
        records=records, T_eps=T_eps, total_samples=total_samples, final_gap=final_gap,
        n_steps=len(records) - 1, good_steps=sum(rec.good_event for rec in records[:-1]),
    )


def fit_loglog_slope(points) -> tuple[float, float]:
    """Least-squares slope of log y on log x plus r^2.

    A constant y gives slope 0 with r^2 = 1 (zero residual, zero variance);
    identical x values raise DegenerateFit.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise DegenerateFit("need at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("log-log fit needs positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    if np.ptp(lx) == 0.0:
        raise DegenerateFit("all x values identical")
    return _linear_fit(lx, ly)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y on x plus r^2 (1 when y is constant)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return float(slope), r2


# Largest trials x d values one concentration cell may draw (80 MB of floats).
CONCENTRATION_MAX_VALUES = 10**7


def concentration_experiment(
    noise: NoiseModel, n_grid, s_grid, trials: int, rng: np.random.Generator
) -> tuple[list[dict], list[dict]]:
    """Empirical exceedance frequencies of ||sample mean - grad|| per (n, s)
    cell, flagged against the Chebyshev bound, plus per-s exponential fits
    of log-frequency against n (the sub-Gaussian signature).

    The noise is additive and state-independent, so exceedances are computed
    on centered noise means directly. Draws above CONCENTRATION_MAX_VALUES
    or refused by check_draws raise ConfigError before anything is drawn.
    """
    if trials < 10**3:
        raise ConfigError("trials", f"must be >= 1000, got {trials}")
    if trials * noise.dim > CONCENTRATION_MAX_VALUES:
        raise ConfigError("trials", f"{trials} trials x d = {noise.dim} draws {trials * noise.dim} "
                          f"values per cell, above the limit of {CONCENTRATION_MAX_VALUES}")
    check_draws(noise, max(n_grid, default=0), trials, "n_grid")
    cells = []
    freq_by_s: dict[float, list[tuple[int, float]]] = {float(s): [] for s in s_grid}
    for n in n_grid:
        norms = np.linalg.norm(sample_noise_means(noise, n, (trials,), rng), axis=1)
        for s in s_grid:
            s = float(s)
            freq = float((norms > s).mean())
            se = math.sqrt(freq * (1.0 - freq) / trials)
            bound = chebyshev_tail_bound(noise.V_g, n, s)
            cells.append(
                {
                    "n": int(n),
                    "s": s,
                    "freq": freq,
                    "stderr": se,
                    "chebyshev_bound": bound,
                    "violation": freq > bound + 3.0 * se,
                }
            )
            freq_by_s[s].append((int(n), freq))
    fits = []
    for s, pairs in freq_by_s.items():
        pos = [(n, f) for n, f in pairs if f > 0.0]
        if len(pos) < 3:
            continue
        ns = np.array([n for n, _ in pos], dtype=float)
        slope, r2 = _linear_fit(ns, np.log([f for _, f in pos]))
        fits.append({"s": s, "slope": slope, "r2": r2, "c_fit": -slope / s**2})
    return cells, fits
