import copy
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyfw.cli import main as cli_main
from polyfw import cli, geometry, harness
from polyfw.diagnostics import STEP_TYPES, IterationRecord, RunTrace
from polyfw.errors import ConfigError, DegenerateFit, MalformedTrace
from polyfw.geometry import unit_simplex
from polyfw.harness import (
    CONCENTRATION_MAX_VALUES,
    CSV_HEADER,
    TRACE_MAX_RECORDS,
    ExperimentConfig,
    cell_rng,
    concentration_experiment,
    fit_loglog_slope,
    run_experiment,
    theorem_bound_mean_T,
    trace_from_json,
)
from polyfw.objectives import QuadraticObjective
from polyfw.sampling import NoiseModel

BOX3_A = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]

# Criterion 4's problem: the corner simplex with z outside it (sum 1.8 > 1).
CRITERION4_PROBLEM = {
    "polytope": {"preset": "simplex", "dim": 3},
    "objective": {"eigenvalues": [1.0, 2.0, 4.0], "z": [0.8, 0.6, 0.4]},
}


def concentration_spec():
    return {
        "problem": {
            "polytope": {"preset": "box", "dim": 2},
            "objective": {"eigenvalues": [1.0, 2.0], "z": [0.0, 0.0]},
        },
        "noise": {"kind": "gaussian", "sigma": 1.0},
        "n_grid": [10, 50],
        "s_grid": [0.5],
        "trials": 1500,
        "seed": 3,
    }


def base_config(output_dir, **overrides):
    raw = {
        "problem": {
            "polytope": {"preset": "simplex", "dim": 3},
            "objective": {"eigenvalues": [1.0, 2.0, 3.0], "z": [0.4, 0.3, 0.2]},
        },
        "algorithm": "standard",
        "noise": {"kind": "gaussian", "sigma": 0.1},
        "sampling": {"mode": "fixed", "n": 5},
        "epsilon_grid": [0.4, 0.2, 0.1],
        "replications": 3,
        "master_seed": 7,
        "max_iter": 5000,
        "output_dir": str(output_dir),
    }
    raw.update(overrides)
    return raw


def synthetic_trace(n_records):
    """A trace of n_records records, each field varying with k, shaped like run's."""
    records = [
        IterationRecord(k=k, step_type=STEP_TYPES[k % 5] if k < n_records - 1 else None,
                        gamma=1 / (k + 2), gamma_max=1.0, n_samples=k % 7,
                        grad_error=k / 3e4, good_event=k % 3 > 0, f_gap=1 / (k + 1),
                        active_size=1 + k % 4, lyapunov=math.exp(1 / (k + 1)))
        for k in range(n_records)
    ]
    return RunTrace(records=records, T_eps=None,
                    total_samples=sum(rec.n_samples for rec in records),
                    final_gap=records[-1].f_gap, n_steps=n_records - 1,
                    good_steps=sum(rec.good_event for rec in records[:-1]))


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        pts = [(x, 3.0 * x**2) for x in (1.0, 2.0, 4.0, 8.0)]
        slope, r2 = fit_loglog_slope(pts)
        assert slope == pytest.approx(2.0)
        assert r2 == pytest.approx(1.0)

    def test_constant_y(self):
        slope, r2 = fit_loglog_slope([(1.0, 5.0), (2.0, 5.0), (4.0, 5.0)])
        assert slope == pytest.approx(0.0)
        assert r2 == 1.0

    def test_noisy_fit(self, rng):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        ys = 2.0 * xs**1.5 * np.exp(rng.normal(0.0, 0.01, xs.size))
        slope, r2 = fit_loglog_slope(list(zip(xs, ys)))
        assert abs(slope - 1.5) < 0.05
        assert r2 > 0.99

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFit):
            fit_loglog_slope([(1.0, 2.0), (2.0, 3.0)])
        with pytest.raises(DegenerateFit):
            fit_loglog_slope([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(1.0, -1.0), (2.0, 1.0), (3.0, 1.0)])


class TestConfig:
    def test_missing_fields_report_their_path(self, tmp_path, capsys):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({})
        assert "problem" in str(exc.value)
        # The problem's own fields are checked where the problem is built.
        raw = base_config(tmp_path / "out")
        del raw["problem"]["polytope"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 2
        assert "config error: problem.polytope" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(tmp_path, algorithm="sgd"))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(tmp_path, epsilon_grid=[]))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(tmp_path, epsilon_grid=[0.1, -0.2]))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(tmp_path, replications=0))

    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


class TestRunExperiment:
    def test_artifacts_and_format(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path / "a"))
        summary = run_experiment(cfg)
        lines = (tmp_path / "a" / "runs.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 3
        eps_col = [float(line.split(",")[0]) for line in lines[1:]]
        assert eps_col == sorted(eps_col, reverse=True)  # grid order
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 7
            int(fields[1]), int(fields[2]), int(fields[3]), int(fields[6])
        data = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert len(data["per_epsilon"]) == 3
        assert data["bound_violations"] == summary.bound_violations

    def test_quantiles_equal_separate_quantile_calls(self, tmp_path):
        summary = run_experiment(ExperimentConfig.from_dict(base_config(tmp_path / "q")))
        lines = (tmp_path / "q" / "runs.csv").read_text().splitlines()[1:]
        for p in summary.per_epsilon:
            Ts = np.array([float(f[2]) for f in (line.split(",") for line in lines)
                           if float(f[0]) == p.epsilon])
            assert [p.q50, p.q90, p.q99] == [float(np.quantile(Ts, q)) for q in (0.5, 0.9, 0.99)]

    @pytest.mark.parametrize("algorithm, max_iter", [("standard", 5000), ("away", 5000),
                                                     ("away", 3)])
    def test_saved_trace_bytes_equal_json_dump_of_asdict(self, tmp_path, algorithm, max_iter):
        # max_iter 3 leaves T_eps at None (null) in every trace.
        raw = base_config(tmp_path / "t", algorithm=algorithm, max_iter=max_iter,
                          replications=2, save_traces=True)
        cfg = ExperimentConfig.from_dict(raw)
        run_experiment(cfg)
        prob = harness._Problem(cfg)
        for i in range(len(cfg.epsilon_grid)):
            for r in range(cfg.replications):
                _, trace = harness.run_cell(cfg, prob, i, r)
                old = io.StringIO()
                data = harness.trace_to_json(cfg, i, trace)
                data["records"] = [dataclasses.asdict(rec) for rec in trace.records]
                json.dump(data, old)
                saved = (tmp_path / "t" / f"trace_e{i}_r{r}.json").read_text()
                assert saved == old.getvalue()

    @pytest.mark.parametrize("n_records", [1, harness.TRACE_CHUNK, 2 * harness.TRACE_CHUNK + 1],
                             ids=["one_record", "one_full_chunk", "three_chunks"])
    def test_streamed_trace_bytes_equal_json_dumps_of_trace_to_json(self, tmp_path, n_records):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path, save_traces=True))
        trace = synthetic_trace(n_records)
        harness._save_trace(cfg, 1, 2, trace)
        saved = (tmp_path / "trace_e1_r2.json").read_text()
        assert saved == json.dumps(harness.trace_to_json(cfg, 1, trace))

    def test_trace_writing_memory_does_not_grow_with_the_records(self, tmp_path):
        # All records exist before tracing starts. What stays allocated after
        # the write (each record's instance dict, built on first vars() call)
        # belongs to the records; the rest of the peak is what writing adds.
        # A writer that builds the whole JSON at once needs ~17 MB more for
        # the longer trace.
        cfg = ExperimentConfig.from_dict(base_config(tmp_path, save_traces=True))
        transient = []
        for n_chunks in (2, 8):
            trace = synthetic_trace(n_chunks * harness.TRACE_CHUNK)
            tracemalloc.start()
            try:
                harness._save_trace(cfg, 0, 0, trace)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            transient.append(peak - current)
        assert abs(transient[1] - transient[0]) < 2**17, transient

    def test_deterministic_across_reruns_and_workers(self, tmp_path):
        raw = base_config(tmp_path / "w1")
        run_experiment(ExperimentConfig.from_dict(raw))
        run_experiment(ExperimentConfig.from_dict(base_config(tmp_path / "w1b")))
        run_experiment(
            ExperimentConfig.from_dict(base_config(tmp_path / "w2", workers=2))
        )
        for d, workers in (("t1", 1), ("t2", 2)):
            run_experiment(
                ExperimentConfig.from_dict(
                    base_config(tmp_path / d, workers=workers, save_traces=True)
                )
            )

        def stable(d):
            csv = (tmp_path / d / "runs.csv").read_text().splitlines()
            # wall_ms (last column) is timing, not part of the contract.
            return [",".join(line.split(",")[:-1]) for line in csv], (
                tmp_path / d / "summary.json"
            ).read_bytes()

        def traces(d):
            return {
                p.name: p.read_bytes() for p in sorted((tmp_path / d).glob("trace_*.json"))
            }

        assert stable("w1") == stable("w1b") == stable("w2") == stable("t1") == stable("t2")
        assert len(traces("t1")) == 3 * 3
        assert traces("t1") == traces("t2")

    def test_constants_resolved_once_per_epsilon(self, tmp_path, monkeypatch):
        calls = []
        original = harness.compute_constants

        def counting(obj, P, epsilon, eps_g=None):
            calls.append(epsilon)
            return original(obj, P, epsilon, eps_g)

        monkeypatch.setattr(harness, "compute_constants", counting)
        cfg = ExperimentConfig.from_dict(base_config(tmp_path / "c"))
        run_experiment(cfg)
        assert calls == cfg.epsilon_grid

    def test_repeated_epsilon_cells_are_summarized_separately(self, tmp_path):
        # Equal grid values are separate cells with separate streams; each
        # per-epsilon entry averages its own replications only.
        cfg = ExperimentConfig.from_dict(
            base_config(tmp_path / "r", problem=CRITERION4_PROBLEM, epsilon_grid=[0.2, 0.2, 0.1],
                        noise={"kind": "gaussian", "sigma": 1.0},
                        sampling={"mode": "fixed", "n": 10})
        )
        summary = run_experiment(cfg)
        lines = (tmp_path / "r" / "runs.csv").read_text().splitlines()[1:]
        Ts = [int(line.split(",")[2]) for line in lines]
        own = [float(np.mean(Ts[i * 3 : (i + 1) * 3])) for i in range(3)]
        assert own[0] != own[1]
        assert [p.mean_T for p in summary.per_epsilon] == own

    def test_all_equal_epsilon_grid_writes_nan_slope(self, tmp_path):
        # Three cells at one epsilon give no log-log slope; the grid still
        # writes its outputs, with slope and r2 NaN.
        cfg = ExperimentConfig.from_dict(
            base_config(tmp_path / "q", epsilon_grid=[0.1, 0.1, 0.1], replications=2,
                        sampling={"mode": "fixed", "n": 10})
        )
        summary = run_experiment(cfg)
        assert math.isnan(summary.slope) and math.isnan(summary.r2)
        assert [p.failed for p in summary.per_epsilon] == [0, 0, 0]
        written = json.loads((tmp_path / "q" / "summary.json").read_text())
        assert math.isnan(written["slope"]) and math.isnan(written["r2"])
        assert len((tmp_path / "q" / "runs.csv").read_text().splitlines()) == 1 + 3 * 2

    @pytest.mark.parametrize("affinity, cpus, expected", [
        (True, 64, 6), (True, 3, 3), (False, 4, 4), (True, 1, None),
    ], ids=["cells", "affinity", "cpu_count", "serial"])
    def test_pool_never_exceeds_the_cells_or_the_cpus(self, tmp_path, monkeypatch, affinity,
                                                      cpus, expected):
        # The pool forks all of its max_workers processes at the first submit,
        # so workers = 5000 on a 6-cell grid asks for at most 6. The fake
        # pool records max_workers and maps in this process.
        import concurrent.futures

        sizes = []

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(harness, "_worker_problem", None)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        grid = {"epsilon_grid": [0.4, 0.2], "replications": 3}
        run_experiment(ExperimentConfig.from_dict(
            base_config(tmp_path / "pool", workers=5000, **grid)))
        assert sizes == ([] if expected is None else [expected])
        run_experiment(ExperimentConfig.from_dict(base_config(tmp_path / "serial", **grid)))

        def stable(d):
            csv = (tmp_path / d / "runs.csv").read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in csv], (
                tmp_path / d / "summary.json").read_bytes()

        assert stable("pool") == stable("serial")

    def test_cell_rng_is_scheduling_independent(self):
        a = cell_rng(7, 1, 2).standard_normal(4)
        b = cell_rng(7, 1, 2).standard_normal(4)
        c = cell_rng(7, 2, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unreached_epsilon_records_sentinel(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(tmp_path / "s", max_iter=0, epsilon_grid=[1e-6], replications=2)
        )
        summary = run_experiment(cfg)
        lines = (tmp_path / "s" / "runs.csv").read_text().splitlines()
        assert all(line.split(",")[2] == "-1" for line in lines[1:])
        assert summary.per_epsilon[0].failed == 2
        assert math.isnan(summary.per_epsilon[0].mean_T)

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        raw = base_config(tmp_path / "f", sampling={"mode": "no_such_mode"})
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.raises(Exception):
            run_experiment(cfg)
        assert not (tmp_path / "f" / "runs.csv").exists()
        assert not (tmp_path / "f" / "summary.json").exists()

    def test_traces_removed_on_failure(self, tmp_path, monkeypatch):
        def failing_summary(*args):
            raise RuntimeError("summary failed")

        monkeypatch.setattr(harness, "summarize", failing_summary)
        cfg = ExperimentConfig.from_dict(base_config(tmp_path / "t", save_traces=True))
        with pytest.raises(RuntimeError):
            run_experiment(cfg)
        assert sorted(p.name for p in (tmp_path / "t").iterdir()) == []

    def test_exact_mode_bounds_hold(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(
                tmp_path / "e",
                sampling={"mode": "exact"},
                epsilon_grid=[0.4, 0.2, 0.1, 0.05],
                replications=1,
            )
        )
        summary = run_experiment(cfg)
        assert summary.bound_violations == 0
        for p in summary.per_epsilon:
            assert p.mean_T <= p.bound_mean_T
            assert p.good_event_rate == 1.0
            assert p.n_planned == 0


def test_import_leaves_the_process_pool_unloaded():
    # The pool's modules cost every import ~25 ms; only workers > 1 loads them.
    code = (
        "import sys, polyfw\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_theorem_bound_formulas():
    obj = QuadraticObjective([1.0, 2.0, 3.0], z=[0.4, 0.3, 0.2])
    from polyfw.diagnostics import compute_constants

    P = unit_simplex(3)
    c = compute_constants(obj, P, 0.1)
    gap0 = 1.3
    expect_std = 2.0 * gap0 * max(8.0 * c.L * c.D**2 / 0.01, 4.0 / 0.1)
    assert theorem_bound_mean_T("standard", gap0, c) == pytest.approx(expect_std)
    log_phi0 = c.nu * gap0 + (1.0 - c.nu)
    expect_away = log_phi0 * (2.0 + 4.0 / (c.beta2 * 0.1))
    assert theorem_bound_mean_T("away", gap0, c) == pytest.approx(expect_away)


class TestConcentration:
    def test_gaussian_respects_chebyshev(self, rng):
        noise = NoiseModel.gaussian(1.0, 3)
        cells, _ = concentration_experiment(
            noise, n_grid=(10, 100, 1000), s_grid=(0.5,), trials=2000, rng=rng
        )
        assert all(not c["violation"] for c in cells)
        # Gaussian means are sub-Gaussian: log-frequency falls linearly in n.
        # Small n keeps every cell's frequency positive so the fit exists.
        _, fits = concentration_experiment(
            noise, n_grid=(2, 4, 6, 8, 10), s_grid=(0.5,), trials=4000, rng=rng
        )
        (fit,) = [f for f in fits if f["s"] == 0.5]
        assert fit["slope"] < 0.0 and fit["c_fit"] > 0.0

    def test_gaussian_means_are_direct_normal_draws(self, monkeypatch):
        noise, trials = NoiseModel.gaussian(0.7, 3), 1500
        n_grid, s_grid = (1, 10, 1000), (0.05, 0.2)
        drawn = []
        original = harness.sample_noise_means

        def recording(*args):
            drawn.append(original(*args))
            return drawn[-1]

        monkeypatch.setattr(harness, "sample_noise_means", recording)
        cells, _ = concentration_experiment(noise, n_grid, s_grid, trials,
                                            np.random.default_rng(17))
        direct = np.random.default_rng(17)
        expected = [direct.normal(0.0, 0.7 / math.sqrt(n), (trials, 3)) for n in n_grid]
        assert [m.tobytes() for m in drawn] == [m.tobytes() for m in expected]
        freqs = [float((np.linalg.norm(m, axis=1) > s).mean()) for m in expected for s in s_grid]
        assert [c["freq"] for c in cells] == freqs

    def test_student_t_respects_chebyshev_too(self, rng):
        noise = NoiseModel.student_t(3, 1.0, 3)
        cells, _ = concentration_experiment(
            noise, n_grid=(5, 20, 80), s_grid=(1.0, 2.0), trials=2000, rng=rng
        )
        assert all(not c["violation"] for c in cells)

    def test_rademacher_respects_chebyshev(self, rng):
        # n <= 64 counts bits of one word per coordinate; the tails must
        # still sit under Chebyshev and fall with n.
        noise = NoiseModel.rademacher(1.0, 3)
        cells, fits = concentration_experiment(
            noise, n_grid=(2, 4, 8, 16), s_grid=(0.5,), trials=4000, rng=rng
        )
        assert all(not c["violation"] for c in cells)
        (fit,) = [f for f in fits if f["s"] == 0.5]
        assert fit["slope"] < 0.0 and fit["c_fit"] > 0.0

    def test_requires_enough_trials(self, rng):
        with pytest.raises(ConfigError, match="^trials: must be >= 1000, got 10$"):
            concentration_experiment(NoiseModel.gaussian(1.0, 3), (5,), (1.0,), 10, rng)


class TestCLI:
    def test_run_verify_roundtrip(self, tmp_path, capsys):
        raw = base_config(
            tmp_path / "cli",
            sampling={"mode": "exact"},
            epsilon_grid=[0.2, 0.1, 0.05],
            replications=1,
            save_traces=True,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["run", str(cfg_path)]) == 0
        trace_path = tmp_path / "cli" / "trace_e0_r0.json"
        assert trace_path.exists()
        assert cli_main(["verify", str(trace_path)]) == 0
        report = json.loads(capsys.readouterr().out.rsplit("\n{", 1)[-1].join(["{", ""]))
        assert report["passed"] is True

    def test_trace_json_roundtrip(self, tmp_path):
        raw = base_config(
            tmp_path / "tr",
            sampling={"mode": "exact"},
            epsilon_grid=[0.1],
            replications=1,
            save_traces=True,
        )
        from polyfw.harness import run_experiment as rx

        rx(ExperimentConfig.from_dict(raw))
        data = json.loads((tmp_path / "tr" / "trace_e0_r0.json").read_text())
        trace = trace_from_json(data)
        assert trace.T_eps == data["T_eps"]
        assert trace.records[-1].step_type is None

    # damage -> ((record index, or None for the header, key), bad value, message
    # naming the record and the field).
    BAD_VALUES = {
        "f_gap_string": ((0, "f_gap"), "abc", "record 0.f_gap: must be a number, got 'abc'"),
        "k_string": ((1, "k"), "x", "record 1.k: must be an integer, got 'x'"),
        "k_negative": ((0, "k"), -1, "record 0.k: must be >= 0"),
        "T_eps_string": ((None, "T_eps"), "x", "T_eps: must be an integer, got 'x'"),
        "lyapunov_zero": ((0, "lyapunov"), 0.0, "record 0.lyapunov: must be > 0, got 0.0"),
        "good_event_string": ((0, "good_event"), "yes", "record 0.good_event: must be true or"),
        "final_gap_string": ((None, "final_gap"), "x", "final_gap: must be a number, got 'x'"),
        "step_type_unknown": ((0, "step_type"), "jump", "record 0.step_type: must be one of"),
        "active_size_zero": ((0, "active_size"), 0, "record 0.active_size: must be >= 1"),
        "grad_error_nan": ((0, "grad_error"), math.nan, "record 0.grad_error: must be a finite"),
        "n_samples_fractional": ((0, "n_samples"), 1.5, "record 0.n_samples: must be an integer"),
        "total_samples_negative": ((None, "total_samples"), -1, "total_samples: must be >= 0"),
    }
    # damage -> (edits, each (record index or None, key, value), message): well-typed
    # values whose header disagrees with the records. The trace is an exact-gradient one:
    # every n_samples, and total_samples, is 0.
    BAD_HEADERS = {
        # Three edits at once: the first check that fails, on k, is named.
        "header_edited": ([(None, "T_eps", 1000000), (1, "k", 7), (None, "final_gap", 123.0)],
                          "record 1.k: must be 1, got 7"),
        "records_empty": ([(None, "records", [])], "records: must be nonempty"),
        "k_skips": ([(1, "k", 2)], "record 1.k: must be 1, got 2"),
        "step_type_null_early": ([(0, "step_type", None)],
                                 "record 0.step_type: must be null on the last record only"),
        "step_type_set_last": ([(-1, "step_type", "fw")],
                               "record {last}.step_type: must be null on the last record only, "
                               "got 'fw'"),
        "T_eps_not_last_k": ([(None, "T_eps", 1000000)], "T_eps: must be the last record's k"),
        "final_gap_not_last": ([(None, "final_gap", 123.0)],
                               "final_gap: must be the last record's f_gap"),
        "total_samples_not_sum": ([(None, "total_samples", 5)],
                                  "total_samples: must be the sum of the records' n_samples"),
    }

    @pytest.mark.parametrize(
        "damage",
        ["missing_key", "unknown_key", "not_an_object", "records_not_a_list", *BAD_VALUES,
         *BAD_HEADERS],
    )
    def test_verify_malformed_trace_exits_3(self, tmp_path, capsys, damage):
        raw = base_config(
            tmp_path / "bad", sampling={"mode": "exact"}, epsilon_grid=[0.1],
            replications=1, save_traces=True,
        )
        run_experiment(ExperimentConfig.from_dict(raw))
        path = tmp_path / "bad" / "trace_e0_r0.json"
        data = json.loads(path.read_text())
        assert len(data["records"]) >= 2
        message = None
        if damage == "missing_key":
            del data["records"][0]["lyapunov"]
        elif damage == "unknown_key":
            data["records"][0]["extra"] = 1
        elif damage == "not_an_object":
            data["records"][0] = [1, 2]
        elif damage == "records_not_a_list":
            data["records"] = 5
        elif damage in self.BAD_HEADERS:
            edits, message = self.BAD_HEADERS[damage]
            message = message.format(last=len(data["records"]) - 1)
            for index, key, value in edits:
                (data if index is None else data["records"][index])[key] = value
        else:
            (index, key), value, message = self.BAD_VALUES[damage]
            (data if index is None else data["records"][index])[key] = value
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli_main(["verify", str(path)]) == 3
        if message is not None:
            assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["T_eps_null", "epsilon_below_last_gap"])
    def test_verify_stopping_rule_exits_3(self, tmp_path, capsys, edit):
        raw = base_config(
            tmp_path / "stop", algorithm="away", sampling={"mode": "exact"},
            epsilon_grid=[0.1], replications=1, save_traces=True,
        )
        run_experiment(ExperimentConfig.from_dict(raw))
        path = tmp_path / "stop" / "trace_e0_r0.json"
        data = json.loads(path.read_text())
        last = data["records"][-1]
        assert data["T_eps"] == last["k"] == len(data["records"]) - 1
        assert cli_main(["verify", str(path)]) == 0
        if edit == "T_eps_null":
            data["T_eps"] = None  # the last record has f_gap <= epsilon
        else:
            data["epsilon"] = last["f_gap"] / 10  # no record reaches epsilon
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli_main(["verify", str(path)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert not report["passed"]
        assert {"k": last["k"], "rule": "stopping"}.items() <= report["violations"][-1].items()

    def test_records_not_a_list_is_a_malformed_trace(self):
        with pytest.raises(MalformedTrace, match="records must be a list, got 5"):
            trace_from_json({"records": 5})

    def test_report(self, tmp_path, capsys):
        # Two epsilons leave slope and r2 NaN, as summary.json writes them.
        raw = base_config(tmp_path / "rep", epsilon_grid=[0.4, 0.2])
        summary = run_experiment(ExperimentConfig.from_dict(raw))
        capsys.readouterr()
        assert cli_main(["report", str(tmp_path / "rep")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["epsilon", "mean_T", "q90", "good_rate", "bound"]
        assert len(lines) == 4
        assert float(lines[1].split()[1]) == round(summary.per_epsilon[0].mean_T, 2)
        assert lines[3] == f"slope nan (r2 nan), bound violations {summary.bound_violations}"

    def test_summarize_counts_a_bound_violation_and_report_prints_it(self, tmp_path, capsys):
        # A mean T_eps above the E[T] bound at one epsilon is one violation.
        cfg = ExperimentConfig.from_dict(base_config(tmp_path / "viol", replications=2))
        prob = harness._Problem(cfg)
        bound = harness.theorem_bound_mean_T(cfg.algorithm, prob.gap0, prob.consts[1])
        rows = [{"T_eps": math.ceil(bound) + 1 if i == 1 else 3, "total_samples": 0,
                 "good_steps": 1, "n_steps": 1} for i in range(3) for _ in range(2)]
        summary = harness.summarize(cfg, prob, rows)
        assert [p.mean_T > p.bound_mean_T for p in summary.per_epsilon] == [False, True, False]
        assert summary.bound_violations == 1
        os.makedirs(cfg.output_dir)
        with open(os.path.join(cfg.output_dir, "summary.json"), "w") as fh:
            json.dump(summary.to_json(), fh)
        assert cli_main(["report", cfg.output_dir]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith("bound violations 1")

    @pytest.mark.parametrize(
        "damage, field",
        [
            ({"slope": None}, "summary.slope: missing"),
            ({"per_epsilon": "x"}, "summary.per_epsilon: must be an array, got 'x'"),
            ({"per_epsilon": [5]}, "summary.per_epsilon[0]: must be an object, got 5"),
            ({"per_epsilon": [{}]}, "summary.per_epsilon[0].epsilon: missing"),
            ({"r2": "0.9"}, "summary.r2: must be a number, got '0.9'"),
            ({"bound_violations": 1.5}, "summary.bound_violations: must be an integer"),
        ],
    )
    def test_report_bad_summary_exits_2_naming_the_field(self, tmp_path, capsys, damage, field):
        run_experiment(ExperimentConfig.from_dict(base_config(tmp_path / "rep")))
        path = tmp_path / "rep" / "summary.json"
        data = json.loads(path.read_text())
        data.update(damage)
        data = {k: v for k, v in data.items() if v is not None}
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli_main(["report", str(tmp_path / "rep")]) == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert captured.out == ""

    def test_lmo_check(self, tmp_path):
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(json.dumps({"preset": "simplex", "dim": 3}))
        assert cli_main(["lmo-check", str(poly_path), "--trials", "50"]) == 0

    def test_lmo_check_unbounded_polytope_exits_2(self, tmp_path, capsys):
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(json.dumps({"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b": [1, 1, 1]}))
        assert cli_main(["lmo-check", str(poly_path)]) == 2
        assert "config error: polytope: unbounded" in capsys.readouterr().err

    def test_concentration_trials_above_the_limit_exit_2_before_drawing(
        self, tmp_path, capsys, monkeypatch
    ):
        # 10^10 trials x d = 8 would be 8e10 values (~600 GB) in one array.
        # concentration_experiment checks the limit before its first draw.
        monkeypatch.setattr(
            harness, "sample_noise_means",
            lambda *a, **k: pytest.fail("drew samples past the trials limit"),
        )
        spec = concentration_spec()
        spec["problem"] = {"polytope": {"preset": "box", "dim": 8}}
        spec["trials"] = 10**10
        path = tmp_path / "conc.json"
        path.write_text(json.dumps(spec))
        assert cli_main(["concentration", str(path)]) == 2
        captured = capsys.readouterr()
        assert "config error: trials: 10000000000 trials x d = 8" in captured.err
        assert str(CONCENTRATION_MAX_VALUES) in captured.err
        assert captured.out == ""
        # Exactly at the limit the config is accepted.
        spec["trials"] = CONCENTRATION_MAX_VALUES // 8
        path.write_text(json.dumps(spec))
        monkeypatch.setattr(harness, "sample_noise_means",
                            lambda noise, n, size, rng: np.zeros((1, noise.dim)))
        assert cli_main(["concentration", str(path)]) == 0

    def test_concentration_command(self, tmp_path):
        path = tmp_path / "conc.json"
        path.write_text(json.dumps(concentration_spec()))
        assert cli_main(["concentration", str(path)]) == 0

    def test_concentration_takes_the_largest_binomial_n_exactly(self, tmp_path):
        # Read through floats, 2**63 - 1 would round up to 2**63 and be refused.
        spec = concentration_spec()
        spec.update(noise={"kind": "rademacher", "scale": 1.0}, n_grid=[4, 2**63 - 1])
        path = tmp_path / "conc.json"
        path.write_text(json.dumps(spec))
        assert cli_main(["concentration", str(path)]) == 0

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"seed": 1.5}, "seed: must be an integer, got 1.5"),
            ({"seed": -1}, "seed: must be >= 0, got -1"),
            ({"trials": 500}, "trials: must be >= 1000, got 500"),
            ({"trials": 1500.5}, "trials: must be an integer, got 1500.5"),
            ({"n_grid": [0, 4]}, "n_grid: must be >= 1"),
            ({"n_grid": [2.5]}, "n_grid: must be an integer, got 2.5"),
            ({"n_grid": "10"}, "n_grid: must be a nonempty 1-d array of numbers"),
            ({"n_grid": None}, "n_grid: missing"),
            ({"s_grid": [math.nan]}, "s_grid: must be finite"),
            ({"s_grid": [0.0]}, "s_grid: must be > 0"),
            ({"noise": "gaussian"}, "noise: must be an object"),
            ({"problem": None}, "problem: missing"),
            ({"noise": {"kind": "student_t", "dof": 5, "scale": 1.0}, "n_grid": [1e12]},
             "n_grid: student_t noise at n = 1000000000000 draws 3000000000000000 values, "
             "above the budget of 100000000"),
            # 1500 trials x 40,000 draws x d = 2 is 1.2e8 values: just over the budget.
            ({"noise": {"kind": "student_t", "dof": 5, "scale": 1.0}, "n_grid": [10, 40000]},
             "n_grid: student_t noise at n = 40000 draws 120000000 values, above the budget "
             "of 100000000"),
            # Generator.binomial takes n up to 2**63 - 1; 1e20 used to raise OverflowError.
            ({"noise": {"kind": "rademacher", "scale": 1.0}, "n_grid": [4, 1e20]},
             "n_grid: rademacher noise at n = 100000000000000000000 is above"),
            ({"noise": {"kind": "rademacher", "scale": 1.0}, "n_grid": [4, 10**20]},
             "n_grid: rademacher noise at n = 100000000000000000000 is above"),
            ({"noise": {"kind": "rademacher", "scale": 1.0}, "n_grid": [2**63]},
             "n_grid: rademacher noise at n = 9223372036854775808 is above"),
            ({"trial": 2000}, "trial: is not a field here; the fields are problem|noise|seed"),
            ({"problem": {"polytope": {"preset": "box", "dim": 2, "scle": 3.0}}},
             "polytope.scle: is not a field here; the fields are preset|dim|scale"),
            ({"problem": {"polytope": {"A": [[1, 0], [0, 1], [-1, -1]], "b": [1, 1, 0],
                                       "dim": 2}}},
             "polytope.dim: is not a field here; the fields are A|b"),
            ({"problem": {"polytope": {"preset": "box", "dim": 2},
                          "objective": {"eigenvalues": [1.0, 2.0], "z": [0.0, 0.0],
                                        "rotation_sed": 5}}},
             "objective.rotation_sed: is not a field here; the fields are eigenvalues|z"),
            ({"noise": {"kind": "gaussian", "sigma": 1.0, "sigm": 5.0}},
             "noise.sigm: is not a field here; the fields are kind|sigma"),
            ({"noise": {"kind": "rademacher", "scale": 1.0, "dof": 5}},
             "noise.dof: is not a field here; the fields are kind|scale"),
            ({"problem": {"polytope": {"preset": "box", "dim": 2}, "objectve": {}}},
             "problem.objectve: is not a field here; the fields are polytope|objective"),
            ({"problem": {"polytope": {"preset": "box", "dim": 2},
                          "objective": {"eigenvalues": [1.0, 2.0, 3.0], "z": [0.0, 0.0, 0.0]}}},
             "problem.objective: has dimension 3, but the polytope has dimension 2"),
        ],
        ids=["fractional_seed", "negative_seed", "few_trials", "fractional_trials", "zero_n",
             "fractional_n", "string_n_grid", "missing_n_grid", "nan_s", "zero_s",
             "string_noise", "missing_problem", "student_t_huge_n", "student_t_over_budget",
             "rademacher_huge_n", "rademacher_huge_int_n", "rademacher_one_above",
             "misspelled_trials", "misspelled_polytope_scale", "dim_in_a_b_polytope",
             "misspelled_rotation_seed", "misspelled_sigma", "dof_off_student_t",
             "misspelled_objective", "objective_dimension_mismatch"],
    )
    def test_concentration_bad_spec_exits_2(self, tmp_path, capsys, override, field):
        spec = concentration_spec()
        spec.update(override)
        spec = {k: v for k, v in spec.items() if v is not None}  # None deletes the key
        path = tmp_path / "conc.json"
        path.write_text(json.dumps(spec))
        assert cli_main(["concentration", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"config error: {field}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "damage, field",
        [
            ({"algorithm": "sgd"}, "trace.algorithm: must be one of standard|away, got 'sgd'"),
            ({"epsilon": "x"}, "trace.epsilon: must be a number, got 'x'"),
            ({"epsilon": None}, "trace.epsilon: missing"),
            ({"records": None}, "trace.records: missing"),
            ({"problem": None}, "trace.problem: missing"),
            ({"eps_g": 5}, "eps_g: 5.0 outside (0, 1/(4D))"),
            ([1, 2], "trace: must be an object, got [1, 2]"),
            ({"epsilon_g": 0.01}, "trace.epsilon_g: is not a field here; the fields are "
             "algorithm|epsilon|eps_g|problem|T_eps|total_samples|final_gap|records"),
            ({"problem": {"polytope": {"preset": "simplex", "dim": 3},
                          "objective": {"eigenvalues": [1.0, 2.0], "z": [0.4, 0.3]}}},
             "trace.problem.objective: has dimension 2, but the polytope has dimension 3"),
            ({"problem": {"polytope": {"preset": "simplex", "dim": 3}, "objectiv": {}}},
             "trace.problem.objectiv: is not a field here"),
        ],
        ids=["unknown_algorithm", "string_epsilon", "missing_epsilon", "missing_records",
             "missing_problem", "eps_g_out_of_range", "top_level_list", "unread_header_key",
             "objective_dimension_mismatch", "misspelled_objective"],
    )
    def test_verify_bad_header_exits_2(self, tmp_path, capsys, damage, field):
        raw = base_config(
            tmp_path / "bad", sampling={"mode": "exact"}, epsilon_grid=[0.1],
            replications=1, save_traces=True,
        )
        run_experiment(ExperimentConfig.from_dict(raw))
        path = tmp_path / "bad" / "trace_e0_r0.json"
        data = json.loads(path.read_text())
        if isinstance(damage, dict):
            # None deletes the key; eps_g, null in the saved trace, stays.
            data.update(damage)
            data = {k: v for k, v in data.items() if v is not None or k == "eps_g"}
        else:
            data = damage
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli_main(["verify", str(path)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--trials", "0"], ["--seed", "-1"]], ids=["trials", "seed"])
    def test_lmo_check_rejects_empty_or_unseedable_runs(self, tmp_path, capsys, argv):
        # --trials 0 would compare no direction and pass without checking anything.
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(json.dumps({"preset": "simplex", "dim": 3}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["lmo-check", str(poly_path), *argv])
        assert exc.value.code == 2
        assert "--trials must be >= 1 and --seed >= 0" in capsys.readouterr().err

    def test_main_calls_the_command_bound_at_call_time(self, tmp_path, monkeypatch):
        # The parser is built once; a cmd_* global replaced after that (as a
        # tracer does) must still be the function main calls.
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(json.dumps({"preset": "simplex", "dim": 3}))
        assert cli_main(["lmo-check", str(poly_path), "--trials", "5"]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.trace) or 7)
        assert cli_main(["verify", "some_trace.json"]) == 7
        assert calls == ["some_trace.json"]

    def test_repeated_main_calls_give_identical_outputs(self, tmp_path, capsys):
        raw = base_config(tmp_path / "rep", sampling={"mode": "exact"}, epsilon_grid=[0.2, 0.1],
                          replications=1, save_traces=True)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(json.dumps({"preset": "simplex", "dim": 3}))
        conc_path = tmp_path / "conc.json"
        conc_path.write_text(json.dumps(concentration_spec()))
        assert cli_main(["run", str(cfg_path)]) == 0
        capsys.readouterr()
        for argv in (["verify", str(tmp_path / "rep" / "trace_e1_r0.json")],
                     ["lmo-check", str(poly_path), "--trials", "20", "--seed", "3"],
                     ["concentration", str(conc_path)],
                     ["report", str(tmp_path / "rep")],
                     ["report", str(tmp_path / "missing")]):
            first = cli_main(argv), capsys.readouterr()
            second = cli_main(argv), capsys.readouterr()
            assert first == second, argv
            assert first[1].out or first[1].err

    def test_a_rejected_call_leaves_main_usable(self, tmp_path, capsys):
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(json.dumps({"preset": "simplex", "dim": 3}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["lmo-check", str(poly_path), "--trials", "0"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert cli_main(["lmo-check", str(poly_path), "--trials", "10"]) == 0
        assert capsys.readouterr().out.startswith("10 directions, worst objective mismatch")

    @pytest.mark.parametrize(
        "override",
        [
            {"noise": {"kind": "laplace", "scale": 1.0}},
            {"sampling": {"mode": "no_such_mode"}},
            {"workers": 0},
            {"max_iter": -5},
            {"sampling": {"mode": "fixed", "n": 0}},
            {"epsilon_grid": "0.1"},
            {"epsilon_grid": [0.4, math.nan]},
            {"epsilon_grid": [0.4, math.inf]},
            {"eps_g": "x"},
            {"eps_g": 5},
            {"eps_g": -1},
            {"eps_g": math.nan},
            {"sampling": "fixed"},
            {"sampling": {"mode": "fixed"}},
            {"sampling": {"mode": "subgaussian_standard"}},
            {"sampling": {"mode": "subgaussian_standard", "params": []}},
            {"sampling": {"mode": "subgaussian_standard", "params": {"c": "x"}}},
            {"sampling": {"mode": "subgaussian_standard", "params": {"c": -1}}},
            {"save_traces": "no"},
            {"output_dir": 5},
            {"save_trace": True},
            {"noise": {"kind": "gaussian", "sigma": 0.1, "sigm": 5.0}},
            {"problem": {"polytope": {"preset": "simplex", "dim": 3}, "objective": {
                "eigenvalues": [1.0, 2.0, 3.0], "z": [0.4, 0.3, 0.2]}, "scale": 2.0}},
        ],
        ids=["noise_kind", "sampling_mode", "workers", "max_iter", "fixed_n_zero",
             "string_epsilon_grid", "nan_epsilon", "inf_epsilon", "string_eps_g", "eps_g_above",
             "eps_g_negative", "eps_g_nan", "string_sampling", "fixed_without_n",
             "subgaussian_without_c", "list_params", "string_c", "negative_c",
             "string_save_traces", "numeric_output_dir", "misspelled_save_traces",
             "misspelled_sigma", "unread_problem_key"],
    )
    def test_invalid_field_exits_2(self, tmp_path, capsys, override):
        raw = base_config(tmp_path / "out")
        raw.update(override)  # override may replace output_dir itself
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 2
        assert f"config error: {next(iter(override))}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "sampling, field",
        [
            *[({"mode": "bounded_variance_away", "params": {key: 0.5}}, f"sampling.params.{key}")
              for key in ("D", "N", "omega", "M", "beta1", "beta2", "c1", "d", "epsilon")],
            ({"mode": "bounded_variance_away", "params": {"eps_g": 0.01}},
             "sampling.params.eps_g: is set by the top-level field eps_g"),
            ({"mode": "bounded_variance_standard", "params": {"pg": 0.5}},
             "sampling.params.pg: is not a field here; the fields are V_g|p_g"),
            ({"mode": "subgaussian_away", "params": {"c": 0.5, "V_g": 1.0}},
             "sampling.params.V_g: is not a field here; the fields are c"),
            ({"mode": "bounded_variance_standard", "params": {"c": 0.5}},
             "sampling.params.c: is not a field here"),
            ({"mode": "exact", "params": {}}, "sampling.params: is not a field here"),
            ({"mode": "fixed", "n": 5, "params": "junk"},
             "sampling.params: is not a field here; the fields are mode|n"),
            ({"mode": "bounded_variance_standard", "n": 5}, "sampling.n: is not a field here"),
            ({"mode": "exact", "n": 5}, "sampling.n: is not a field here"),
            ({"mode": "bounded_variance_standard", "params": {"p_g": 1.0}},
             "sampling.params.p_g: must be < 1, got 1.0"),
            ({"mode": "bounded_variance_away", "params": {"p_g": 1.5}},
             "sampling.params.p_g: must be < 1, got 1.5"),
        ],
        ids=["D", "N", "omega", "M", "beta1", "beta2", "c1", "d", "epsilon", "eps_g",
             "typo_pg", "V_g_subgaussian", "c_bounded_variance", "params_exact", "params_fixed",
             "n_formula_mode", "n_exact", "p_g_one", "p_g_above_one"],
    )
    def test_sampling_takes_only_the_modes_free_inputs(self, tmp_path, capsys, sampling, field):
        # The problem constants of a plan come from the problem only, so a
        # plan cannot disagree with the run; every other key is an error.
        raw = base_config(tmp_path / "out", algorithm="away", sampling=sampling)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "algorithm, sampling, eps_g, n_planned",
        [
            ("standard", {"mode": "bounded_variance_standard", "params": {"p_g": 0.5}}, None,
             4801),
            ("away", {"mode": "bounded_variance_away"}, 0.01, 3_238_645_785),
        ],
        ids=["given_p_g", "top_level_eps_g"],
    )
    def test_free_inputs_plan_the_criterion_4_cell(self, tmp_path, algorithm, sampling, eps_g,
                                                   n_planned):
        raw = base_config(
            tmp_path / "out", problem=CRITERION4_PROBLEM, algorithm=algorithm, epsilon_grid=[0.2],
            replications=1, noise={"kind": "gaussian", "sigma": 1.0}, sampling=sampling,
            eps_g=eps_g,
        )
        summary = run_experiment(ExperimentConfig.from_dict(raw))
        assert summary.per_epsilon[0].n_planned == n_planned

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"master_seed": 1.5}, "master_seed: must be an integer, got 1.5"),
            ({"master_seed": -1}, "master_seed: must be >= 0, got -1"),
            ({"sampling": {"mode": "fixed", "n": 2.5}}, "sampling.n: must be an integer, got 2.5"),
            ({"max_iter": 1.5}, "max_iter: must be an integer, got 1.5"),
        ],
        ids=["fractional_seed", "negative_seed", "fractional_n", "fractional_max_iter"],
    )
    def test_seed_stream_fields_exit_2_and_leave_no_output_dir(
        self, tmp_path, capsys, override, field
    ):
        # These fields feed the random streams: a fractional value must not
        # be truncated into another run, nor a negative seed reach SeedSequence.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base_config(tmp_path / "out", **override)))
        assert cli_main(["run", str(path)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "polytope, objective, noise, field",
        [
            ({"preset": "cube", "dim": 3}, None, None, "polytope.preset"),
            ({"preset": "simplex", "dim": 4}, None, None, "problem.objective"),
            (None, None, {"kind": "student_t", "dof": 2, "scale": 1.0}, "noise.dof"),
            ({"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b": [1, 1, 1]}, None, None,
             "polytope: unbounded: x[0] is not bounded below"),
            ({"preset": "box", "dim": 16}, {"eigenvalues": [1.0] * 16, "z": [0.5] * 16}, None,
             "polytope: vertex enumeration needs C(m, d) = C(32, 16)"),
            (None, {"eigenvalues": [1.0, -2.0, 3.0], "z": [0.4, 0.3, 0.2]}, None,
             "objective.eigenvalues: must be > 0"),
            (None, {"eigenvalues": [], "z": []}, None,
             "objective.eigenvalues: must be a nonempty 1-d array of numbers"),
            (None, None, {"kind": "gaussian", "sigma": -1.0}, "noise.sigma: must be >= 0"),
            (None, None, {"kind": "rademacher", "scale": -1.0}, "noise.scale: must be >= 0"),
            ({"preset": "box", "dim": 0}, {"eigenvalues": [], "z": []}, None,
             "polytope.dim: must be >= 1, got 0"),
            ({"preset": "simplex", "dim": -1}, None, None, "polytope.dim: must be >= 1, got -1"),
            ({"A": [[1, 0, 0], [0, 1, 0]], "b": [1, 1, 1]}, None, None,
             "polytope.b: A has 2 rows but b has 3 entries"),
            (None, {"eigenvalues": [1.0, 2.0], "z": [0.4, 0.3, 0.2]}, None,
             "objective.z: 2 eigenvalues but z has dimension 3"),
            ({"A": BOX3_A, "b": [1.0, 1.0, 1.0, math.nan, 0.0, 0.0]}, None, None,
             "polytope.b: must be finite"),
            ({"A": [[math.inf, 0, 0]] + BOX3_A[1:], "b": [1, 1, 1, 0, 0, 0]}, None, None,
             "polytope.A: must be finite"),
            ({"preset": "box", "dim": 3, "scale": math.inf}, None, None,
             "polytope.scale: must be finite"),
            (None, {"eigenvalues": [1.0, 2.0, 3.0], "z": [math.inf, 0.3, 0.2]}, None,
             "objective.z: must be finite"),
            (None, None, "gaussian", "noise: must be an object, got 'gaussian'"),
            (None, None, {"kind": "gaussian", "sigma": "a"}, "noise.sigma: must be a number"),
            (None, None, {"kind": "gaussian", "sigma": math.inf}, "noise.sigma: must be finite"),
            (None, None, {"kind": "gaussian"}, "noise.sigma: missing"),
            (None, None, {"kind": "student_t", "dof": "5", "scale": 1.0},
             "noise.dof: must be an integer, got '5'"),
            (None, None, {"kind": "student_t", "dof": 4.5, "scale": 1.0},
             "noise.dof: must be an integer, got 4.5"),
            ({"A": [[1, 0, 0], [0, 1], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
              "b": [1, 1, 1, 0, 0, 0]}, None, None,
             "polytope.A: must be a nonempty 2-d array of numbers"),
            ("simplex", None, None, "polytope: must be an object, got 'simplex'"),
            ({"preset": "box", "dim": 3, "scale": -1}, None, None,
             "polytope.scale: must be > 0, got -1"),
            ({"preset": "box", "dim": 3, "scale": 0}, None, None,
             "polytope.scale: must be > 0, got 0"),
            ({"preset": "simplex", "dim": "3"}, None, None,
             "polytope.dim: must be an integer, got '3'"),
            ({"preset": "simplex", "dim": 2.5}, None, None,
             "polytope.dim: must be an integer, got 2.5"),
            (None, {"eigenvalues": [1.0, math.inf, 3.0], "z": [0.4, 0.3, 0.2]}, None,
             "objective.eigenvalues: must be finite"),
            (None, {"eigenvalues": [1.0, 2.0, 3.0], "z": [0.4, 0.3, 0.2], "rotation_seed": "x"},
             None, "objective.rotation_seed: must be an integer, got 'x'"),
            (None, {"eigenvalues": [1.0, 2.0, 3.0], "z": [0.4, 0.3, 0.2], "rotation_seed": 1.5},
             None, "objective.rotation_seed: must be an integer, got 1.5"),
            (None, {"eigenvalues": [1.0, 2.0, 3.0]}, None, "objective.z: missing"),
        ],
        ids=["unknown_preset", "dimension_mismatch", "student_t_dof", "unbounded", "subset_cap",
             "nonpositive_eigenvalue", "empty_objective", "negative_sigma",
             "negative_rademacher_scale", "box_dim_zero", "simplex_dim_negative",
             "a_b_row_mismatch", "eigenvalues_z_length_mismatch", "nan_in_b", "inf_in_A",
             "inf_scale", "inf_in_z", "string_noise", "string_sigma", "inf_sigma",
             "missing_sigma", "string_dof", "fractional_dof", "ragged_A", "string_polytope",
             "negative_scale", "zero_scale", "string_dim", "fractional_dim", "inf_eigenvalue",
             "string_rotation_seed", "fractional_rotation_seed", "missing_z"],
    )
    def test_bad_problem_exits_2_and_leaves_no_output_dir(
        self, tmp_path, capsys, polytope, objective, noise, field
    ):
        raw = base_config(tmp_path / "out")
        raw["problem"]["polytope"] = polytope or raw["problem"]["polytope"]
        raw["problem"]["objective"] = objective or raw["problem"]["objective"]
        raw["noise"] = noise or raw["noise"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_saved_traces_past_the_record_limit_exit_2_naming_max_iter(self, tmp_path, capsys,
                                                                      monkeypatch):
        # A saved trace holds max_iter + 1 records at worst. The limit admits
        # max_iter = 10**6, which the example config uses; it does not apply
        # without save_traces, where a run keeps no records.
        monkeypatch.setattr(harness, "run", lambda *a, **k: pytest.fail("a cell ran"))
        for max_iter, save_traces in ((10**6, True), (TRACE_MAX_RECORDS - 1, True),
                                      (TRACE_MAX_RECORDS, False)):
            cfg = ExperimentConfig.from_dict(
                base_config(tmp_path, max_iter=max_iter, save_traces=save_traces))
            assert cfg.max_iter == max_iter
        raw = base_config(tmp_path / "out", max_iter=TRACE_MAX_RECORDS, save_traces=True)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 2
        assert (f"config error: max_iter: {TRACE_MAX_RECORDS} lets a saved trace hold "
                f"{TRACE_MAX_RECORDS + 1} records, above the limit of {TRACE_MAX_RECORDS}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_sampling_typo_exits_2_before_any_polytope_work(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(geometry, "enumerate_vertices",
                            lambda P: pytest.fail("vertices enumerated before sampling was read"))
        raw = base_config(tmp_path / "out", sampling={"mode": "fixd", "n": 10})
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 2
        assert "config error: sampling.mode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_p_g_rounding_to_one_exits_2_naming_m(self, tmp_path, capsys):
        # z far outside the simplex gives M = 1400, where both good-event
        # bounds round to exactly 1 and bounded-variance plans are unbounded.
        problem = {
            "polytope": {"preset": "simplex", "dim": 3},
            "objective": {"eigenvalues": [1.0, 2.0, 4.0], "z": [20.0, 20.0, 20.0]},
        }
        raw = base_config(
            tmp_path / "out", problem=problem, epsilon_grid=[0.1],
            noise={"kind": "gaussian", "sigma": 1.0},
            sampling={"mode": "bounded_variance_standard"},
        )
        path = tmp_path / "pg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "M = 1400.0" in err and "p_g = 1.0" in err

    def test_student_t_plan_over_budget_exits_2_naming_n(self, tmp_path, capsys):
        problem = {
            "polytope": {"preset": "simplex", "dim": 3},
            "objective": {"eigenvalues": [1.0, 2.0, 4.0], "z": [0.8, 0.6, 0.4]},
        }
        raw = base_config(
            tmp_path / "out", problem=problem, epsilon_grid=[0.2],
            noise={"kind": "student_t", "dof": 5, "scale": 1.0},
            sampling={"mode": "bounded_variance_standard"},
        )
        path = tmp_path / "t.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 2
        assert "n = 197792169" in capsys.readouterr().err

    @pytest.mark.parametrize("n, code", [(2**63 - 1, 0), (2**63, 2), (10**20, 2)],
                             ids=["largest", "one_above", "1e20"])
    def test_rademacher_n_above_the_binomial_range_exits_2_naming_n(self, tmp_path, capsys,
                                                                    n, code):
        raw = base_config(
            tmp_path / "out", epsilon_grid=[0.01], replications=1,
            noise={"kind": "rademacher", "scale": 1.0}, sampling={"mode": "fixed", "n": n},
        )
        path = tmp_path / "r.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == code
        if code == 2:
            assert f"config error: sampling.n: rademacher noise at n = {n} is above" in (
                capsys.readouterr().err
            )

    @pytest.mark.parametrize("grid, field", [
        ([1e-300, 1e-200, 1e-100], "sampling"), ([1e308, 1e307, 1e306], "sampling"),
        ([1e-160], "sampling"), ([1e-320], "epsilon"), ([5e-324], "epsilon"),
    ], ids=["tiny", "huge", "1e-160", "1e-320", "5e-324"])
    @pytest.mark.parametrize("sampling", [
        {"mode": "exact"}, {"mode": "fixed", "n": 10},
        {"mode": "bounded_variance_standard"}, {"mode": "bounded_variance_away"},
        {"mode": "subgaussian_standard", "params": {"c": 0.5}},
        {"mode": "subgaussian_away", "params": {"c": 0.5}},
    ], ids=lambda s: s["mode"])
    @pytest.mark.parametrize("algorithm", ["standard", "away"])
    def test_extreme_epsilon_exits_0_or_2_and_leaves_no_output_dir_on_2(
        self, tmp_path, capsys, grid, field, sampling, algorithm
    ):
        # eps^2 underflows to 0 or overflows here: a planned n that is not
        # finite is a config error before any cell runs, and the mean-T
        # bound overflows to inf instead of raising. At 1e-320 and below,
        # delta_A underflows to 0 in every mode: epsilon itself is refused.
        raw = base_config(
            tmp_path / "out", problem=CRITERION4_PROBLEM, algorithm=algorithm,
            noise={"kind": "gaussian", "sigma": 1.0}, sampling=sampling, epsilon_grid=grid,
            replications=1, max_iter=20,
        )
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(raw))
        code = cli_main(["run", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert "Traceback" not in err
        if field == "epsilon":
            assert code == 2
        if code == 2:
            assert f"config error: {field}" in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("polytope, message", [
        # Infeasible in prove_bounded's phase one.
        ({"A": [[1, -1], [-1, 1]], "b": [-1, -1]}, "the polytope is empty (phase one"),
        # Both directions certified by axis rows: enumeration finds no vertex.
        ({"A": [[1], [-1]], "b": [-1, -1]}, "no basic feasible solution found"),
        ({"A": [[1], [-1]], "b": [0, 0]}, "the polytope is a single point"),
    ], ids=["empty_phase_one", "empty_no_vertex", "single_point"])
    def test_empty_or_single_point_polytope_exits_2_naming_polytope(self, tmp_path, capsys,
                                                                   polytope, message):
        d = len(polytope["A"][0])
        objective = {"eigenvalues": [1.0] * d, "z": [0.0] * d}
        raw = base_config(tmp_path / "out", problem={"polytope": polytope,
                                                     "objective": objective})
        path = tmp_path / "p.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 2
        assert f"config error: polytope: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"algorithm": "standard"}))
        assert cli_main(["run", str(path)]) == 2
        assert cli_main(["run", str(tmp_path / "missing.json")]) == 2


_DELETE = object()
# Fields of base_config a mutation may replace or delete; an int indexes a
# list. output_dir is left out: a string there would write outside tmp.
_FIELDS = [
    ("algorithm",), ("epsilon_grid",), ("epsilon_grid", 0), ("replications",),
    ("master_seed",), ("max_iter",), ("eps_g",), ("workers",),
    ("save_traces",), ("noise",), ("noise", "kind"), ("noise", "sigma"), ("noise", "dof"),
    ("sampling",), ("sampling", "mode"), ("sampling", "n"), ("sampling", "params"),
    ("problem",), ("problem", "polytope"), ("problem", "polytope", "preset"),
    ("problem", "polytope", "dim"), ("problem", "polytope", "scale"),
    ("problem", "polytope", "A"), ("problem", "objective"),
    ("problem", "objective", "eigenvalues"), ("problem", "objective", "eigenvalues", 0),
    ("problem", "objective", "z"), ("problem", "objective", "z", 1),
    ("problem", "objective", "rotation_seed"),
]
# Small values only: a valid mutation must still run in well under a second.
_VALUES = [
    _DELETE, None, True, False, "x", "0.1", "gaussian", "student_t", "subgaussian_away", "box",
    [], {}, [1.0, "a"], [[1, 0], [1]], {"c": -1}, {"pg": 0.5}, {"D": 1.0}, {"kind": "student_t"},
    -1, 0, 1, 2, 3, 2.5, 0.05, 10.0, math.nan, math.inf, -math.inf,
    {"preset": "box", "dim": 3, "scle": 3.0}, {"kind": "gaussian", "sigma": 0.1, "sigm": 5.0},
    {"eigenvalues": [1.0, 2.0, 3.0], "z": [0.4, 0.3, 0.2], "rotation_sed": 5},
]


def _mutate(raw, path, value):
    """Replace (or delete) the field at path; a path an earlier mutation
    broke is skipped."""
    *steps, last = path
    try:
        for step in steps:
            raw = raw[step]
        if value is _DELETE:
            del raw[last]
        else:
            # A copy: a shared dict from _VALUES would carry one example's
            # mutations into the next, or into itself.
            raw[last] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FIELDS), st.sampled_from(_VALUES)), min_size=1,
                max_size=3))
def test_mutated_config_exits_cleanly(mutations):
    # Whatever the fields hold, `polyfw run` succeeds (0), names a config
    # error (2) or a failed check (3); it never raises, and a config error
    # leaves no output directory behind.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        raw = base_config(out)
        for path, value in mutations:
            _mutate(raw, path, value)
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code = cli_main(["run", str(cfg_path)])
        assert code in (0, 2, 3)
        if code == 2:
            assert not out.exists()


def _benchmark_workloads():
    """benchmark/workloads.py, loaded from its file as the benchmark runs it."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_plans_through_the_library_api(tmp_path):
    # The benchmark's set-up probe plans n through resolve_plan with a holder
    # of the polytope and noise only, and plan_sample_size from polyfw: both
    # must give the per-epsilon n the harness runs with.
    workloads = _benchmark_workloads()
    for name in workloads.WORKLOADS:
        raw = workloads.experiment_config(name, 1, str(tmp_path))
        prob = harness._Problem(ExperimentConfig.from_dict(raw))
        assert workloads.build_problem(raw)["n_planned"] == prob.n_planned, name
