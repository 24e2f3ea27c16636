"""Golden outputs: three small experiments shaped like the benchmark's
workloads must reproduce the fixtures under tests/golden/ byte for byte.
Compared are runs.csv without its wall_ms column, summary.json, and the
SHA-256 of every trace_*.json.

A refactor leaves these outputs unchanged. A change that alters them by
design regenerates the fixtures of the configs it changed with

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

(no NAME regenerates every fixture) and says so in CHANGES.md, naming them.
"""

import hashlib
import json
import os
import sys

import pytest

from polyfw.cli import main as cli_main
from polyfw.harness import ExperimentConfig, run_experiment, trace_from_json, trace_to_json

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

SIMPLEX3 = {
    "polytope": {"preset": "simplex", "dim": 3},
    "objective": {"eigenvalues": [1.0, 2.0, 4.0], "z": [0.8, 0.6, 0.4]},
}
BOX8 = {
    "polytope": {"preset": "box", "dim": 8, "scale": 1.0},
    "objective": {
        "eigenvalues": [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 3.75, 4.0],
        "rotation_seed": 5,
        "z": [1.3, -0.3, 0.6, 1.2, -0.2, 0.4, 1.1, 0.5],
    },
}

CONFIGS = {
    "standard-gaussian": {
        "problem": SIMPLEX3,
        "algorithm": "standard",
        "noise": {"kind": "gaussian", "sigma": 1.0},
        "sampling": {"mode": "bounded_variance_standard"},
        "epsilon_grid": [0.2, 0.1, 0.05],
    },
    "away-rademacher": {
        "problem": SIMPLEX3,
        "algorithm": "away",
        "noise": {"kind": "rademacher", "scale": 1.0},
        "sampling": {"mode": "subgaussian_away", "params": {"c": 0.5}},
        "epsilon_grid": [0.2, 0.1, 0.05],
    },
    "away-box8-traces": {
        "problem": BOX8,
        "algorithm": "away",
        "noise": {"kind": "gaussian", "sigma": 1.0},
        "sampling": {"mode": "fixed", "n": 1000},
        "epsilon_grid": [0.1, 0.05, 0.025],
        "save_traces": True,
    },
}


def golden_config(name: str, out_dir: str, seed: int = 71) -> dict:
    """The `polyfw run` config of one golden experiment; the fixtures use seed 71."""
    return {**CONFIGS[name], "replications": 2, "master_seed": seed, "max_iter": 10**5,
            "output_dir": out_dir}


def golden_outputs(name: str, out_dir: str) -> dict[str, str]:
    """Run one config into out_dir; return the compared outputs by file name."""
    run_experiment(ExperimentConfig.from_dict(golden_config(name, out_dir)))
    return read_outputs(out_dir)


def read_outputs(out_dir: str) -> dict[str, str]:
    """The compared outputs of a finished run in out_dir, by file name."""
    with open(os.path.join(out_dir, "runs.csv")) as fh:
        runs = "".join(line.rsplit(",", 1)[0] + "\n" for line in fh)
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = fh.read()
    traces = []
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith("trace_"):
            with open(os.path.join(out_dir, fname), "rb") as fh:
                traces.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {fname}\n")
    return {"runs.csv": runs, "summary.json": summary, "traces.sha256": "".join(traces)}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden(name, tmp_path):
    outputs = golden_outputs(name, str(tmp_path))
    for fname, text in outputs.items():
        with open(os.path.join(GOLDEN_DIR, name, fname)) as fh:
            assert text == fh.read(), f"{name}/{fname} differs from its golden fixture"


@pytest.mark.parametrize("name", [n for n in sorted(CONFIGS) if CONFIGS[n].get("save_traces")])
def test_saved_traces_pass_verify(name, tmp_path):
    golden_outputs(name, str(tmp_path))
    paths = sorted(tmp_path.glob("trace_*.json"))
    assert paths
    for path in paths:
        assert cli_main(["verify", str(path)]) == 0, f"{path.name} fails polyfw verify"


@pytest.mark.parametrize("name", [n for n in sorted(CONFIGS) if CONFIGS[n].get("save_traces")])
def test_saved_traces_are_json_dumps_of_trace_to_json(name, tmp_path):
    # The streamed writer's bytes, trace by trace, against one json.dumps of
    # the whole trace rebuilt from the file.
    golden_outputs(name, str(tmp_path))
    cfg = ExperimentConfig.from_dict(golden_config(name, str(tmp_path)))
    paths = sorted(tmp_path.glob("trace_*.json"))
    assert len(paths) == len(cfg.epsilon_grid) * 2
    for path in paths:
        text = path.read_text()
        eps_index = int(path.name.split("_")[1][1:])
        trace = trace_from_json(json.loads(text))
        assert text == json.dumps(trace_to_json(cfg, eps_index, trace)), path.name


def _regenerate(names: list[str]) -> None:
    import tempfile

    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        sys.exit(f"unknown golden config(s) {', '.join(unknown)}; "
                 f"choose from {', '.join(sorted(CONFIGS))}")
    for name in sorted(set(names) or CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = golden_outputs(name, tmp)
        os.makedirs(os.path.join(GOLDEN_DIR, name), exist_ok=True)
        for fname, text in outputs.items():
            with open(os.path.join(GOLDEN_DIR, name, fname), "w") as fh:
                fh.write(text)
        print(f"wrote {os.path.join(GOLDEN_DIR, name)}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
