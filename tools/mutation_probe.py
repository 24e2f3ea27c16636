"""Mutation probe of the paper's formulas and of the active set's dust-mask
skip: does some test, other than a golden fixture or a value pinned from the
program's own output, catch each mutation?

    python3 tools/mutation_probe.py           # run every mutation (~25 s each)
    python3 tools/mutation_probe.py --check   # only check the table against src/

Each mutation in MUTATIONS changes one constant of one formula, or makes
the lower bound that lets `ActiveSet` skip its drop mask unsound (the skip
then keeps weights at or below DROP_TOL that the mask would zero): its
target text, which must occur exactly once under `src/`, is replaced. The
tier-1 suite then runs on a fresh copy of the checkout (`src/`, `tests/`,
`benchmark/` and `README.md`, which tests read) made under the system's
temporary directory. Failing tests are sorted into goldens
(`tests/test_golden.py`), pinned values (PINNED) and the rest, which are
independent checks. The tool prints one table row per mutation and the
failing tests of each, and exits 1 when a mutation is not caught by an
independent test.

`--check` runs no test: it exits 1 unless every target occurs exactly once
in `src/`, so the table stays in step with the code it mutates.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# (formula and change, target text in src/, replacement)
MUTATIONS = [
    ("delta_A halved",
     "delta_A = (beta2 * epsilon / 2.0) / (2.0 + beta2 * epsilon)",
     "delta_A = (beta2 * epsilon / 4.0) / (2.0 + beta2 * epsilon)"),
    ("away p_g: 2M nu made 4M nu",
     "2.0 * M * nu + 1.0 - nu,", "4.0 * M * nu + 1.0 - nu,"),
    ("away good event: eps_g g_vs made 2 eps_g g_vs",
     "return grad_error <= eps_g * g_vs", "return grad_error <= 2.0 * eps_g * g_vs"),
    ("emp_mgf: delta T / 2 made delta T / 4",
     "return 0.5 * delta", "return 0.25 * delta"),
    ("standard good event: eps / (4D) made eps / (2D)",
     "return epsilon / (4.0 * D)", "return epsilon / (2.0 * D)"),
    ("check tolerance: 1e-9 max(1, abs(gap)) made 1e-3 max(1, abs(gap))",
     "tol = 1e-9 * max(1.0, abs(gap))", "tol = 1e-3 * max(1.0, abs(gap))"),
    ("away contraction: (1 - beta2) made (1 - beta2 / 2)",
     "return next_gap - (1.0 - beta2) * gap, tol",
     "return next_gap - (1.0 - beta2 / 2.0) * gap, tol"),
    ("beta1: 8 L D^2 made 4 L D^2",
     "min(epsilon / (8.0 * L * D * D), 0.25)", "min(epsilon / (4.0 * L * D * D), 0.25)"),
    ("beta2: 8 L D^2 made 16 L D^2",
     "half_minus / (8.0 * L * D * D * (", "half_minus / (16.0 * L * D * D * ("),
    ("nu: beta2 eps / 2 made beta2 eps / 4",
     "nu = 1.0 / (1.0 + beta2 * epsilon / 2.0)", "nu = 1.0 / (1.0 + beta2 * epsilon / 4.0)"),
    ("default eps_g: 1 / (8D) made 1 / (16D)",
     "eps_g = 1.0 / (8.0 * D)", "eps_g = 1.0 / (16.0 * D)"),
    ("standard E[T] bound: 2 gap0 made 4 gap0",
     "return 2.0 * gap0 * max(quad, 4.0 / epsilon)",
     "return 4.0 * gap0 * max(quad, 4.0 / epsilon)"),
    ("away E[T] bound: 4 / (beta2 eps) made 2 / (beta2 eps)",
     "(2.0 + 4.0 / (beta2 * epsilon))", "(2.0 + 2.0 / (beta2 * epsilon))"),
    ("bounded-variance standard n: 16 V_g made 8 V_g",
     "return 16.0 * V_g * (D * D)", "return 8.0 * V_g * (D * D)"),
    ("bounded-variance away n: 2 V_g made 4 V_g",
     "return 2.0 * V_g * (", "return 4.0 * V_g * ("),
    ("sub-Gaussian standard n: 16 D^2 made 8 D^2",
     "front = 16.0 * (D * D)", "front = 8.0 * (D * D)"),
    ("sub-Gaussian away n: c c1 eps made 2 c c1 eps",
     "/ (c * c1 * epsilon)", "/ (2.0 * c * c1 * epsilon)"),
    ("c1: 2 (2 eps_g D + 1)^2 made 4 (2 eps_g D + 1)^2",
     "mu / (2.0 * (2.0 * eps_g * D + 1.0) ** 2)", "mu / (4.0 * (2.0 * eps_g * D + 1.0) ** 2)"),
    ("away Lyapunov potential: (1 - nu) active_size made (1 + nu) active_size",
     "return nu * gap + (1.0 - nu) * active_size", "return nu * gap + (1.0 + nu) * active_size"),
    ("standard decrease check: beta1 eps made beta1 eps / 2",
     "return (next_gap - gap) - (-beta1 * epsilon), tol",
     "return (next_gap - gap) - (-beta1 * epsilon / 2.0), tol"),
    ("standard p_g: e^(2M) made e^(4M)",
     "_exp_ratio(2.0 * M, -delta_S", "_exp_ratio(4.0 * M, -delta_S"),
    ("active-set FW bound: min(low (1 - gamma), gamma) made gamma",
     "min(self.low * keep * SLACK, gamma)", "gamma"),
    ("active-set away bound: the kept away weight ignored",
     "low = min(low, rest)", "low = low"),
    ("active-set mask threshold: 2 DROP_TOL made 0",
     "MASK_BELOW = 2.0 * DROP_TOL", "MASK_BELOW = 0.0"),
]

GOLDEN = "tests/test_golden.py"
# Tests whose expected value was taken from the program's own earlier output.
PINNED = ("test_free_inputs_plan_the_criterion_4_cell[top_level_eps_g]",)
# What the tests read: copied into each fresh checkout.
COPIED = ("src", "tests", "benchmark", "README.md")


def src_files(src: str) -> list[str]:
    return sorted(os.path.join(root, name) for root, _, files in os.walk(src)
                  for name in files if name.endswith(".py"))


def occurrences(target: str, src: str) -> list[tuple[str, int]]:
    """(file, count) of every file under src holding target."""
    out = []
    for path in src_files(src):
        with open(path) as fh:
            count = fh.read().count(target)
        if count:
            out.append((path, count))
    return out


def check() -> int:
    bad = 0
    for name, target, _ in MUTATIONS:
        found = occurrences(target, SRC)
        total = sum(count for _, count in found)
        if total != 1:
            bad += 1
            print(f"{name}: target {target!r} occurs {total} times in src/")
    print(f"{len(MUTATIONS) - bad} of {len(MUTATIONS)} targets occur exactly once in src/")
    return 1 if bad else 0


def failing_tests(target: str, replacement: str) -> list[str]:
    """Node ids of the tests that fail on a fresh mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        for item in COPIED:
            source = os.path.join(ROOT, item)
            if os.path.isdir(source):
                shutil.copytree(source, os.path.join(tmp, item),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, tmp)
        (path, _), = occurrences(target, os.path.join(tmp, "src"))
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace(target, replacement))
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider",
             "tests"], cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # not a test outcome: interrupted or a usage error
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]


def probe() -> int:
    if check():
        return 1
    print()
    print("| mutation | independent tests failed | goldens failed | pinned failed | caught |")
    print("| --- | --- | --- | --- | --- |")
    details, uncaught = [], 0
    for name, target, replacement in MUTATIONS:
        failed = failing_tests(target, replacement)
        golden = [t for t in failed if t.startswith(GOLDEN)]
        pinned = [t for t in failed if t not in golden and t.endswith(PINNED)]
        independent = [t for t in failed if t not in golden and t not in pinned]
        uncaught += not independent
        shown = ", ".join(f"`{t.rpartition('::')[2]}`" for t in independent[:2])
        more = f" (+{len(independent) - 2})" if len(independent) > 2 else ""
        print(f"| {name} | {len(independent)}: {shown}{more} | {len(golden)} | {len(pinned)} "
              f"| {'yes' if independent else 'NO'} |", flush=True)
        details.append((name, independent, golden, pinned))
    for name, independent, golden, pinned in details:
        print(f"\n{name}")
        for label, tests in (("independent", independent), ("golden", golden),
                             ("pinned", pinned)):
            for test in tests:
                print(f"  {label}: {test}")
    print(f"\n{len(MUTATIONS) - uncaught} of {len(MUTATIONS)} mutations caught by an "
          f"independent test")
    return 1 if uncaught else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="only check that every target occurs exactly once in src/")
    return check() if ap.parse_args().check else probe()


if __name__ == "__main__":
    sys.exit(main())
