"""Set-up probe: run in a fresh process, it imports polyfw from the
checkout's `src/`, builds one workload's problem from its config file and
prints the planned sample sizes. `run.py` times it from launch to that line.

    python3 benchmark/setup_probe.py CONFIG.json
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import build_problem  # noqa: E402


def main() -> int:
    with open(sys.argv[1]) as fh:
        config = json.load(fh)
    built = build_problem(config)
    print(json.dumps(built["n_planned"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
