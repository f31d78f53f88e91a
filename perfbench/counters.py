"""Print the deterministic counters of one traced cycle as a JSON line.

    python3 perfbench/counters.py WORKLOAD SEED

``run.py --trace 1`` starts this in a fresh interpreter, with another hash
seed, and fails the run if any counter differs from its own traced cycle.
"""

import json
import sys

from run import ROOT, fresh_setup, traced_cycle
from tracing import DETERMINISTIC

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    workload, seed = sys.argv[1], int(sys.argv[2])
    _, cycles = fresh_setup(workload, seed)
    metrics, problems, _ = traced_cycle(workload, seed, cycles)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({name: metrics[name] for name in DETERMINISTIC}))
    sys.exit(1 if problems else 0)
