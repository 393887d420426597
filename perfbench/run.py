"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload {lockstep,slack,checkpoint,jobs} \
        --seed N --seconds S --trace {0,1}

Kept free of top-level work: the service's spawned workers import this
file as their main module.
"""

import time

STARTED = time.perf_counter()

if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
    from perfbench.bench import main

    sys.exit(main(started=STARTED))
