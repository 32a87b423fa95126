"""Set-up time of one workload in a fresh interpreter.

    PYTHONPATH=src python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds spent importing curvsimplex plus building the workload's
library-side inputs (EdgeLengths, BarycentricPoint, CurvatureSpec objects).
Making the raw inputs from the seed is the benchmark's own work and is not
counted.
"""

import sys
import time


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import curvsimplex
    import_s = time.perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[name](curvsimplex, seed, None)
    raw = wl.generate()
    t1 = time.perf_counter()
    wl.build(raw)
    print(import_s + time.perf_counter() - t1)


if __name__ == "__main__":
    main()
