"""Fixed reference work that scales the benchmark's times to one machine speed.

The reference machine is shared, and its speed swings: the same queries
take up to twice as long in some phases (seconds to a minute long) as in
others, while the process's CPU time grows exactly as its wall time (no time
is stolen), so neither longer runs nor CPU time remove the swing.  Work of
the same kind, timed next to the queries, slows by nearly the same factor.
So every query latency is multiplied by ``REF_S / t``, where ``t`` is the
median of the latest three calibration times: the result is the latency on
a machine on which the calibration takes ``REF_S``, about the reference
machine in a fast phase.

Neither calibration calls curvsimplex, so no change to the library moves it.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

import gen

CAL_SEED = 20210712  # fixed: every seed and every commit calibrate on the same inputs


class Kernel:
    """Fixed numpy work from gen.py, of the same kind as a workload's
    in-process queries: small-array and n = 40 linear algebra slow by
    different factors in a slow phase, so each has its own kernel."""

    def __init__(self, large: bool) -> None:
        rng = np.random.default_rng(CAL_SEED)
        if large:
            # Feet and a volume of n = 40 simplices: project_large's solves.
            simplices = [(kappa, gen.points(rng, kappa, 40)) for kappa in gen.KAPPAS]
            self.work = [functools.partial(gen.foot, kappa, pts, 2) for kappa, pts in simplices]
            self.work.append(functools.partial(gen.volume, simplices[0][1]))
            self.REF_S = 0.65e-3
        else:
            # Edges and feet of n = 3 and 10 simplices: the small arrays of
            # stream_small and pairs_reuse.
            self.work = []
            for kappa in gen.KAPPAS:
                for n in (3, 10):
                    pts = gen.points(rng, kappa, n)
                    self.work += [functools.partial(gen.edges, kappa, pts),
                                  functools.partial(gen.foot, kappa, pts, 2)]
            self.REF_S = 1.05e-3

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for step in self.work:
            step()
        return time.perf_counter() - t0


class Spawn:
    """One ``python -c "import numpy"`` process: interpreter start-up and an
    import, like a CLI call or a set-up probe."""

    REF_S = 0.125

    def __init__(self, python: str, env: dict) -> None:
        self.argv = [python, "-c", "import numpy"]
        self.env = env

    def seconds(self) -> float:
        t0 = time.perf_counter()
        pid = os.posix_spawn(self.argv[0], self.argv, self.env)
        _, status = os.waitpid(pid, 0)
        elapsed = time.perf_counter() - t0
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"calibration process {self.argv} failed")
        return elapsed
