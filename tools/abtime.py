"""Same-process A/B timer: one benchmark workload on the sources of two trees.

    python tools/abtime.py TREE_A TREE_B [--workload NAME] [--seed N] [--blocks B] [--queries Q]

Each TREE is a checkout (made with ``git archive``, say) holding
``src/curvsimplex``.  Both packages are copied into one temporary directory
as ``curvsimplex_a`` and ``curvsimplex_b`` and imported into this process.
One in-process workload of ``bench/workloads.py`` (``stream_small``,
``project_large`` or ``pairs_reuse``) is built from the seed on each side;
the benchmark files are imported, never changed.  Every query of a block
runs once, untimed, on each side and must pass the workload's ``check``:
a side that fails one is refused (exit 2).

The timer then runs B blocks of Q queries on each side, alternating which
side runs first, and times each with ``time.process_time``.  It prints the
min, p25 and median microseconds per query of each side, their ratio B/A, and
in how many blocks B was faster than the A block paired with it.  Both sides
share one process, one numpy and one phase of a machine's speed, so their
ratio resolves differences of a few percent that separate wall-clock runs
do not.  It is a pointer for sizing a change, not a record:
``bench/run.py`` measures the end-to-end metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, as the benchmark runs.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent.parent / "bench"
# Queries in one timed block: whole mix periods of each workload (bench/run.py's traced pass).
QUERIES = {"stream_small": 500, "project_large": 200, "pairs_reuse": 10000}


def load(tree: str, name: str, tmp: str):
    """The curvsimplex package of ``tree``, copied into ``tmp`` and imported as ``name``."""
    src = Path(tree) / "src" / "curvsimplex"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: no curvsimplex sources under {Path(tree) / 'src'}")
    shutil.copytree(src, Path(tmp) / name)
    return importlib.import_module(name)


def side(lib, workload: str, seed: int, queries: int):
    """(run, items) of the workload on ``lib``; SystemExit(2) if a query fails its check."""
    import workloads

    wl = workloads.WORKLOADS[workload](lib, seed, workloads.Context("", sys.executable, {}))
    wl.setup(wl.generate())
    items = [wl.item(i) for i in range(queries)]
    for item in items:
        problems = wl.check(item, wl.run(item))
        if problems:
            print(f"error: {lib.__name__} fails a {workload} query: {problems[0]}",
                  file=sys.stderr)
            raise SystemExit(2)
    return wl.run, items


def block_us(run, items) -> float:
    """CPU microseconds per query of one pass over ``items``."""
    t0 = time.process_time()
    for item in items:
        run(item)
    return (time.process_time() - t0) * 1e6 / len(items)


def summary(times: list[float]) -> tuple[float, float, float]:
    """(min, p25, median) of the block times; p25 by nearest rank below."""
    ordered = sorted(times)
    return ordered[0], ordered[(len(ordered) - 1) // 4], statistics.median(ordered)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", choices=sorted(QUERIES), default="stream_small")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, default=20, help="timed blocks per side")
    parser.add_argument("--queries", type=int, help="queries per block (default: per workload)")
    args = parser.parse_args(argv)
    if args.blocks < 1 or (args.queries is not None and args.queries < 1):
        parser.error("--blocks and --queries must be positive")
    queries = args.queries or QUERIES[args.workload]

    sys.dont_write_bytecode = True  # no __pycache__ under bench/ or the trees
    sys.path.insert(0, str(BENCH))
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [side(load(tree, name, tmp), args.workload, args.seed, queries)
                 for tree, name in ((args.tree_a, "curvsimplex_a"),
                                    (args.tree_b, "curvsimplex_b"))]
        times: list[list[float]] = [[], []]
        for k in range(args.blocks):  # the packages load modules on first use: keep tmp
            for s in ((0, 1) if k % 2 == 0 else (1, 0)):
                times[s].append(block_us(*sides[s]))

    a, b = summary(times[0]), summary(times[1])
    print(f"{args.workload} seed {args.seed}: {args.blocks} blocks of {queries} queries "
          "per side, CPU microseconds per query")
    print(f"{'':8}{'min':>10}{'p25':>10}{'median':>10}")
    print(f"{'A':8}" + "".join(f"{v:10.2f}" for v in a))
    print(f"{'B':8}" + "".join(f"{v:10.2f}" for v in b))
    print(f"{'B/A':8}" + "".join(f"{y / x:10.4f}" for x, y in zip(a, b)))
    wins = sum(y < x for x, y in zip(*times))
    print(f"B faster in {wins} of {args.blocks} blocks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
