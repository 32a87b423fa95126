"""curvsimplex benchmark: seeded closed-loop workloads with correctness checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` next to this
directory, which is never installed.  ``--trace 0`` measures the end-to-end
metrics, every time scaled to one machine speed by a calibration timed
next to the queries (bench/calibrate.py); ``--trace 1`` alternates untraced
and traced passes over a fixed query sequence and reports the per-layer
metrics (see bench/README.md).
A readable report goes to stdout first; the last line is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads, for this process and every
# child it starts: otherwise OpenBLAS spins a second thread in each process.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# The in-process calibration (about 1 ms) runs between queries once this
# much time has passed since the last one, so it costs about 5% of a run and
# follows the machine's speed phases closely; the CLI is calibrated before
# every call (see bench/calibrate.py).
CALIBRATION_PERIOD_S = 0.025
# Latencies are scaled by the median of the last few calibration times, so
# that one disturbed calibration does not skew a period's queries (and with
# them the tail), while a speed phase, lasting seconds, is still followed.
CALIBRATION_WINDOW = 3
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
# Tail percentile of each workload, fixed so that a run does not hop between
# ladder steps: the highest step that leaves at least ten samples beyond it
# at the workload's usual sample count even in a slow phase.  p99.99 is left
# out: it is set by rare stalls (its run-to-run spread was 40-140% on the
# reference machine, against 7-11% at p99.9).
TAIL_PCT = {"cli_oneshot": 50.0, "stream_small": 99.9, "project_large": 99.0,
            "pairs_reuse": 99.9}
KEEP_TRACED_QUERIES = 2000  # raw spans written to the trace file
# Fixed query count of one pass in the traced run: whole query cycles, so
# that call counts per query repeat exactly.
TRACE_PASS = {"cli_oneshot": 120, "stream_small": 500, "project_large": 200,
              "pairs_reuse": 10000}

# End-to-end metrics of the result line (the bounded ones in BENCHMARK.json).
E2E_UNITS = {"setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
             "peak_rss_mb": "MB"}
# Also printed in the report, unbounded: the failure rate is normally 0, and
# the tail is not steady, even scaled (see bench/README.md).
REPORT_UNITS = {**E2E_UNITS, "query_tail_ms": "ms", "failure_rate": "1"}
LAYER_UNITS = {
    "import.interpreter_ms": "ms", "import.numpy_ms": "ms", "import.scipy_ms": "ms",
    "import.curvsimplex_ms": "ms", "cli.self_ms": "ms",
    "domain.edgelengths.calls_per_query": "count", "domain.edgelengths.self_us": "us",
    "domain.gram.calls_per_query": "count", "domain.gram.self_us": "us",
    "domain.barycentric.calls_per_query": "count", "domain.lift.self_us": "us",
    "symmat.signature.calls_per_query": "count", "symmat.signature.self_us": "us",
    "symmat.minor.calls_per_query": "count", "symmat.minor.self_us": "us",
    "symmat.determinant.calls_per_query": "count",
    "realizability.check.calls_per_query": "count", "realizability.check.self_us": "us",
    "metrics.distance.calls_per_query": "count", "metrics.distance.self_us": "us",
    "projection.project.self_us": "us", "projection.volume.self_us": "us",
    "oracle.embed.self_us": "us",
    "trace.untraced_queries_per_s": "1/s", "trace.traced_queries_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREADS)


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": THREADS, "commit": commit, "seed": seed}


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time in fresh interpreters (import plus building the inputs),
    each probe scaled by a Spawn calibration made just before it; returns
    (scaled, unscaled) seconds."""
    spawn = calibrate.Spawn(sys.executable, child_env())
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        scale = spawn.REF_S / spawn.seconds()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            env=child_env(), capture_output=True, text=True, check=True)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * scale)
    return scaled, raw


def tail(sorted_s, pct: float) -> tuple[float, float, int]:
    """(percentile, nearest-rank value, samples beyond) at ``pct``, stepping down
    the ladder while fewer than ten samples lie beyond it."""
    n = len(sorted_s)
    steps = [p for p in TAIL_LADDER if p <= pct]
    while True:
        pct = steps.pop()
        rank = max(1, math.ceil(n * pct / 100.0))
        if n - rank >= 10 or not steps:
            return pct, float(sorted_s[rank - 1]), n - rank


class Loop:
    """Runs queries one after another and keeps latencies (as measured and
    scaled by the latest calibrations), failures and the calibration samples
    taken between queries."""

    def __init__(self, wl, cal, period_s: float) -> None:
        self.wl = wl
        self.cal = cal
        self.period_s = period_s
        # Seconds; compact arrays, so RSS does not grow with the count.
        self.latencies = array.array("d")
        self.scaled = array.array("d")
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.calibration: list[float] = []
        self._scale = 1.0
        self._next_calibration = 0.0

    def one(self, i: int) -> None:
        wl = self.wl
        item = wl.item(i)
        if time.perf_counter() >= self._next_calibration:
            cal_s = self.cal.seconds()
            self.calibration.append(cal_s)
            recent = self.calibration[-CALIBRATION_WINDOW:]
            self._scale = self.cal.REF_S / statistics.median(recent)
            self._next_calibration = time.perf_counter() + self.period_s
        t0 = time.perf_counter()
        try:
            result = wl.run(item)
            error = None
        except Exception as exc:  # recorded as a failed query, the loop goes on
            error = exc
        t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        self.scaled.append((t1 - t0) * self._scale)
        self.attempted += 1
        if error is not None:
            problems = ["".join(traceback.format_exception_only(error)).strip()]
        else:
            problems = wl.check(item, result)
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append({"query": i, "problems": problems[:3],
                                      "input": wl.failed_input(item)})

    def for_seconds(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            self.one(i)
            i += 1

    def busy_s(self) -> float:
        return sum(self.latencies)


WARM_UP = 200  # untimed queries before measuring: whole mix periods of every workload


def warm_up(wl, cal, count: int) -> None:
    for i in range(count):
        wl.check(wl.item(i), wl.run(wl.item(i)))
        if i % 20 == 0:
            cal.seconds()


def calibration_for(wl):
    """(calibration, period) of a workload: a Spawn before every CLI call,
    otherwise the in-process Kernel of the workload's simplex sizes."""
    if wl.name == "cli_oneshot" and not wl.inprocess:
        return calibrate.Spawn(sys.executable, child_env()), 0.0
    return calibrate.Kernel(large=wl.name == "project_large"), CALIBRATION_PERIOD_S


def end_to_end(wl, workload: str, seed: int, seconds: float, report: dict) -> Loop:
    setups, setups_raw = setup_seconds(workload, seed)
    cal, period = calibration_for(wl)
    warm_up(wl, cal, 1 if workload == "cli_oneshot" else WARM_UP)
    loop = Loop(wl, cal, period)
    loop.for_seconds(seconds)
    # Read before the statistics below allocate their own copies.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli_oneshot":
        usage = wl.usage[-loop.attempted:]
        peak_kb = max(u.ru_maxrss for u in usage)
        cpu = sum(u.ru_utime + u.ru_stime for u in usage)
        report["cli_cpu_s_per_wall_s"] = cpu / loop.busy_s()
    scaled = sorted(loop.scaled)
    pct, tail_s, beyond = tail(scaled, TAIL_PCT[workload])
    report["metrics"] = {
        "setup_s": statistics.median(setups),
        "queries_per_s": len(scaled) / sum(scaled),
        "query_p50_ms": statistics.median(scaled) * 1e3,
        "query_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    report["tail"] = {"percentile": pct, "samples": len(scaled), "beyond": beyond}
    report["unscaled"] = {"queries_per_s": loop.attempted / loop.busy_s(),
                          "query_p50_ms": statistics.median(loop.latencies) * 1e3,
                          "setup_s": statistics.median(setups_raw)}
    report["setup_samples_s"] = {"scaled": setups, "unscaled": setups_raw}
    return loop


def traced(wl, lib, workload: str, seed: int, seconds: float, report: dict) -> Loop:
    import gen
    import spans
    import workloads

    if workload == "cli_oneshot":
        wl.inprocess = True
    cal, period = calibration_for(wl)
    warm_up(wl, cal, WARM_UP)
    count = TRACE_PASS[workload]
    tracer = spans.Tracer()
    plain, loop = Loop(wl, cal, period), Loop(wl, cal, period)
    totals: dict = {}
    kept: list[list] = []
    deadline = time.perf_counter() + seconds
    while True:
        for i in range(count):
            plain.one(i)
        tracer.install()
        try:
            for i in range(count):
                tracer.query = i
                loop.one(i)
                query_spans = tracer.take()
                spans.fold(query_spans, totals)
                if len(kept) < KEEP_TRACED_QUERIES and loop.attempted <= count:
                    kept.append(query_spans)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            break

    # Self-test: hyperbolic project at k = 4 is 1 check, 3 Gram builds, 3 minors.
    rng = workloads.random_stream(seed, 99)
    e = lib.EdgeLengths(gen.edges(-1.0, gen.points(rng, -1.0, 3)))
    tracer.install()
    try:
        tracer.query = "selftest"
        lib.project(e, lib.HYPERBOLIC, 1)
    finally:
        tracer.uninstall()
    self_spans = tracer.take()
    kept.append(self_spans)
    self_totals: dict = {}
    spans.fold(self_spans, self_totals)
    counts = {k: self_totals.get(k, [0, 0])[0]
              for k in ("realizability.check", "domain.gram", "symmat.minor")}
    selftest_ok = counts == {"realizability.check": 1, "domain.gram": 3, "symmat.minor": 3}
    report["selftest_k4_hyperbolic_project"] = {"counts": counts, "ok": selftest_ok}
    if not selftest_ok:
        loop.failed += 1
        loop.failures.append({"query": "selftest", "problems": [f"trace counts {counts}"]})

    q = loop.attempted
    metrics = spans.import_layers(sys.executable, child_env(), str(ROOT), IMPORT_REPEATS)
    metrics["cli.self_ms"] = totals.get("cli", [0, 0])[1] / 1e6 / q
    for name in LAYER_UNITS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls_per_query":
            metrics[name] = totals.get(layer, [0, 0])[0] / q
        elif kind == "self_us":
            metrics[name] = totals.get(layer, [0, 0])[1] / 1e3 / q
    untraced_qps = plain.attempted / plain.busy_s()
    traced_qps = q / loop.busy_s()
    metrics["trace.untraced_queries_per_s"] = untraced_qps
    metrics["trace.traced_queries_per_s"] = traced_qps
    metrics["trace.overhead_ratio"] = untraced_qps / traced_qps
    report["metrics"] = metrics
    report["traced_queries"] = q
    report["layers_seen"] = sorted(totals)

    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for query_spans in kept:
            for name, start, end, parent, query in query_spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "query": query}) + "\n")
    report["trace_file"] = str(path.relative_to(ROOT))
    plain.attempted += loop.attempted
    plain.failed += loop.failed
    plain.failures += loop.failures
    plain.calibration += loop.calibration
    return plain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_oneshot", "stream_small", "project_large", "pairs_reuse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "curvsimplex" / "__init__.py").is_file():
        print(f"error: no curvsimplex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import curvsimplex as lib
    import_s = time.perf_counter() - t0
    import curvsimplex.cli  # noqa: F401  (in-process CLI results)
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        ctx = workloads.Context(str(workdir), sys.executable, child_env())
        wl = workloads.WORKLOADS[args.workload](lib, args.seed, ctx)
        wl.setup(wl.generate())
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(args.seed),
                  "import_s_in_this_process": import_s}
        if args.trace:
            loop = traced(wl, lib, args.workload, args.seed, args.seconds, report)
            units = LAYER_UNITS
        else:
            loop = end_to_end(wl, args.workload, args.seed, args.seconds, report)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = report.pop("metrics")
    values["failure_rate"] = loop.failed / loop.attempted
    shown = LAYER_UNITS if args.trace else REPORT_UNITS
    report["metrics"] = {k: {"value": values[k], "unit": u} for k, u in shown.items()}
    cal = loop.calibration
    report["calibration_s"] = {"reference": loop.cal.REF_S, "median": statistics.median(cal),
                               "min": min(cal), "max": max(cal), "samples": len(cal)}
    report["attempted"], report["failed"] = loop.attempted, loop.failed
    report["failures"] = loop.failures
    metrics = {k: report["metrics"][k] for k in units}
    print(json.dumps(report, indent=2, default=str))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
