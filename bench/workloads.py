"""The four benchmark workloads.

Each workload is a closed loop with one client.  ``generate(seed)`` makes
the raw inputs and their reference answers from model-space points (numpy
only, untimed); ``build`` turns the raw inputs into the library objects the
workload keeps across queries (this is what setup_s times, after a fresh
import); ``item(i)`` hands out the i-th query's arguments, ``run(item)`` is
the timed query and ``check(item, result)`` compares it with the reference
and returns a list of problems (empty when correct).  Query types are
interleaved by position, so the mix of a run does not depend on the seed
and a drift phase hits every type alike.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import gen

TOL = 1e-8  # relative, with absolute floor 1 (acceptance criterion 11)
SIGN_MARGIN = 1e-9  # inside_face is compared only when no foot coordinate is this close to 0


def _close(got, ref) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(
        np.all(np.abs(got - ref) <= TOL * np.maximum(1.0, np.abs(ref))))


def random_stream(seed: int, stream: int) -> np.random.Generator:
    """Independent random stream ``stream`` of the workload seed."""
    return np.random.default_rng([seed, stream])


def check_projection(curved: bool, foot, altitude, inside, foot_model, ref) -> list[str]:
    """Compare one projection with its coordinate-space reference (gen.foot)."""
    ref_foot, ref_alt, ref_lift = ref
    problems = []
    if not _close(foot, ref_foot):
        problems.append(f"foot {list(foot)} != reference {ref_foot.tolist()}")
    face = np.delete(ref_foot, np.flatnonzero(ref_foot == 0.0)[:1])
    if np.min(np.abs(face)) > SIGN_MARGIN and inside != bool(np.all(face > 0)):
        problems.append(f"inside_face {inside} disagrees with the reference foot")
    if curved and ref_lift is None:
        # The barycentric hull point is the antipode of the true foot: the
        # library documents such a foot as outside, with no lift or altitude.
        if inside or foot_model is not None or not math.isnan(altitude):
            problems.append("lift or altitude given for a foot with no lift")
        return problems
    if curved and (foot_model is None or not _close(foot_model, ref_lift)):
        problems.append(f"foot_model {foot_model} != reference {ref_lift.tolist()}")
    if not curved and foot_model is not None:
        problems.append("foot_model given for a Euclidean foot")
    if not _close(altitude, ref_alt):
        problems.append(f"altitude {altitude} != reference {ref_alt}")
    return problems


@dataclass(frozen=True)
class Context:
    """Where a workload may write, and how it starts a CLI process."""

    workdir: str
    python: str
    env: dict


class StreamSmall:
    """One query = one fresh n in {3, 10} simplex, from edge matrix to last result."""

    name = "stream_small"
    MIX = 50
    CHUNK = 1000

    def __init__(self, lib, seed: int, ctx: Context) -> None:
        self.lib = lib
        self.seed = seed
        self._chunk_no = -1
        self._chunk: list = []

    def generate(self) -> None:
        """Inputs are made lazily, CHUNK queries at a time (see item)."""
        return None

    def build(self, raw) -> dict:
        return {k: self.lib.CurvatureSpec(k) for k in gen.KAPPAS}

    def setup(self, raw) -> None:
        self.specs = self.build(raw)

    @staticmethod
    def plan(i: int) -> tuple[float, int, bool]:
        """(kappa, n, realizable) of query i: kappa cycles every query, n every
        five, and one query in five (each (kappa, n) pair alike) is unrealizable."""
        kappa_idx = i % 5
        return gen.KAPPAS[kappa_idx], (3, 10)[(i // 5) % 2], (i // 10) % 5 != kappa_idx

    def _make_chunk(self, number: int) -> list:
        rng = random_stream(self.seed, number)
        items = []
        for i in range(number * self.CHUNK, (number + 1) * self.CHUNK):
            kappa, n, realizable = self.plan(i)
            pts = gen.points(rng, kappa, n)
            g = gen.edges(kappa, pts)
            xy = gen.barycentric(rng, n + 1, 4)
            vertex = int(rng.integers(1, n + 2))
            ref = {"realizable": realizable}
            if realizable:
                ref["dist"] = gen.distance(kappa, pts, xy[:2], xy[2:])
                ref["foot"] = gen.foot(kappa, pts, vertex)
                ref["volume"] = gen.volume(pts) if kappa == 0 else None
            else:
                g = gen.inflate(rng, g)
            items.append((self.specs[kappa], g, xy, vertex, ref))
        return items

    def item(self, i: int):
        number = i // self.CHUNK
        if number != self._chunk_no:
            self._chunk, self._chunk_no = self._make_chunk(number), number
        return self._chunk[i % self.CHUNK]

    def run(self, item):
        lib = self.lib
        c, g, xy, vertex, _ = item
        e = lib.EdgeLengths(g)
        report = lib.check(e, c)
        dists = []
        for j in range(2):
            try:
                dists.append(lib.distance(e, c, lib.BarycentricPoint(xy[j]),
                                          lib.BarycentricPoint(xy[j + 2])))
            except lib.GeometryError as exc:
                dists.append(exc)
        proj = lib.project(e, c, vertex) if report.verdict is lib.Verdict.REALIZABLE else None
        vol = None
        if c.kappa == 0:
            try:
                vol = lib.euclidean_volume(e)
            except lib.GeometryError as exc:
                vol = exc
        return report, dists, proj, vol

    def check(self, item, result) -> list[str]:
        lib = self.lib
        c, _, _, _, ref = item
        report, dists, proj, vol = result
        want = lib.Verdict.REALIZABLE if ref["realizable"] else lib.Verdict.NOT_REALIZABLE
        problems = []
        if report.verdict is not want:
            problems.append(f"verdict {report.verdict.value}, constructed {want.value}")
        if not ref["realizable"]:
            # Distances of an unrealizable simplex have no reference value;
            # the library may return a number or raise GeometryError.
            for d in dists:
                if not isinstance(d, lib.GeometryError) and not math.isfinite(d):
                    problems.append(f"non-finite distance {d} without an error")
            if c.kappa == 0 and not isinstance(vol, lib.NotRealizableInput):
                problems.append(f"euclidean_volume gave {vol!r} for an unrealizable simplex")
            return problems
        for d, r in zip(dists, ref["dist"]):
            if isinstance(d, Exception) or not _close(d, r):
                problems.append(f"distance {d!r} != reference {r}")
        if proj is not None:
            model = None if proj.foot_model is None else proj.foot_model.coords
            problems += check_projection(c.kappa != 0, proj.foot.coords, proj.altitude,
                                         proj.inside_face, model, ref["foot"])
        if c.kappa == 0 and (isinstance(vol, Exception) or not _close(vol, ref["volume"])):
            problems.append(f"volume {vol!r} != reference {ref['volume']}")
        return problems

    def failed_input(self, item) -> dict:
        c, g, xy, vertex, _ = item
        return {"kappa": c.kappa, "edge_lengths": g.tolist(), "points": xy.tolist(),
                "vertex": vertex}


class ProjectLarge:
    """One query = one project (or, at kappa = 0, alternately one
    euclidean_face_volume) on prebuilt n = 40 simplices."""

    name = "project_large"
    N = 40
    SIMPLICES = 10  # two per curvature, curvatures interleaved
    MIX = 2 * SIMPLICES  # every simplex twice: both operations at kappa = 0

    def __init__(self, lib, seed: int, ctx: Context) -> None:
        self.lib = lib
        self.seed = seed

    def generate(self):
        rng = random_stream(self.seed, 0)
        raw = []
        for s in range(self.SIMPLICES):
            kappa = gen.KAPPAS[s % 5]
            pts = gen.points(rng, kappa, self.N)
            feet = [gen.foot(kappa, pts, v) for v in range(1, self.N + 2)]
            faces = ([gen.volume(np.delete(pts, v, axis=0)) for v in range(self.N + 1)]
                     if kappa == 0 else None)
            raw.append((kappa, gen.edges(kappa, pts), feet, faces))
        return raw

    def build(self, raw):
        lib = self.lib
        return [(lib.CurvatureSpec(kappa), lib.EdgeLengths(g)) for kappa, g, _, _ in raw]

    def setup(self, raw) -> None:
        self.raw, self.objs = raw, self.build(raw)

    def item(self, i: int):
        s, visit = i % self.SIMPLICES, i // self.SIMPLICES
        vertex = visit % (self.N + 1) + 1
        face_volume = self.raw[s][0] == 0 and visit % 2 == 1
        return s, vertex, face_volume

    def run(self, item):
        s, vertex, face_volume = item
        c, e = self.objs[s]
        if face_volume:
            return self.lib.euclidean_face_volume(e, vertex)
        return self.lib.project(e, c, vertex)

    def check(self, item, result) -> list[str]:
        s, vertex, face_volume = item
        _, _, feet, faces = self.raw[s]
        if face_volume:
            ref = faces[vertex - 1]
            return [] if _close(result, ref) else [f"face volume {result} != reference {ref}"]
        model = None if result.foot_model is None else result.foot_model.coords
        return check_projection(self.raw[s][0] != 0, result.foot.coords, result.altitude,
                                result.inside_face, model, feet[vertex - 1])

    def failed_input(self, item) -> dict:
        s, vertex, face_volume = item
        return {"kappa": self.raw[s][0], "edge_lengths": self.raw[s][1].tolist(),
                "vertex": vertex, "face_volume": face_volume}


class PairsReuse:
    """One query = one distance on a few prebuilt simplices (n in {3, 10},
    every curvature) between many prebuilt barycentric pairs."""

    name = "pairs_reuse"
    PAIRS = 1000
    SIMPLICES = 10  # (kappa, n) for every kappa and n in {3, 10}
    MIX = SIMPLICES

    def __init__(self, lib, seed: int, ctx: Context) -> None:
        self.lib = lib
        self.seed = seed

    def generate(self):
        rng = random_stream(self.seed, 0)
        raw = []
        for s in range(self.SIMPLICES):
            kappa, n = gen.KAPPAS[s % 5], (3, 10)[s // 5]
            pts = gen.points(rng, kappa, n)
            x = gen.barycentric(rng, n + 1, self.PAIRS)
            y = gen.barycentric(rng, n + 1, self.PAIRS)
            raw.append((kappa, gen.edges(kappa, pts), x, y, gen.distance(kappa, pts, x, y)))
        return raw

    def build(self, raw):
        lib = self.lib
        out = []
        for kappa, g, x, y, _ in raw:
            out.append((lib.CurvatureSpec(kappa), lib.EdgeLengths(g),
                        [lib.BarycentricPoint(p) for p in x],
                        [lib.BarycentricPoint(p) for p in y]))
        return out

    def setup(self, raw) -> None:
        self.raw, self.objs = raw, self.build(raw)

    def item(self, i: int):
        return i % self.SIMPLICES, (i // self.SIMPLICES) % self.PAIRS

    def run(self, item):
        s, p = item
        c, e, xs, ys = self.objs[s]
        return self.lib.distance(e, c, xs[p], ys[p])

    def check(self, item, result) -> list[str]:
        s, p = item
        ref = self.raw[s][4][p]
        return [] if _close(result, ref) else [f"distance {result} != reference {ref}"]

    def failed_input(self, item) -> dict:
        s, p = item
        kappa, g, x, y, _ = self.raw[s]
        return {"kappa": kappa, "edge_lengths": g.tolist(), "x": x[p].tolist(),
                "y": y[p].tolist()}


# (subcommand, n, geometry, realizable) of the CLI cycle: every subcommand,
# both sizes, every --geometry and three exit-3 inputs.
CLI_CYCLE = (
    ("check", 3, "euclidean", True),
    ("dist", 10, "hyperbolic", True),
    ("project", 3, "spherical", True),
    ("volume", 10, "euclidean", True),
    ("embed", 3, "kappa=-0.3", True),
    ("check", 10, "kappa=0.3", False),
    ("dist", 3, "kappa=0.3", True),
    ("project", 10, "kappa=-0.3", True),
    ("face-volume", 3, "euclidean", True),
    ("embed", 10, "spherical", True),
    ("check", 3, "hyperbolic", False),
    ("project", 10, "euclidean", False),
)
GEOMETRY_KAPPA = {"euclidean": 0.0, "hyperbolic": -1.0, "spherical": 1.0,
                  "kappa=0.3": 0.3, "kappa=-0.3": -0.3}


class CliOneshot:
    """One query = one ``python -m curvsimplex.cli`` process on a JSON document."""

    name = "cli_oneshot"
    # Start-up dominates every call alike, so one call is a whole mix period.
    MIX = 1

    def __init__(self, lib, seed: int, ctx: Context) -> None:
        self.lib = lib
        self.seed = seed
        self.ctx = ctx
        self.inprocess = False  # the traced run calls cli.main in this process
        self.usage: list = []  # resource usage of every CLI process run

    def generate(self):
        rng = random_stream(self.seed, 0)
        raw = []
        for cmd, n, geometry, realizable in CLI_CYCLE:
            kappa = GEOMETRY_KAPPA[geometry]
            pts = gen.points(rng, kappa, n)
            g = gen.edges(kappa, pts)
            xy = gen.barycentric(rng, n + 1, 2)
            vertex = int(rng.integers(1, n + 2))
            if not realizable:
                g = gen.inflate(rng, g)
            raw.append((cmd, kappa, geometry, realizable, pts, g, xy, vertex))
        return raw

    def build(self, raw):
        lib = self.lib
        return [(lib.EdgeLengths(g), [lib.BarycentricPoint(p) for p in xy])
                for _, _, _, _, _, g, xy, _ in raw]

    def setup(self, raw) -> None:
        """Write the documents, then record each one's in-process CLI result."""
        self.raw = raw
        self.argvs = []
        for idx, (cmd, _, geometry, _, _, g, xy, vertex) in enumerate(raw):
            path = os.path.join(self.ctx.workdir, f"simplex{idx}.json")
            with open(path, "w") as fh:
                json.dump({"n": g.shape[0] - 1, "edge_lengths": g.tolist()}, fh)
            argv = ["volume" if cmd == "face-volume" else cmd, path]
            if cmd == "dist":
                for j in range(2):
                    point = os.path.join(self.ctx.workdir, f"point{idx}_{j}.json")
                    with open(point, "w") as fh:
                        json.dump({"barycentric": xy[j].tolist()}, fh)
                    argv.append(point)
            if cmd == "project":
                argv += ["--vertex", str(vertex)]
            if cmd == "face-volume":
                argv += ["--face-opposite", str(vertex)]
            elif cmd != "volume":
                argv += ["--geometry", geometry]
            self.argvs.append(argv)
        self.expected = [self.run_inprocess(i) for i in range(len(CLI_CYCLE))]
        self.doc_problems = [self._check_reference(i) for i in range(len(CLI_CYCLE))]

    def run_inprocess(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.lib.cli.main(list(self.argvs[i]))
        return code, out.getvalue()

    def _check_reference(self, i: int) -> list[str]:
        """Parse the in-process output and compare it with the coordinates."""
        cmd, kappa, _, realizable, pts, _, xy, vertex = self.raw[i]
        code, text = self.expected[i]
        if not realizable:
            return [] if code == 3 else [f"exit code {code} for an unrealizable simplex"]
        if code != 0:
            return [f"exit code {code} for a realizable simplex"]
        if cmd == "check":
            return [] if "verdict: Realizable" in text else [f"check printed {text!r}"]
        if cmd == "dist":
            ref = gen.distance(kappa, pts, xy[:1], xy[1:])[0]
            return [] if _close(float(text), ref) else [f"dist {text.strip()} != {ref}"]
        if cmd in ("volume", "face-volume"):
            body = np.delete(pts, vertex - 1, axis=0) if cmd == "face-volume" else pts
            ref = gen.volume(body)
            return [] if _close(float(text), ref) else [f"volume {text.strip()} != {ref}"]
        doc = json.loads(text)
        if cmd == "project":
            return check_projection(kappa != 0, np.array(doc["foot"]), doc["altitude"],
                                    doc["inside_face"], doc.get("foot_model"),
                                    gen.foot(kappa, pts, vertex))
        verts = np.array(doc["vertices"])
        want = gen.edges(kappa, pts)
        got = gen.edges(kappa, verts)
        return [] if _close(got, want) else ["embedding edge lengths differ from the input"]

    def item(self, i: int) -> int:
        return i % len(CLI_CYCLE)

    def run(self, i: int):
        """One CLI call: (exit code, stdout).  A CLI process writes its output
        to files, so that waiting for it with wait4 also gives its usage."""
        if self.inprocess:
            return self.run_inprocess(i)
        out_path = os.path.join(self.ctx.workdir, "stdout.txt")
        err_path = os.path.join(self.ctx.workdir, "stderr.txt")
        argv = [self.ctx.python, "-m", "curvsimplex.cli", *self.argvs[i]]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            pid = os.posix_spawn(self.ctx.python, argv, self.ctx.env, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            _, status, usage = os.wait4(pid, 0)
        self.usage.append(usage)
        with open(out_path) as fh:
            return os.waitstatus_to_exitcode(status), fh.read()

    def check(self, i: int, result) -> list[str]:
        problems = list(self.doc_problems[i])
        if result != self.expected[i]:
            problems.append(f"exit code {result[0]} or output differ from the in-process result")
        return problems

    def failed_input(self, i: int) -> dict:
        g, xy = self.raw[i][5], self.raw[i][6]
        return {"argv": self.argvs[i], "edge_lengths": g.tolist(), "points": xy.tolist()}


WORKLOADS = {w.name: w for w in (CliOneshot, StreamSmall, ProjectLarge, PairsReuse)}
