"""End-to-end tests of the command-line interface.

Each test writes small JSON documents to a temp directory, invokes
``curvsimplex.cli.main`` in-process, and checks exit codes plus the formatted
output against independently known values.
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import curvsimplex
from curvsimplex.cli import main

from conftest import (
    COLLINEAR_HYPERBOLIC_EDGES,
    NON_EUCLIDEAN_FACE_EDGES,
    TABLE_3SIMPLEX,
    WRONG_SHEET_TETRAHEDRON,
    random_simplex,
)


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


@pytest.fixture
def simplex_file(files):
    return files("simplex.json", {"n": 3, "edge_lengths": TABLE_3SIMPLEX})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_euclidean_realizable(self, capsys, simplex_file):
        code, out, _ = run(capsys, ["check", simplex_file])
        assert code == 0
        assert "verdict: Realizable" in out
        assert "signature: (3,0,0)" in out

    def test_hyperbolic_signature(self, capsys, simplex_file):
        code, out, _ = run(capsys, ["check", simplex_file, "--geometry", "hyperbolic"])
        assert code == 0
        assert "signature: (3,1,0)" in out

    def test_degenerate_exit_code(self, capsys, files):
        path = files("collinear.json",
                     {"edge_lengths": np.asarray(COLLINEAR_HYPERBOLIC_EDGES).tolist()})
        code, out, _ = run(capsys, ["check", path, "--geometry", "hyperbolic"])
        assert code == 3
        assert "verdict: Degenerate" in out

    def test_spherical_gate(self, capsys, files):
        long_edge = 1.7
        path = files("wide.json", {"edge_lengths": [[0, 1, 1], [1, 0, long_edge],
                                                    [1, long_edge, 0]]})
        code, out, _ = run(capsys, ["check", path, "--geometry", "spherical"])
        assert code == 3
        assert "verdict: NotRealizable" in out

    def test_general_kappa(self, capsys, simplex_file):
        code, out, _ = run(capsys, ["check", simplex_file, "--geometry", "kappa=-1"])
        assert code == 0
        assert "signature: (3,1,0)" in out


class TestDist:
    def test_euclidean_reference(self, capsys, files, simplex_file):
        px = files("p.json", {"barycentric": [0.25, 0.25, 0.25, 0.25]})
        py = files("q.json", {"barycentric": [1 / 3, 1 / 3, 1 / 3, 0.0]})
        code, out, _ = run(capsys, ["dist", simplex_file, px, py])
        assert code == 0
        assert out.strip() == "0.916666666667"

    def test_hyperbolic_reference(self, capsys, files, simplex_file):
        px = files("p.json", {"barycentric": [0.25, 0.25, 0.25, 0.25]})
        py = files("q.json", {"barycentric": [1 / 3, 1 / 3, 1 / 3, 0.0]})
        code, out, _ = run(capsys, ["dist", simplex_file, px, py,
                                    "--geometry", "hyperbolic"])
        assert code == 0
        assert float(out) == pytest.approx(0.63997, abs=1e-4)

    def test_tol_help_names_the_clamp_floor(self, capsys):
        with pytest.raises(SystemExit):
            main(["dist", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "squared chord" in out and "clamped" in out
        assert "eigenvalue" not in out
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert "eigenvalue counts as zero" in " ".join(capsys.readouterr().out.split())


class TestProject:
    def test_euclidean_foot_json(self, capsys, simplex_file):
        code, out, _ = run(capsys, ["project", simplex_file, "--vertex", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["inside_face"] is True
        assert np.allclose(doc["foot"], [0.0, 0.65625, 0.23264, 0.11111], atol=1e-5)
        assert doc["altitude"] == pytest.approx(1.4136, abs=1e-3)

    def test_hyperbolic_foot_json(self, capsys, simplex_file):
        code, out, _ = run(capsys, ["project", simplex_file, "--vertex", "1",
                                    "--geometry", "hyperbolic"])
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["foot"], [0.0, 0.80146, 0.15190, 0.04665], atol=1e-4)
        assert np.allclose(doc["foot_model"], [0.0, 0.22222, 0.04212, 0.01293],
                           atol=1e-4)
        assert doc["altitude"] == pytest.approx(1.0575, abs=1e-3)

    def test_vertex_out_of_range(self, capsys, simplex_file):
        code, _, err = run(capsys, ["project", simplex_file, "--vertex", "9"])
        assert code == 2
        assert "out of range" in err


class TestVolume:
    def test_simplex_volume(self, capsys, simplex_file):
        code, out, _ = run(capsys, ["volume", simplex_file])
        assert code == 0
        assert float(out) == pytest.approx(2.8272, abs=1e-3)

    def test_face_volume(self, capsys, simplex_file):
        code, out, _ = run(capsys, ["volume", simplex_file, "--face-opposite", "1"])
        assert code == 0
        assert float(out) == pytest.approx(6.0, abs=1e-9)

    def test_degenerate_volume_is_zero(self, capsys, files):
        path = files("flat.json", {"edge_lengths": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]})
        code, out, _ = run(capsys, ["volume", path])
        assert code == 0
        assert float(out) == 0.0

    @pytest.mark.parametrize("vertex, length", [(1, 1.0), (2, 2.0), (3, 1.0)])
    def test_flat_face_volume_is_edge_length(self, capsys, files, vertex, length):
        path = files("flat.json", {"edge_lengths": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]})
        code, out, _ = run(capsys, ["volume", path, "--face-opposite", str(vertex)])
        assert code == 0
        assert float(out) == length

    def test_not_realizable_face_exit_3(self, capsys, files):
        path = files("five.json", {"edge_lengths": NON_EUCLIDEAN_FACE_EDGES})
        code, out, err = run(capsys, ["volume", path, "--face-opposite", "5"])
        assert (code, out) == (3, "")
        assert "not a Euclidean edge set" in err


class TestEmbed:
    def test_embed_round_trip(self, capsys, simplex_file):
        code, out, _ = run(capsys, ["embed", simplex_file, "--geometry", "hyperbolic"])
        assert code == 0
        doc = json.loads(out)
        assert doc["model"] == "minkowski"
        assert doc["curvature"] == -1.0
        verts = np.asarray(doc["vertices"])
        table = np.asarray(TABLE_3SIMPLEX, dtype=float)
        for i in range(4):
            for j in range(i + 1, 4):
                d = verts[i] - verts[j]
                chord = d[:-1] @ d[:-1] - d[-1] ** 2
                got = np.arccosh(1.0 + 0.5 * chord)
                assert got == pytest.approx(table[i, j], abs=1e-8)

    def test_embed_to_file(self, capsys, tmp_path, simplex_file):
        out_path = tmp_path / "emb.json"
        code, out, _ = run(capsys, ["embed", simplex_file, "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["model"] == "euclidean"

    def test_embed_to_unwritable_path(self, capsys, tmp_path, simplex_file):
        out_path = tmp_path / "missing" / "emb.json"
        code, out, err = run(capsys, ["embed", simplex_file, "--out", str(out_path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {out_path}")

    def test_not_realizable_exit(self, capsys, files):
        path = files("bad.json", {"edge_lengths": [[0, 1, 1], [1, 0, 3], [1, 3, 0]]})
        code, _, err = run(capsys, ["embed", path])
        assert code == 3
        assert "error" in err


class TestInputErrors:
    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["check", str(path)])
        assert code == 2
        assert "malformed JSON" in err

    def test_nested_past_the_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, ["check", str(path)])
        assert (code, out, err) == (2, "", f"error: {path}: JSON nested too deeply\n")

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "bigint.json"
        path.write_text('{"edge_lengths": [[0, ' + "1" * 5001 + '], [1, 0]]}')
        code, out, err = run(capsys, ["check", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: unreadable JSON: Exceeds the limit")

    def test_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        text = json.dumps({"edge_lengths": TABLE_3SIMPLEX})
        path.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))  # UTF-16 with its BOM
        code, out, err = run(capsys, ["check", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 text: ")

    def test_missing_field(self, capsys, files):
        path = files("nofield.json", {"rows": [[0, 1], [1, 0]]})
        code, _, err = run(capsys, ["check", path])
        assert code == 2
        assert "edge_lengths" in err

    def test_asymmetric_matrix(self, capsys, files):
        path = files("asym.json", {"edge_lengths": [[0, 1, 1], [2, 0, 1], [1, 1, 0]]})
        code, _, err = run(capsys, ["check", path])
        assert code == 2
        assert "symmetric" in err

    def test_inconsistent_n(self, capsys, files):
        path = files("badn.json", {"n": 5, "edge_lengths": TABLE_3SIMPLEX})
        code, _, err = run(capsys, ["check", path])
        assert code == 2
        assert "'n'" in err

    def test_unknown_geometry(self, capsys, simplex_file):
        code, _, err = run(capsys, ["check", simplex_file, "--geometry", "elliptic"])
        assert code == 2
        assert "unknown geometry" in err

    def test_point_length_mismatch(self, capsys, files, simplex_file):
        px = files("p.json", {"barycentric": [0.5, 0.5]})
        py = files("q.json", {"barycentric": [0.25, 0.25, 0.25, 0.25]})
        code, _, err = run(capsys, ["dist", simplex_file, px, py])
        assert code == 2
        assert "coordinates" in err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["check", "dist", "project", "volume", "embed"])
    def test_bad_tol(self, capsys, files, command, tol):
        path = files("unit.json", {"edge_lengths": (1 - np.eye(3)).tolist()})
        argv = [command, path, f"--tol={tol}"]
        if command == "dist":
            argv += [files("p.json", {"barycentric": [0.5, 0.5, 0.0]}),
                     files("q.json", {"barycentric": [0.0, 0.5, 0.5]})]
        elif command == "project":
            argv += ["--vertex", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: --tol")


class TestNonFiniteInput:
    def test_nan_edge_check(self, capsys, files):
        path = files("nan.json", {"edge_lengths": [[0, math.nan, 1], [math.nan, 0, 1],
                                                   [1, 1, 0]]})
        code, out, err = run(capsys, ["check", path])
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_nan_point_dist(self, capsys, files, simplex_file):
        px = files("p.json", {"barycentric": [math.nan, 0.25, 0.25, 0.25]})
        py = files("q.json", {"barycentric": [0.25, 0.25, 0.25, 0.25]})
        code, out, err = run(capsys, ["dist", simplex_file, px, py])
        assert code == 2
        assert out == ""
        assert "barycentric" in err

    @pytest.mark.parametrize("big", [10 ** 400, -(10 ** 400)], ids=["plus", "minus"])
    def test_int_past_the_float_max(self, capsys, files, simplex_file, big):
        edges = files("big.json", {"edge_lengths": [[0, big, 1], [big, 0, 1], [1, 1, 0]]})
        px = files("p.json", {"barycentric": [big, 0.25, 0.25, 0.25]})
        py = files("q.json", {"barycentric": [0.25, 0.25, 0.25, 0.25]})
        for argv, field in ((["check", edges], "edge_lengths"),
                            (["dist", edges, py, py], "edge_lengths"),
                            (["dist", simplex_file, px, py], "barycentric")):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert f"field '{field}'" in err and "finite" in err

    def test_nan_curvature(self, capsys, simplex_file):
        code, _, err = run(capsys, ["check", simplex_file, "--geometry", "kappa=nan"])
        assert code == 2
        assert "curvature" in err


class TestHyperbolicOverflow:
    @pytest.fixture
    def long_triangle(self, files):
        return files("long.json", {"edge_lengths": (720.0 * (1 - np.eye(3))).tolist()})

    @pytest.mark.parametrize("extra", [["check"], ["project", "--vertex", "1"]])
    def test_check_and_project(self, capsys, long_triangle, extra):
        code, out, err = run(capsys, [extra[0], long_triangle, "--geometry", "hyperbolic",
                                      *extra[1:]])
        assert code == 4
        assert out == ""
        assert "overflows" in err

    @pytest.mark.parametrize("geometry", ["hyperbolic", "kappa=-4"])
    def test_dist(self, capsys, files, long_triangle, geometry):
        px = files("p.json", {"barycentric": [0.5, 0.5, 0.0]})
        py = files("q.json", {"barycentric": [0.0, 0.5, 0.5]})
        code, out, err = run(capsys, ["dist", long_triangle, px, py,
                                      "--geometry", geometry])
        assert code == 4
        assert out == ""
        assert "overflows" in err


class TestRescaleOverflow:
    """Edges times sqrt(|kappa|) beyond float64 exit 4, not with a traceback."""

    @pytest.fixture
    def huge_triangle(self, files):
        return files("huge.json", {"edge_lengths": (1e200 * (1 - np.eye(3))).tolist()})

    @pytest.mark.parametrize("extra", [["check"], ["project", "--vertex", "1"]])
    def test_check_and_project(self, capsys, huge_triangle, extra):
        code, out, err = run(capsys, [extra[0], huge_triangle, "--geometry", "kappa=1e300",
                                      *extra[1:]])
        assert code == 4
        assert out == ""
        assert "overflows" in err

    def test_dist(self, capsys, files, huge_triangle):
        px = files("p.json", {"barycentric": [0.5, 0.5, 0.0]})
        py = files("q.json", {"barycentric": [0.0, 0.5, 0.5]})
        code, out, err = run(capsys, ["dist", huge_triangle, px, py,
                                      "--geometry", "kappa=1e300"])
        assert code == 4
        assert out == ""
        assert "overflows" in err


class TestGeneralKappaOverflow:
    """At -1 < kappa < 0 the Gram entries at kappa are cosh / |kappa| and overflow
    first; embed, like check, works on the unit model, so it answers wherever
    check does and prints finite coordinates."""

    def embed_where_check_answers(self, capsys, path, kappa):
        code, _, _ = run(capsys, ["check", path, "--geometry", f"kappa={kappa}"])
        assert code == 0
        code, out, err = run(capsys, ["embed", path, "--geometry", f"kappa={kappa}"])
        assert (code, err) == (0, "")
        vertices = np.asarray(json.loads(out)["vertices"])
        assert vertices.shape == (3, 3) and np.all(np.isfinite(vertices))

    @pytest.mark.parametrize("edge", [1417.0, 1419.0])
    def test_embed(self, capsys, files, edge):
        path = files("long.json", {"edge_lengths": (edge * (1 - np.eye(3))).tolist()})
        self.embed_where_check_answers(capsys, path, "-0.25")

    def test_embed_at_tiny_kappa(self, capsys, files):
        # Unit-model edge 20; at kappa itself cosh(20) / 1e-300 overflows.
        path = files("wide.json", {"edge_lengths": (2e151 * (1 - np.eye(3))).tolist()})
        self.embed_where_check_answers(capsys, path, "-1e-300")


class TestFloatRange:
    """Edges at the ends of float64: exit 4 when their squares, their unit-model
    rescale or the volume leave its range, and a right answer otherwise."""

    def test_squared_edges_overflow(self, capsys, files):
        path = files("huge.json", {"edge_lengths": (1e200 * (1 - np.eye(4))).tolist()})
        px = files("p.json", {"barycentric": [0.25] * 4})
        py = files("q.json", {"barycentric": [1 / 3, 1 / 3, 1 / 3, 0.0]})
        for argv in (["check", path], ["dist", path, px, py], ["volume", path]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (4, "")
            assert "overflows" in err

    @pytest.mark.parametrize("edge", [1e-157, 1e150])
    def test_volume_out_of_range(self, capsys, files, edge):
        path = files("t.json", {"edge_lengths": (edge * (1 - np.eye(4))).tolist()})
        code, out, err = run(capsys, ["volume", path])
        assert (code, out) == (4, "")
        assert "overflows or underflows" in err

    def test_underflowing_rescale(self, capsys, files):
        path = files("tiny.json", {"edge_lengths": (1e-200 * (1 - np.eye(3))).tolist()})
        code, out, err = run(capsys, ["check", path, "--geometry", "kappa=1e-300"])
        assert (code, out) == (4, "")
        assert "rescale" in err

    def test_large_volume(self, capsys, files):
        path = files("t.json", {"edge_lengths": (1e60 * (1 - np.eye(4))).tolist()})
        code, out, _ = run(capsys, ["volume", path])
        assert code == 0
        assert float(out) == pytest.approx(math.sqrt(2) / 12 * 1e180, rel=1e-11)

    def test_long_hyperbolic_edges_dist(self, capsys, files):
        path = files("long.json", {"edge_lengths": (500.0 * (1 - np.eye(3))).tolist()})
        px = files("p.json", {"barycentric": [0.5, 0.5, 0.0]})
        py = files("q.json", {"barycentric": [0.0, 0.5, 0.5]})
        code, out, _ = run(capsys, ["dist", path, px, py, "--geometry", "hyperbolic"])
        assert code == 0
        assert out.strip() == "0.962423650119"


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this curvsimplex; return stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(curvsimplex.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout


SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


class TestLazyScipy:
    """scipy is imported by oracle.brute_project alone, on its first call."""

    def test_cli_import_loads_no_scipy(self):
        out = _fresh_python(f"import sys, curvsimplex.cli; print({SCIPY_MODULES})")
        assert out.strip() == "[]"

    def test_brute_project_in_fresh_interpreter(self):
        out = _fresh_python(
            "import json, sys\n"
            "from curvsimplex import HYPERBOLIC, EdgeLengths, brute_project, embed, project\n"
            f"e = EdgeLengths({TABLE_3SIMPLEX!r})\n"
            f"before = {SCIPY_MODULES}\n"
            "brute = brute_project(embed(e, HYPERBOLIC), 1).coords.tolist()\n"
            "closed = project(e, HYPERBOLIC, 1).foot.coords.tolist()\n"
            "print(json.dumps([before, 'scipy.optimize' in sys.modules, brute, closed]))\n")
        before, loaded, brute, closed = json.loads(out)
        assert before == []
        assert loaded
        assert np.allclose(brute, closed, atol=1e-6)


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys, simplex_file):
        argv = ["project", simplex_file, "--vertex", "2", "--geometry", "hyperbolic"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


NON_FINITE_WORD = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def cli_calls(draw):
    """A CLI call on a point-built simplex (one edge sometimes inflated) at any scale.

    The points are Euclidean, at a drawn scale, or lie on the hyperboloid or
    sphere of the drawn curvature's sign, with their edges rescaled to it.
    """
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sign = draw(st.sampled_from([0.0, -1.0, 1.0]))
    kappa = sign * 10.0 ** draw(st.floats(-300, 300))
    model = draw(st.sampled_from([0.0, sign]))
    gamma = random_simplex(rng, k - 1, curvsimplex.CurvatureSpec(model)).gamma.copy()
    if draw(st.booleans()):
        gamma[0, 1] = gamma[1, 0] = 3.0 * gamma[0, 1]
    gamma *= 10.0 ** draw(st.floats(-200, 200)) if model == 0 else 1.0 / math.sqrt(abs(kappa))
    command = draw(st.sampled_from(["check", "dist", "project", "volume", "embed"]))
    tol = draw(st.sampled_from([None, 0.0, 1e-3, -1.0, math.nan, math.inf]))
    return (gamma, kappa, command, tol, draw(st.integers(0, k)),
            rng.uniform(0.01, 1, size=(2, k)))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestFuzz:
    @given(cli_calls())
    @example((np.array(WRONG_SHEET_TETRAHEDRON), -1.0, "project", None, 4, np.ones((2, 4))))
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_codes_and_finite_output(self, tmp_path, call):
        gamma, kappa, command, tol, vertex, weights = call
        simplex = tmp_path / "simplex.json"
        simplex.write_text(json.dumps({"edge_lengths": gamma.tolist()}))
        argv = [command, str(simplex)]
        if command != "volume":
            argv += ["--geometry", f"kappa={kappa!r}"]
        if tol is not None:  # else the subcommand's default
            argv.append(f"--tol={tol!r}")
        if command == "dist":
            for name, w in zip(("x.json", "y.json"), weights):
                (tmp_path / name).write_text(json.dumps({"barycentric": (w / w.sum()).tolist()}))
                argv.append(str(tmp_path / name))
        elif command == "project":
            argv += ["--vertex", str(max(vertex, 1))]
        elif command == "volume" and vertex:  # else the volume of the whole simplex
            argv += ["--face-opposite", str(vertex)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), err.getvalue()
        assert not NON_FINITE_WORD.search(out.getvalue()), out.getvalue()
        if command == "project" and code == 0:
            doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert ("foot_model" in doc) == (kappa != 0)
