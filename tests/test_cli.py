"""End-to-end tests of the command-line interface.

Each test writes small JSON documents to a temp directory, invokes
``curvsimplex.cli.main`` in-process, and checks exit codes plus the formatted
output against independently known values.
"""

import json
import math

import numpy as np
import pytest

from curvsimplex.cli import main

from conftest import TABLE_3SIMPLEX, COLLINEAR_HYPERBOLIC_EDGES


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


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys, simplex_file):
        argv = ["project", simplex_file, "--vertex", "2", "--geometry", "hyperbolic"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
