"""tools/abtime.py, the same-process A/B timer, on a few queries in a fresh interpreter."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def abtime(tree_a, tree_b, *options: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "abtime.py"), str(tree_a),
                           str(tree_b), *options], capture_output=True, text=True, timeout=120)


def test_one_tree_against_itself():
    run = abtime(ROOT, ROOT, "--blocks", "2", "--queries", "10")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("stream_small seed 1: 2 blocks of 10 queries per side")
    assert [line.split()[0] for line in lines[2:]] == ["A", "B", "B/A", "B"]
    assert all(float(v) > 0 for v in lines[4].split()[1:])
    assert lines[5].startswith("B faster in ") and lines[5].endswith(" of 2 blocks")


def test_a_side_that_fails_a_check_is_refused(tmp_path):
    # Distances twice too long fail the workload's check before any block is timed.
    shutil.copytree(ROOT / "src", tmp_path / "src")
    metrics = tmp_path / "src" / "curvsimplex" / "metrics.py"
    source = metrics.read_text(encoding="utf-8")
    metrics.write_text(source.replace("    return arc / q.curvature.scale",
                                      "    return 2 * arc / q.curvature.scale"),
                       encoding="utf-8")
    run = abtime(ROOT, tmp_path, "--blocks", "2", "--queries", "10")
    assert run.returncode == 2
    assert run.stderr.startswith("error: curvsimplex_b fails a stream_small query: distance")
    assert run.stdout == ""
