"""Smoke test of the differential corpus tool (tools/corpus.py)."""

import pytest

from conftest import CORPUS_TOOL as corpus


@pytest.fixture(scope="module")
def smoke_lines():
    return corpus.run("smoke", 0)


def test_smoke_corpus_is_deterministic(smoke_lines):
    assert len(smoke_lines) > 1000
    assert corpus.run("smoke", 0) == smoke_lines
    keys = [line.split("\t", 1)[0] for line in smoke_lines]
    assert len(set(keys)) == len(keys)
    assert corpus.diff(smoke_lines, smoke_lines) == [
        f"{len(keys)} and {len(keys)} results, 0 differ"]


def test_smoke_corpus_lifts_feet_from_the_wrong_sheet(smoke_lines):
    for case in ("wrong-sheet tetrahedron", "antipode 4-simplex"):
        value = next(line.split("\t", 1)[1] for line in smoke_lines
                     if f"{case}|project[4]\t" in line)
        assert not value.startswith("!") and "nan" not in value
        assert not value.endswith("None)")  # the lift


def test_diff_lists_a_changed_value_by_quantity(smoke_lines):
    key, value = next(line.split("\t", 1) for line in smoke_lines if "|distance[" in line)
    changed = [f"{key}\tX" if line.startswith(key + "\t") else line for line in smoke_lines]
    report = corpus.diff(smoke_lines, changed)
    assert report[0].endswith(" 1 differ")
    assert report[1] == "  distance: 1"
    assert report[2:] == [f"    {key}", f"      A {value}", "      B X"]


def test_canonical_values():
    assert corpus.canon(0.1) == (0.1).hex()
    assert corpus.canon(ValueError("bad")) == "!ValueError: bad"
    assert corpus.canon((1, None, "x")) == "(1, None, 'x')"
