"""Smoke test of the differential corpus tool (tools/corpus.py)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "corpus.py"


@pytest.fixture(scope="module")
def corpus():
    spec = importlib.util.spec_from_file_location("corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke_lines(corpus):
    return corpus.run("smoke", 0)


def test_smoke_corpus_is_deterministic(corpus, smoke_lines):
    assert len(smoke_lines) > 1000
    assert corpus.run("smoke", 0) == smoke_lines
    keys = [line.split("\t", 1)[0] for line in smoke_lines]
    assert len(set(keys)) == len(keys)
    assert corpus.diff(smoke_lines, smoke_lines) == [
        f"{len(keys)} and {len(keys)} results, 0 differ"]


def test_diff_lists_a_changed_value_by_quantity(corpus, smoke_lines):
    key, value = next(line.split("\t", 1) for line in smoke_lines if "|distance[" in line)
    changed = [f"{key}\tX" if line.startswith(key + "\t") else line for line in smoke_lines]
    report = corpus.diff(smoke_lines, changed)
    assert report[0].endswith(" 1 differ")
    assert report[1] == "  distance: 1"
    assert report[2:] == [f"    {key}", f"      A {value}", "      B X"]


def test_canonical_values(corpus):
    assert corpus.canon(0.1) == (0.1).hex()
    assert corpus.canon(ValueError("bad")) == "!ValueError: bad"
    assert corpus.canon((1, None, "x")) == "(1, None, 'x')"
