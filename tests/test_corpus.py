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


def test_churn_bounds_a_numeric_change():
    a = ["c|project[1]\t((0x1.0p+1, 0x1.8p+1), 1e-05, True)", "c|distance[0]\t0x1.0p+0"]
    b = ["c|project[1]\t((0x1.0p+1, 0x1.8p+2), 1e-05, True)", "c|distance[0]\t0x1.0p+0"]
    # 3 becomes 6 on a line whose largest |number| is 6.
    assert corpus.churn(a, b) == [
        "churn project: 1 differ only in numbers (worst 0.5 relative at c|project[1]), "
        "0 in other text"]
    assert corpus.churn(a, a) == []
    # A nan on a line whose other numbers are all 0 leaves no finite scale.
    a = ["c|project[1]\t(nan, 0x0.0p+0)"]
    b = ["c|project[1]\t(0x0.0p+0, 0x0.0p+0)"]
    assert corpus.churn(a, b) == [
        "churn project: 1 differ only in numbers (worst inf relative at c|project[1]), "
        "0 in other text"]
    # An inf in a message is no scale: -0.75 becoming -0.5 moves by a third of 0.75.
    a = ["c|distance[0]\t!OutsideLightCone: squared chord -0.75 outside [0, inf]"]
    b = ["c|distance[0]\t!OutsideLightCone: squared chord -0.5 outside [0, inf]"]
    assert corpus.churn(a, b) == [
        "churn distance: 1 differ only in numbers (worst 0.33 relative at c|distance[0]), "
        "0 in other text"]


def test_churn_counts_a_text_change():
    a = ["c|check[0]\t('Realizable', (3, 1, 0))", "c|project[2]\t(0x1.0p+0,)"]
    b = ["c|check[0]\t('Degenerate', (3, 1, 0))", "c|project[2]\t!GramOverflow: 1e400"]
    assert corpus.churn(a, b) == [
        "churn check: 0 differ only in numbers (worst 0 relative), 1 in other text",
        "churn project: 0 differ only in numbers (worst 0 relative), 1 in other text"]


def test_canonical_values():
    assert corpus.canon(0.1) == (0.1).hex()
    assert corpus.canon(ValueError("bad")) == "!ValueError: bad"
    assert corpus.canon((1, None, "x")) == "(1, None, 'x')"
