"""The deletion-mutant generator of tools/mutants.py, on a small source; no mutant runs."""

import ast
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py")
MUTANTS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(MUTANTS)

SOURCE = '''"""Module docstring."""
LIMIT = compute()
print(LIMIT)


class Box:
    """Class docstring."""
    size = compute()

    def grow(self, x):
        """Method docstring."""
        if x < 0:
            raise ValueError("negative")
        y = x * 2
        y += x
        z = 0
        "a string that is no docstring"
        self.log(y)
        return y


def outer(a):
    if a:
        a = a + 1
    elif not a:
        raise ValueError("empty")
    if a > 3:
        raise ValueError("big")
    else:
        a = 3
    if a > 4: raise ValueError("one line")

    def inner():
        """Inner docstring."""
        for v in a:
            total = v
        try:
            print(a)
        except OSError:
            pass
        return total
    return inner
'''


def test_kinds_and_lines():
    found = [(m.line, m.kind, m.statement) for m in MUTANTS.mutants(SOURCE, "m.py")]
    assert found == [
        (12, "guard", "if x < 0:"),
        (14, "assign", "y = x * 2"),
        (15, "assign", "y += x"),
        (17, "expr", '"a string that is no docstring"'),
        (18, "expr", "self.log(y)"),
        (24, "assign", "a = a + 1"),
        (25, "guard", "elif not a:"),
        (31, "guard", 'if a > 4: raise ValueError("one line")'),
        (36, "assign", "total = v"),
        (38, "expr", "print(a)"),
    ]


def test_docstrings_constants_module_and_class_statements_are_skipped():
    lines = {m.line for m in MUTANTS.mutants(SOURCE)}
    # Four docstrings, two module-level statements and one class-level one, two
    # constant assignments, and a guard with an else.
    skipped = [1, 11, 34, 7, 2, 3, 8, 16, 30, 27]
    assert lines.isdisjoint(skipped)


def test_each_mutant_parses_and_replaces_its_statement_by_pass():
    for m in MUTANTS.mutants(SOURCE):
        source = MUTANTS.mutated(SOURCE, m)
        ast.parse(source)
        line = source.splitlines()[m.line - 1].strip()
        assert line == ("else: pass" if m.statement.startswith("elif") else "pass"), m
        assert len(source.splitlines()) == len(SOURCE.splitlines()) - (m.end_line - m.line)
