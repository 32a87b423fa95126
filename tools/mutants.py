"""Deletion mutants: the statements of the library that the test suite would not miss.

    python tools/mutants.py

In every function body of ``src/curvsimplex/*.py`` (methods and nested
functions included), each of these statements is replaced in turn by ``pass``:

- ``guard``: an ``if`` (or ``elif``) with no ``else`` whose body is a single
  ``raise``, deleted whole;
- ``assign``: an assignment or augmented assignment whose value is not a
  constant;
- ``expr``: an expression statement that is not a docstring.

Module-level and class-level statements are left alone.  Each mutant runs on
a scratch copy of ``src/``, ``tests/``, ``tools/``, ``bench/`` and
``pyproject.toml``, never in place, under the tier-1 suite with ``-x``.  A
failing run kills the mutant, and so does a run past ``TIMEOUT_S``.  One worker per CPU runs the
mutants, each in its own copy.

The tool prints each surviving mutant (module:line, kind, statement) and a
count, and exits 0: it is a development tool, not a gate.  The method is
DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE Computer 11
(1978).
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "curvsimplex"
COPIED = ("src", "tests", "tools", "bench", "pyproject.toml")
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TIMEOUT_S = 120


class Mutant(NamedTuple):
    """One statement to replace by ``pass``: its span (1-based lines, 0-based columns)."""

    module: str
    kind: str
    line: int
    col: int
    end_line: int
    end_col: int
    statement: str


def _kind(node: ast.stmt) -> str | None:
    if (isinstance(node, ast.If) and not node.orelse and len(node.body) == 1
            and isinstance(node.body[0], ast.Raise)):
        return "guard"
    if isinstance(node, (ast.Assign, ast.AugAssign)) and not isinstance(node.value, ast.Constant):
        return "assign"
    if isinstance(node, ast.Expr):
        return "expr"
    return None


def _is_docstring(body: list[ast.stmt], node: ast.stmt) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def mutants(source: str, module: str = "<string>") -> list[Mutant]:
    """The deletion mutants of one module's source, in source order."""
    lines = source.splitlines()
    found = []

    def visit(body: list[ast.stmt], in_function: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, True)
                continue
            if isinstance(node, ast.ClassDef):
                visit(node.body, False)
                continue
            kind = _kind(node) if in_function and not _is_docstring(body, node) else None
            if kind is not None:
                found.append(Mutant(module, kind, node.lineno, node.col_offset, node.end_lineno,
                                    node.end_col_offset, lines[node.lineno - 1].strip()))
                continue
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                for child in getattr(node, field, ()):
                    visit(child.body if isinstance(child, (ast.ExceptHandler, ast.match_case))
                          else [child], in_function)

    visit(ast.parse(source).body, False)
    return sorted(found, key=lambda m: (m.line, m.col))


def mutated(source: str, m: Mutant) -> str:
    """The source with the statement replaced by ``pass`` (an ``elif`` by ``else: pass``)."""
    lines = source.splitlines(keepends=True)
    head, tail = lines[m.line - 1][:m.col], lines[m.end_line - 1][m.end_col:]
    stub = "else: pass" if lines[m.line - 1][m.col:].startswith("elif") else "pass"
    return "".join(lines[:m.line - 1] + [head + stub + tail] + lines[m.end_line:])


def _killed(copy: Path, m: Mutant) -> bool:
    """Run tier-1 with ``m`` applied in ``copy``; the copy is restored afterwards."""
    path = copy / PACKAGE / m.module
    original = path.read_text()
    path.write_text(mutated(original, m))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, *TIER1], cwd=copy, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=TIMEOUT_S) != 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the suite's own subprocesses too
        proc.wait()
        return True
    finally:
        path.write_text(original)
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)


def catalogue() -> list[Mutant]:
    """The mutants of every module of the library, module by module."""
    return [m for path in sorted((ROOT / PACKAGE).glob("*.py"))
            for m in mutants(path.read_text(), path.name)]


def survivors(all_mutants: list[Mutant], workers: int) -> list[Mutant]:
    """The mutants that tier-1 passes, each run in one of ``workers`` scratch copies."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copies = queue.Queue()
        for w in range(workers):
            copy = Path(scratch) / str(w)
            for name in COPIED:
                src, dst = ROOT / name, copy / name
                if src.is_dir():
                    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
                else:
                    shutil.copy(src, dst)
            copies.put(copy)

        def run(m: Mutant) -> bool:
            copy = copies.get()
            try:
                return _killed(copy, m)
            finally:
                copies.put(copy)

        with ThreadPoolExecutor(workers) as pool:
            killed = list(pool.map(run, all_mutants))
    return [m for m, k in zip(all_mutants, killed) if not k]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    all_mutants = catalogue()
    alive = survivors(all_mutants, os.cpu_count() or 1)
    for m in alive:
        print(f"{m.module}:{m.line}\t{m.kind}\t{m.statement}")
    print(f"{len(alive)} of {len(all_mutants)} mutants survive")
    return 0


if __name__ == "__main__":
    sys.exit(main())
