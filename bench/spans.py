"""Span tracing of the library from outside it, plus import-time probes.

``Tracer.install`` wraps every public function and method of the library's
modules and rebinds each wrapper under every name that refers to the
original in any ``curvsimplex`` module (``curved_gram``, for one, is
imported into five of them), so calls between modules are traced too.
``Tracer.uninstall`` puts the originals back.  A span is
[name, start_ns, end_ns, parent index, query id]; the spans of one query are
folded into per-layer totals as soon as the query ends.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import statistics
import subprocess
import sys
import time

MODULES = ("domain", "symmat", "realizability", "metrics", "projection", "oracle", "cli")

# Layer of each traced name; a name not listed is its own layer.  Layers
# group the per-model variants and helpers of one stage, so that nested
# calls inside one layer (check -> check_hyperbolic) count once.
LAYERS = {
    "domain.euclidean_gram": "domain.gram",
    "domain.curved_gram": "domain.gram",
    "domain.lift_to_model": "domain.lift",
    "symmat.SymMatrix.signature": "symmat.signature",
    "symmat.SymMatrix.eigenvalues": "symmat.signature",
    "symmat.SymMatrix.is_positive_definite": "symmat.signature",
    "symmat.SymMatrix.minor": "symmat.minor",
    "symmat.SymMatrix.determinant": "symmat.determinant",
    "projection.euclidean_volume": "projection.volume",
    "projection.euclidean_face_volume": "projection.volume",
}
PREFIX_LAYERS = (
    ("domain.EdgeLengths.", "domain.edgelengths"),
    ("domain.BarycentricPoint.", "domain.barycentric"),
    ("realizability.", "realizability.check"),
    ("metrics.", "metrics.distance"),
    ("projection.", "projection.project"),
    ("cli.", "cli"),
)


@functools.lru_cache(maxsize=None)
def layer_of(name: str) -> str:
    if name in LAYERS:
        return LAYERS[name]
    for prefix, layer in PREFIX_LAYERS:
        if name.startswith(prefix):
            return layer
    return name


def _traceable(cls) -> list[tuple[str, object]]:
    """Public methods of a library class, plus a hand-written __init__."""
    if issubclass(cls, (enum.Enum, BaseException)):
        return []
    out = []
    for attr, val in vars(cls).items():
        fn = val.__func__ if isinstance(val, classmethod) else val
        if not inspect.isfunction(fn):
            continue
        if attr.startswith("_") and not (attr == "__init__" and not dataclasses.is_dataclass(cls)):
            continue
        out.append((attr, val))
    return out


class Tracer:
    """In-memory span recorder for the curvsimplex package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, tracer.query]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        # vars(), not getattr(): a classmethod must come back as itself.
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"curvsimplex.{short}")
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, val in _traceable(obj):
                        qual = f"{short}.{obj.__name__}.{meth}"
                        if isinstance(val, classmethod):
                            self._set(obj, meth, classmethod(self._wrap(qual, val.__func__)))
                        else:
                            self._set(obj, meth, self._wrap(qual, val))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "curvsimplex" and not mod_name.startswith("curvsimplex."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list[list]:
        """Spans recorded since the last call, which are cleared."""
        out = list(self.spans)
        self.spans.clear()
        return out


def fold(spans: list[list], totals: dict) -> None:
    """Add one query's spans to totals[layer] = [outermost calls, self ns].

    Self time is a span's duration minus its children's.  A call counts once
    per layer: a span whose ancestor lies in the same layer is not counted.
    """
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    for idx, s in enumerate(spans):
        layer = layer_of(s[0])
        t = totals.setdefault(layer, [0, 0])
        t[1] += s[2] - s[1] - child[idx]
        p = s[3]
        while p >= 0 and layer_of(spans[p][0]) != layer:
            p = spans[p][3]
        if p < 0:
            t[0] += 1


def _importtime(stderr: str) -> dict[str, float]:
    """Cumulative ms of the outermost numpy, scipy and curvsimplex imports."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        body = name.rstrip()
        depth = len(body) - len(body.lstrip())
        entries.append((depth, body.strip(), int(cumulative)))
    # -X importtime prints children before their parent: walk backwards so
    # that every entry's ancestors are already on the stack.
    totals = {"numpy": 0.0, "scipy": 0.0, "curvsimplex": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        family = name.split(".")[0]
        if family in totals and all(a.split(".")[0] != family for _, a in stack):
            totals[family] += cum / 1000.0
        stack.append((depth, name))
    return totals


def import_layers(python: str, env: dict, cwd: str, repeats: int) -> dict[str, float]:
    """Medians over fresh interpreters of interpreter start and import times."""
    samples: dict[str, list[float]] = {k: [] for k in ("interpreter", "numpy", "scipy",
                                                        "curvsimplex")}
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, cwd=cwd, check=True)
        samples["interpreter"].append((time.perf_counter() - t0) * 1000.0)
        proc = subprocess.run([python, "-X", "importtime", "-c", "import curvsimplex"],
                              env=env, cwd=cwd, check=True, capture_output=True, text=True)
        for family, ms in _importtime(proc.stderr).items():
            samples[family].append(ms)
    return {f"import.{k}_ms": statistics.median(v) for k, v in samples.items()}
