"""In-memory span recorder that wraps the program's public functions.

The benchmark records spans from its own files: it replaces every module-level
binding of a public library function (including the names other modules
imported with ``from .x import f``) with a wrapper that opens a span, calls
the original, and records counts taken from the arguments and return value.
Spans stay in a list until the benchmark reads them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "isingmarket"
LAYERS = ("ingest", "moments", "exact", "inverse", "tap", "sampler", "stats", "serialize")

# A span is [name, start, end, parent index (-1 for a root), counts dict].
NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()


def _wrap(tracer: Tracer, name: str, fn, counter):
    signature = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.spans[index][COUNTS] = counter(bound.arguments, result)
        return result

    return wrapper


def install(tracer: Tracer, counters: dict) -> list[tuple]:
    """Route every binding of a layer's public functions through the tracer.

    Returns the (module, attribute, original) list that ``uninstall`` restores.
    """
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                    and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, _wrap(tracer, name, obj, counters.get(name)))
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START] - _union_length(kids)
            for span, kids in zip(spans, children)]


def outermost(spans: list[list], names) -> list[list]:
    """Spans named in ``names`` that have no ancestor also named in ``names``."""
    names = set(names)
    found = []
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            found.append(span)
    return found


def covered(spans: list[list], names) -> float:
    """Wall time inside any span named in ``names``, nested ones counted once."""
    return sum(span[END] - span[START] for span in outermost(spans, names))
