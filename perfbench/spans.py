"""Span recorder for the traced benchmark run.

Every public function of a layer module is wrapped at each name it is
bound to across the package, so a caller that did ``from .sde import
integrate`` is traced as well as one that calls ``sde.integrate``.  A span
records its name, the module whose name was resolved (the "site"), its
parent span, thread, start and end.  Spans stay in memory until the run
writes them out; self time is computed from them afterwards.

Pure Python, so run.py can read the spans without importing numpy.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

# Field order of one recorded span.
SID, PARENT, NAME, SITE, THREAD, START, END, NOTE = range(8)


class Recorder:
    """Thread-safe in-memory span store with a per-thread parent stack."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, site: str, note=None):
        """Callable that runs ``fn`` inside a span.  ``note(bound, result)``
        may return a small dict of counts kept with the span."""
        sig = inspect.signature(fn) if note is not None else None
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            with recorder._lock:
                sid = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = None
                if note is not None and result is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    try:
                        info = note(bound.arguments, result)
                    except (KeyError, AttributeError, TypeError):
                        info = None  # the layer's signature changed: count the call only
                span = (sid, parent, name, site, threading.get_ident(), start, end, info)
                with recorder._lock:
                    recorder.spans.append(span)

        return traced


def instrument(recorder: Recorder, package: str, layers, notes=None, counted=()) -> None:
    """Wrap the public functions of ``package.<layer>`` for each layer, at
    every module global of the package bound to them.

    ``notes`` maps a span name (``"<layer>.<function>"``) to a note hook.
    ``counted`` lists ``(layer, attribute)`` pairs of non-function
    callables, such as a generator class, that are wrapped the same way
    in that one module.
    """
    notes = notes or {}
    modules = {
        key.rpartition(".")[2] if key != package else package: mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == package or key.startswith(package + "."))
    }
    for layer in layers:
        mod = modules[layer]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if not inspect.isfunction(fn):
                continue
            name = f"{layer}.{attr}"
            for site, other in modules.items():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, recorder.wrap(fn, name, site, notes.get(name)))
    for layer, attr in counted:
        mod = modules[layer]
        target = getattr(mod, attr)
        setattr(mod, attr, recorder.wrap(target, f"{layer}.{attr}", layer))


def _topmost(spans, name, site=None):
    """Spans of ``name`` (optionally at one site) that have no ancestor of
    the same name, so nested calls are not counted twice."""
    by_id = {s[SID]: s for s in spans}
    out = []
    for s in spans:
        if s[NAME] != name or (site is not None and s[SITE] != site):
            continue
        p = by_id.get(s[PARENT])
        while p is not None and p[NAME] != name:
            p = by_id.get(p[PARENT])
        if p is None:
            out.append(s)
    return out


def calls(spans, name, site=None) -> int:
    return sum(1 for s in spans if s[NAME] == name and (site is None or s[SITE] == site))


def busy(spans, name, site=None) -> float:
    """Summed duration of the outermost spans of ``name``, over all threads."""
    return sum(s[END] - s[START] for s in _topmost(spans, name, site))


def self_time(spans, name) -> float:
    """Duration of the outermost ``name`` spans minus the part of each that
    its child spans cover (the union of the children's intervals)."""
    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    total = 0.0
    for s in _topmost(spans, name):
        covered, reach = 0.0, s[START]
        for c in sorted(children.get(s[SID], ()), key=lambda c: c[START]):
            lo, hi = max(c[START], reach), min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        total += (s[END] - s[START]) - covered
    return total


def child_calls(spans, name, parent_name) -> int:
    """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
    parents = {s[SID] for s in spans if s[NAME] == parent_name}
    return sum(1 for s in spans if s[NAME] == name and s[PARENT] in parents)


def note_sum(spans, name, key) -> float:
    return sum((s[NOTE] or {}).get(key, 0) for s in spans if s[NAME] == name)
