"""Spans and counts recorded from outside the program.

The tracer replaces every module-level binding through which the pipeline
calls a public vocalnet function, imported names included: `selection.train`
is a different binding from `mlp.train`, so both are wrapped, and both
record spans under the home name `mlp.train`. Function values held in
module-level dicts (the CLI's command table) are wrapped the same way.

Each span records its name, start, end and parent span. Spans stay in
memory until the run ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict
from types import ModuleType

import numpy as np

# Called once per layer per back-prop sample update, millions of times a
# pass; a span costs more than the call itself, so it stays inside its
# caller's self time.
UNTRACED = frozenset({"mlp.sigmoid"})


def home_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _is_vocalnet_function(obj) -> bool:
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", "").startswith("vocalnet.")
            and not getattr(obj, "__name__", "_").startswith("_"))


def public_bindings(modules: list[ModuleType]):
    """(namespace, key, function) for every binding of a public vocalnet
    function in the given modules, including values of module-level dicts."""
    for module in modules:
        for key, obj in list(vars(module).items()):
            if key.startswith("__"):
                continue
            if _is_vocalnet_function(obj) and not key.startswith("_"):
                yield vars(module), key, obj
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if _is_vocalnet_function(v):
                        yield obj, k, v


class Tracer:
    """Span recorder; `probes` maps a span name to a function called as
    probe(tracer, fn, args, kwargs, result) after each successful call, which
    adds work counts with `count`."""

    def __init__(self, probes: dict | None = None):
        self.probes = probes or {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[dict, object, object]] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def _wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        probe = self.probes.get(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(self, fn, args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self, modules: list[ModuleType]) -> int:
        """Wrap every public binding; returns how many were wrapped."""
        for namespace, key, fn in public_bindings(modules):
            if getattr(fn, "__wrapped_by_tracer__", False):
                continue
            name = home_name(fn)
            if name in UNTRACED:
                continue
            namespace[key] = self._wrap(fn, name)
            self._installed.append((namespace, key, fn))
        return len(self._installed)

    def uninstall(self) -> None:
        for namespace, key, fn in reversed(self._installed):
            namespace[key] = fn
        self._installed.clear()

    @contextlib.contextmanager
    def installed(self, modules: list[ModuleType]):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.name_id)
        if n == 0:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def save(self, path) -> None:
        """Write every span (name table, name id, parent, start, end in ns)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64))
