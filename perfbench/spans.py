"""In-memory span tracer for the traced benchmark run.

Spans are recorded only around calls *into* the program's public entry
points, by wrapping them from the benchmark's own files; nothing inside
``src/`` is instrumented.  Each span name keeps ``[calls, total_s,
self_s]``, where self time is a span's duration minus the time of the
spans it caused (its children).  Time spent at top level (no open span)
is kept separately, so a process's CPU time minus that sum is the work
no wrapped layer accounts for (event-loop polling and scheduling).

A wrap target that no longer exists — a method removed or renamed by a
later refactor — is recorded in :attr:`Tracer.missing` and skipped; the
run goes on and reports zero for that layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.missing: List[str] = []
        # Child-time accumulators of the open spans; slot 0 collects
        # the duration of top-level spans.
        self._stack: List[float] = [0.0]

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def wrap(
        self,
        fn: Callable,
        name: str,
        sample: Optional[Callable[[tuple, Any], float]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``sample(args, result)``, when
        given, appends one number per call to ``samples[name]``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.setdefault(name, []) if sample else None
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                stack[-1] += dt
                if samples is not None:
                    samples.append(sample(args, result))

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @property
    def top_level_s(self) -> float:
        return self._stack[0]

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def _resolve(self, path: str):
        """``"pkg.module:Class"`` or ``"pkg.module"`` -> object or None."""
        module_name, _, qual = path.partition(":")
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            return None
        for part in filter(None, qual.split(".")):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    def patch_method(self, owner_path: str, attr: str, name: str,
                     sample=None) -> bool:
        owner = self._resolve(owner_path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{name}: {owner_path}.{attr}")
            return False
        setattr(owner, attr, self.wrap(fn, name, sample))
        return True

    def patch_function(self, module_path: str, attr: str, name: str,
                       sample=None) -> bool:
        """Wrap a module-level function everywhere it is bound: modules
        that did ``from module import attr`` hold their own reference,
        and module-level dispatch tables hold another."""
        module = self._resolve(module_path)
        fn = getattr(module, attr, None) if module is not None else None
        if fn is None:
            self.missing.append(f"{name}: {module_path}.{attr}")
            return False
        traced = self.wrap(fn, name, sample)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is fn:
                                value[k] = traced
        return True

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Any]:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "sample_len": {k: len(v) for k, v in self.samples.items()},
            "top_level_s": self._stack[0],
        }


def calibrate(n: int = 200_000) -> float:
    """Seconds one wrapped call costs over a plain call."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "calibrate")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


def window(begin: Dict[str, Any], end: Dict[str, Any]) -> Dict[str, Any]:
    """Per-span deltas between two :meth:`Tracer.snapshot` marks."""
    stats = {}
    for name, (calls, total, own) in end["stats"].items():
        b = begin["stats"].get(name, [0, 0.0, 0.0])
        stats[name] = [calls - b[0], total - b[1], own - b[2]]
    counts = {
        k: v - begin["counts"].get(k, 0) for k, v in end["counts"].items()
    }
    return {
        "stats": stats,
        "counts": counts,
        "top_level_s": end["top_level_s"] - begin["top_level_s"],
    }
