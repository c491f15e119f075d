"""Span tracer that wraps eviground's public functions from outside the package.

Nothing inside ``src/`` is changed. ``Tracer.install`` replaces each target
with a timing wrapper:

* a module-level function is rebound in every loaded ``eviground`` module
  that holds it, both as a global (callers bind names with
  ``from .x import y``) and as a value of a module-level dict (dispatch
  tables such as ``gradcheck.SUITES``);
* a method is patched on its class, keeping ``classmethod`` and
  ``staticmethod`` descriptors.

``Tracer.uninstall`` puts every original back. Spans are kept in memory as
``(name, start, end, parent, run_id)`` tuples and written out by the caller
at the end of a run. Counters (bytes moved, distinct inputs) are kept beside
the spans, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _package_modules(package: str) -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


class Tracer:
    """Records one span per call of each installed target.

    ``run_id`` tags the spans of one traced round, so a run can hold several
    rounds and report per-round medians.
    """

    def __init__(self, package: str = "eviground"):
        self.package = package
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._distinct: dict[tuple[int, str], set] = defaultdict(set)
        self._keep_alive: list = []  # objects whose id() keys a distinct set

    # --- recording --------------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside one span named ``name``."""
        return self._wrap(name, fn)(*args)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[(self.run_id, key)] += amount

    def distinct(self, key: str, item, owner=None) -> None:
        """Count ``item`` once per round; ``owner`` (if given) is kept alive
        so its id() cannot be reused by another object within the run."""
        if owner is not None:
            self._keep_alive.append(owner)
        self._distinct[(self.run_id, key)].add(item)

    def distinct_count(self, run_id: int, key: str) -> int:
        return len(self._distinct.get((run_id, key), ()))

    # --- patching ---------------------------------------------------------------

    def install(self, targets) -> None:
        """``targets``: iterable of ``(module, qualname, on_return)``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _package_modules(self.package)
        for module_name, qualname, on_return in targets:
            mod = sys.modules[f"{self.package}.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(self._wrap(name, raw.__func__, on_return))
                else:
                    patched = self._wrap(name, raw, on_return)
                setattr(cls, attr, patched)
                self._undo.append(("attr", cls, attr, raw))
                continue
            original = getattr(mod, qualname)
            wrapper = self._wrap(name, original, on_return)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append(("attr", holder, key, original))
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._undo.append(("item", value, dkey, original))

    def uninstall(self) -> None:
        for kind, holder, key, original in reversed(self._undo):
            if kind == "attr":
                setattr(holder, key, original)
            else:
                holder[key] = original
        self._undo.clear()

    # --- results ----------------------------------------------------------------

    def closed_spans(self):
        return [s for s in self.spans if s is not None]

    def per_round(self) -> dict[int, dict[str, tuple[int, float]]]:
        """run_id -> name -> (calls, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; single-threaded calls nest, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, run_id = span
            entry = out[run_id][name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
        return {rid: {k: (v[0], v[1]) for k, v in names.items()} for rid, names in out.items()}


def per_span_cost(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""

    def noop():
        return None

    probe = Tracer()
    traced = probe._wrap("probe", noop)
    clock = time.perf_counter
    best_plain = best_traced = float("inf")
    for _ in range(5):
        probe.spans.clear()
        t0 = clock()
        for _ in range(repeats):
            noop()
        t1 = clock()
        for _ in range(repeats):
            traced()
        t2 = clock()
        best_plain = min(best_plain, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(best_traced - best_plain, 0.0) / repeats
