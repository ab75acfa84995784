"""Spans around the package's public functions, recorded from outside.

Tracer.install replaces every public module-level function of the
package, in every module namespace that binds it (``rotshift.report``
imports ``condition_I`` from ``rotshift.verdicts``, so both bindings are
wrapped), with a wrapper that records a span: name, parent span, start,
end and the operation it belongs to.  Tracer.restore puts the
originals back.  ``subshift.forward_support`` runs once per support
step, so it is counted without a span.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

COUNT_ONLY = frozenset({"subshift.forward_support"})
# Call counts per analysis, reported as the maximum over analyses.
PER_ANALYZE = (
    "verdicts.condition_I",
    "verdicts.is_irreducible",
    "verdicts.irrational_cycle",
    "intlinalg.smith_normal_form",
)


def _layer(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self, modules, budget_exc):
        self.modules = modules
        self.budget_exc = budget_exc
        self.spans: list[list] = []  # [id, parent id, name, start, end, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.ideals_emitted = 0
        self.ideals_capped = 0
        self.scc_counts: list[int] = []
        self.snf_results: list = []
        self.peak_bits = 0
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for mod in self.modules:
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(obj, _layer(obj))
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def restore(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = [len(tracer.spans), tracer.stack[-1] if tracer.stack else None, name, 0.0, None, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._raised(name, exc)
                raise
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()
            tracer._returned(name, result)
            return result

        return spanned

    def _raised(self, name: str, exc: BaseException) -> None:
        if isinstance(exc, self.budget_exc) and exc.layer is None:
            exc.layer = name  # the innermost open span when the budget fired
        if name == "ideals.enumerate_invariant_saturated" and type(exc).__name__ == "CapExceeded":
            self.ideals_capped += 1

    def _returned(self, name: str, result) -> None:
        if name == "ideals.enumerate_invariant_saturated":
            self.ideals_emitted += len(result)
        elif name == "verdicts.strongly_connected_components":
            self.scc_counts.append(len(set(result)))
        elif name == "intlinalg.smith_normal_form":
            self.snf_results.append(result)

    # -- per operation --------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.stack = []

    def end_op(self, end_time: float) -> None:
        """Close spans cut by the budget and measure Smith coefficients."""
        for span in reversed(self.spans):
            if span[5] != self.op:
                break
            if span[4] is None:
                span[4] = end_time
        for dec in self.snf_results:
            for m in (dec.u, dec.d, dec.v):
                for row in m.entries:
                    for x in row:
                        self.peak_bits = max(self.peak_bits, abs(x).bit_length())
        self.snf_results = []

    # -- summaries --------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        calls: Counter = Counter()
        child: Counter = Counter()
        for _id, parent, _name, start, end, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: Counter = Counter()
        for sid, _parent, name, start, end, _op in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child[sid]
        calls.update(self.counts)
        return calls, self_s

    def per_analyze_max(self, analyze_ops: set[int]) -> dict[str, int]:
        """Largest number of calls of each PER_ANALYZE function in one
        completed analysis (an analyze or validate operation)."""
        per_op: dict[int, Counter] = {}
        for _id, _parent, name, _start, _end, op in self.spans:
            if op in analyze_ops and name in PER_ANALYZE:
                per_op.setdefault(op, Counter())[name] += 1
        return {name: max((c[name] for c in per_op.values()), default=0) for name in PER_ANALYZE}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
