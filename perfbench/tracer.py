"""Spans around the calls into each layer, recorded from outside the package.

``traced(tracer)`` rebinds, for the duration of a ``with`` block, every
attribute through which callers resolve a traced function: the module
attribute (``criteria.freq_response`` as well as ``lti.freq_response``) or
the class attribute (``lti.StateSpace.evaluate``).  Spans are kept in
memory as (op, name, start, end, parent) and written out by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter


def _size_of_locus(result) -> int:
    return int(result.omegas.size)


# (module, qualified name, counter of work points per call or None)
TARGETS = (
    ("aircraft", "load_model_file", None),
    ("aircraft", "build_uncertain_plant", None),
    ("aircraft", "augment_uncertain_plant", None),
    ("mdelta", "build_mdelta", None),
    ("mdelta", "closed_loop_matrix", None),
    ("lti", "freq_response", _size_of_locus),
    ("lti", "StateSpace.evaluate", None),
    ("criteria", "sample_locus", _size_of_locus),
    ("criteria", "exact_bounds", None),
    ("criteria", "small_gain_bounds", None),
    ("criteria", "circle_bounds", None),
    ("criteria", "positive_real_bounds", None),
    ("criteria", "popov_bounds", None),
    ("criteria", "verify_interval", None),
    ("pipeline", "build_session", None),
    ("pipeline", "run_analysis", None),
    ("svgplot", "render_svg", None),
    ("svgplot", "rows_to_csv", None),
)
SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual, _ in TARGETS)
POINT_NAMES = tuple(f"{mod}.{qual}" for mod, qual, count in TARGETS if count)
# Modules whose namespaces may hold a traced function under some name.
SCANNED = ("cgmargin", "cgmargin.aircraft", "cgmargin.mdelta", "cgmargin.lti",
           "cgmargin.criteria", "cgmargin.pipeline", "cgmargin.svgplot",
           "cgmargin.cli")


class Tracer:
    def __init__(self):
        self.spans = []        # [op, name, start, end, parent index or -1]
        self.points = Counter()
        self.op = -1
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack, points = self.spans, self._stack, self.points

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if count is not None:
                points[name] += count(result)
            return result

        return wrapper

    def summary(self, ops: list[int]) -> dict:
        """Per span name: calls, self seconds; per op: top-level seconds."""
        child = defaultdict(float)
        for op, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        top = {op: 0.0 for op in ops}
        for idx, (op, name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
            if parent < 0:
                top[op] += end - start
        return {"calls": calls, "self_s": self_s, "top_s": top}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install wrappers for every target; restore the originals on exit."""
    modules = [importlib.import_module(m) for m in SCANNED]
    saved = []
    try:
        for mod_name, qualname, count in TARGETS:
            owner = importlib.import_module(f"cgmargin.{mod_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(f"{mod_name}.{qualname}", original, count)
            for ns in [*modules, owner] if path else modules:
                for key, val in list(vars(ns).items()):
                    if val is original:
                        saved.append((ns, key, val))
                        setattr(ns, key, wrapper)
        yield tracer
    finally:
        for ns, key, val in reversed(saved):
            setattr(ns, key, val)
