"""Span tracing of thresholdlab's layers, from outside the package.

``Tracer.install`` replaces each traced entry point with a wrapper that
records a span (name, parent, start, end, counts).  The wrapper goes
everywhere callers look the function up: every module of the package
whose globals hold the original object gets the wrapper, so names brought
in with ``from ... import`` are traced too.  Methods are wrapped on each
class that defines them.  ``uninstall`` restores the originals.

Each thread keeps its own span stack.  A span opened on a thread with an
empty stack (a ``curve``/``scaling`` pool worker) takes the ``cli.main``
span of the current operation as its parent.  Spans stay in memory until
``summarise``/``dump`` at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "thresholdlab"
# (module, attribute, span name); a name of None means the span is named
# after the EvalResult.method the call returns.
FUNCTIONS = (
    ("_binom", "upper_tail", "binom.upper_tail"),
    ("_binom", "pmf", "binom.pmf"),
    ("exact_eval", "availability", None),
    ("exact_eval", "derivative", "exact_eval.derivative"),
    ("exact_eval", "reliability_polynomial", "exact_eval.reliability_polynomial"),
    ("exact_eval", "influences", "exact_eval.influences"),
    ("threshold", "locate", "threshold.locate"),
    ("threshold", "width", "threshold.width"),
    ("construction", "build_arbitrary_width", "construction.build_arbitrary_width"),
    ("structures", "truth_table", "structures.truth_table"),
    ("montecarlo", "estimate_availability", "montecarlo.sample"),
    ("montecarlo", "estimate_to_halfwidth", "montecarlo.sample"),
    ("grammar", "parse_expr", "grammar.parse_expr"),
)
ROOT = "cli.main"
AVAILABILITY = "exact_eval.availability."
METHODS = ("closed_form", "binomial_tail", "dp", "brute_force", "composed")
LAYERS = (
    "binom.upper_tail", "binom.pmf",
    *(AVAILABILITY + m for m in METHODS),
    "exact_eval.derivative", "exact_eval.reliability_polynomial", "exact_eval.influences",
    "threshold.locate", "threshold.width", "construction.build_arbitrary_width",
    "structures.truth_table", "structures.contains_batch", "montecarlo.sample",
    "grammar.parse_expr", ROOT,
)


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, count]
        self.root = None  # id of the running cli.main span
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches = []

    def _wrap(self, fn, name, count=None, root=False):
        """Wrapper recording a span per call; ``count(args, result)`` adds a work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else self.root
            if root:
                self.root = sid
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    self.root = None
                label = name or AVAILABILITY + getattr(result, "method", "error")
                n = count(args, result) if count and result is not None else 0
                self.spans.append((sid, parent, label, start, end, n))

        return traced

    def _replace_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap every traced entry point of the (already imported) package."""
        for mod_name, attr, name in FUNCTIONS:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue  # entry point gone: its layer reads zero
            count = (lambda args, result: result.samples) if name == "montecarlo.sample" else None
            self._replace_everywhere(original, self._wrap(original, name, count))
        cli = sys.modules[f"{PACKAGE}.cli"]
        self._replace_everywhere(cli.main, self._wrap(cli.main, ROOT, root=True))

        def rows(args, result):
            return int(args[1].shape[0])

        todo = [sys.modules[f"{PACKAGE}.structures"].StructureExpr]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            original = cls.__dict__.get("_contains_batch")
            if original is not None:
                self._patches.append((cls, "_contains_batch", original))
                setattr(cls, "_contains_batch",
                        self._wrap(original, "structures.contains_batch", rows))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summarise(self) -> dict:
        """Per-layer self time, calls and work counts over all spans.

        Self time is a span's duration minus the union of its children's
        intervals (children on pool threads can overlap one another).
        """
        children = defaultdict(list)
        names = {}
        for sid, parent, name, start, end, _ in self.spans:
            names[sid] = name
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        counts = defaultdict(int)
        evals_under_locate = 0
        for sid, parent, name, start, end, n in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            if f"{name}.calls" in out:
                out[f"{name}.self_s"] += end - start - covered
                out[f"{name}.calls"] += 1
            counts[name] += n
            if name.startswith(AVAILABILITY) and names.get(parent) == "threshold.locate":
                evals_under_locate += 1
        locates = out["threshold.locate.calls"]
        out["threshold.evals_per_locate"] = evals_under_locate / locates if locates else 0.0
        out["structures.contains_batch.rows"] = counts["structures.contains_batch"]
        out["montecarlo.samples"] = counts["montecarlo.sample"]
        return out

    def dump(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
