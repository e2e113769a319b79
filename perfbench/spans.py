"""In-memory spans around the public functions of each conevac layer.

A `Tracer` keeps one tuple per span (name, start, end, parent, op id,
outcome) and writes them out only when asked, after the run.  Spans are
recorded from outside the program: the benchmark wraps its own calls
into `cli.main`, `run_oracle_suite` and `stress_t0`, and `instrument`
swaps the public functions of the `stress` and `kernels` layers for
timing wrappers in every loaded conevac module that holds them, putting
the originals back on exit.  `count_jets` does the same for the arithmetic
of `jets.Jet2`, counting operations instead of timing them, because a
wrapper around every jet operation would distort the times.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# Layer functions that get a span: (module holding the original, name).
_TRACED = (
    ("conevac.stress", "stress_t0"),
    ("conevac.stress", "stress_at"),
    ("conevac.kernels", "kernel_expr"),
    ("conevac.kernels", "mode_integral"),
)

# Stress calls kept per geometry kind for the jet-count replay.
_REPLAY_PER_KIND = 20


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op, outcome)
        self._stack: list[int] = []
        self.op = 0
        self.replay: dict[str, list] = defaultdict(list)
        self.t0_results: list[tuple] = []  # (args, kwargs, result), checked later

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        outcome = "ok"
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            outcome = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op, outcome)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans) if s[0] == name]

    def children_of(self, parent_name: str, child_name: str) -> int:
        return sum(
            1 for s in self.spans
            if s[0] == child_name and s[3] >= 0 and self.spans[s[3]][0] == parent_name
        )

    def outcomes(self, name: str) -> Counter:
        return Counter(s[5] for s in self.spans if s[0] == name)

    def write(self, fh, phase: str) -> None:
        for name, start, end, parent, op, outcome in self.spans:
            fh.write(json.dumps({"phase": phase, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": op, "outcome": outcome}))
            fh.write("\n")


def median(values, default=0.0):
    return statistics.median(values) if values else default


@contextlib.contextmanager
def _patched(originals: dict, replacements: dict):
    """Swap each original object for its replacement in every conevac module."""
    saved = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "conevac" or mod_name.startswith("conevac.")):
            continue
        for attr, value in vars(mod).copy().items():
            for key, orig in originals.items():
                if value is orig:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, replacements[key])
    try:
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record spans for the traced layer functions while the block runs."""
    originals = {}
    for mod_name, name in _TRACED:
        fn = getattr(sys.modules.get(mod_name), name, None)
        if fn is not None:
            originals[name] = fn
    replacements = {}
    if "stress_t0" in originals:
        t0 = originals["stress_t0"]

        def stress_t0(*args, **kwargs):
            result = tracer.call("stress.t0", t0, *args, **kwargs)
            tracer.t0_results.append((args, kwargs, result))
            return result
        replacements["stress_t0"] = stress_t0
    if "stress_at" in originals:
        at = originals["stress_at"]

        def stress_at(*args, **kwargs):
            kind = type(args[0] if args else kwargs.get("geometry")).__name__.lower()
            if len(tracer.replay[kind]) < _REPLAY_PER_KIND:
                tracer.replay[kind].append((args, kwargs))
            return tracer.call("stress.at", at, *args, **kwargs)
        replacements["stress_at"] = stress_at
    if "kernel_expr" in originals:
        ke = originals["kernel_expr"]

        def kernel_expr(*args, **kwargs):
            return tracer.wrap("kernels.expr", ke(*args, **kwargs))
        replacements["kernel_expr"] = kernel_expr
    if "mode_integral" in originals:
        replacements["mode_integral"] = tracer.wrap("kernels.mode_integral",
                                                    originals["mode_integral"])
    with _patched(originals, replacements):
        yield


# -- jet operation counts ----------------------------------------------------

_JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "__pow__", "_compose")


class JetCounts:
    def __init__(self):
        self.ops = 0
        self.promotions = 0
        self.hess_bytes = 0
        self._depth = 0


@contextlib.contextmanager
def count_jets(counts: JetCounts):
    """Count Jet2 operations while the block runs.

    An operation is an arithmetic call or an elementary-function
    composition entered from outside another jet operation (so the
    `o - self` inside `__rsub__` is not counted twice).  A promotion is
    a number lifted to a constant jet.  Hessian bytes add up the Hessian
    arrays of every Jet2 built, a computed figure that leaves out numpy
    temporaries.  Counts nothing when the jet engine has no `Jet2`.
    """
    jets = sys.modules.get("conevac.jets")
    cls = getattr(jets, "Jet2", None)
    if cls is None:
        yield
        return
    saved = {name: cls.__dict__[name] for name in (*_JET_OPS, "_promote", "__init__")
             if name in cls.__dict__}

    def counting(fn):
        def op(*args, **kwargs):
            if counts._depth == 0:
                counts.ops += 1
            counts._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                counts._depth -= 1
        return op

    def promote(self, other):
        out = saved["_promote"](self, other)
        if out is not None and out is not other:
            counts.promotions += 1
        return out

    def init(self, *args, **kwargs):
        saved["__init__"](self, *args, **kwargs)
        counts.hess_bytes += getattr(getattr(self, "hess", None), "nbytes", 0)

    for name, fn in saved.items():
        if name in _JET_OPS:
            setattr(cls, name, counting(fn))
    if "_promote" in saved:
        cls._promote = promote
    if "__init__" in saved:
        cls.__init__ = init
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cls, name, fn)
