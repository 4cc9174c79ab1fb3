"""Span recording around the public functions of each ``abtuple`` layer.

A ``Tracer`` wraps the functions in ``TRACED`` and rebinds every name that
refers to one of them in the loaded ``abtuple`` modules: the package itself,
the defining module and each module that imported the name.  Calls between
layers therefore go through the wrappers too, so ``audit_claims`` gets a
span with ``has_property`` spans under it.  ``restore`` puts every original
back, and nothing is wrapped outside ``with tracer:`` blocks.

A span is (id, parent id, op, name, start, end); the op id is set by the
benchmark before each operation, so all spans of one operation share it.  A
layer's self time is its spans' durations minus the time their child spans
cover.  ``subset_sum`` is left unwrapped on purpose: it runs for every
selection of every window, and ``sums_formed`` counts that work instead.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import time
from math import comb

from abtuple import property_cost

TRACED = (
    (
        "lattice",
        (
            "hnf_rows",
            "solve_rational_combination",
            "sublattice_index",
            "primitive_representative",
        ),
    ),
    ("tuples", ("has_property", "rank")),
    (
        "structure",
        (
            "q_basis_certificate",
            "verify_certificate",
            "adequate_basis_decide",
            "audit_claims",
        ),
    ),
    ("classify", ("classify", "verify_classification")),
    ("generators", ("generate",)),
    ("exhaustive", ("run_enumeration",)),
)


def lex_rank(subset, n: int) -> int:
    """0-based position of a sorted k-subset of range(n) in the order of
    ``itertools.combinations(range(n), k)``."""
    k = len(subset)
    rank = 0
    prev = -1
    for i, c in enumerate(subset):
        for j in range(prev + 1, c):
            rank += comb(n - 1 - j, k - 1 - i)
        prev = c
    return rank


def _observe_property(extra: dict, args, report) -> None:
    q, r, s = report.q, report.r, report.s
    if report.holds:
        windows = comb(q, r)
    else:
        windows = lex_rank(report.failure_witness[0], q) + 1
        extra["early_exits"] += 1
    extra["sums_formed"] += windows * comb(r, s)
    extra["billed"] += property_cost(q, r, s)


def _observe_adequate(extra: dict, args, decision) -> None:
    q = len(args[0])
    if decision.exists:
        extra["subsets_scanned"] += lex_rank(decision.witness.indices, q) + 1
    else:
        extra["subsets_scanned"] += comb(q, len(decision.refutation[0][0]))


OBSERVERS = {
    "tuples.has_property": (
        _observe_property,
        ("early_exits", "sums_formed", "billed"),
    ),
    "structure.adequate_basis_decide": (_observe_adequate, ("subsets_scanned",)),
}


class LayerStats:
    def __init__(self, extra_keys=()):
        self.calls = 0
        self.self_s = 0.0
        self.extra = dict.fromkeys(extra_keys, 0)


class Tracer:
    """Per-layer counts and self times, plus the raw spans."""

    def __init__(self):
        self.op = None
        self.spans: list[tuple] = []
        self.stats: dict[str, LayerStats] = {}
        self._wrappers: dict[str, tuple] = {}
        self._saved: list[tuple] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        for layer, names in TRACED:
            module = sys.modules[f"abtuple.{layer}"]
            for name in names:
                key = f"{layer}.{name}"
                observe, extra_keys = OBSERVERS.get(key, (None, ()))
                self.stats[key] = LayerStats(extra_keys)
                original = getattr(module, name)
                self._wrappers[name] = (
                    original,
                    self._wrap(key, original, observe),
                )

    def _wrap(self, key, fn, observe):
        stats = self.stats[key]
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stats.calls += 1
                stats.self_s += duration - frame[1]
                spans.append(
                    (frame[0], -1 if parent is None else parent[0], self.op, key, start, end)
                )
            if observe is not None:
                observe(stats.extra, args, result)
                if parent is not None:
                    # Bookkeeping is not the parent layer's work.
                    parent[1] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in sys.modules.items()
            if name == "abtuple" or name.startswith("abtuple.")
        ]
        for module in modules:
            for name, (original, wrapper) in self._wrappers.items():
                if module.__dict__.get(name) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for key, st in self.stats.items():
            out[f"{key}.calls"] = (st.calls, "count")
            out[f"{key}.self_s"] = (st.self_s, "s")
        prop = self.stats["tuples.has_property"]
        calls, extra = prop.calls, prop.extra
        out["tuples.has_property.early_exit_frac"] = (
            extra["early_exits"] / calls if calls else 0.0,
            "frac",
        )
        out["tuples.has_property.sums_formed"] = (extra["sums_formed"], "count")
        out["tuples.has_property.billed"] = (extra["billed"], "count")
        out["tuples.has_property.work_ratio"] = (
            extra["sums_formed"] / extra["billed"] if extra["billed"] else 0.0,
            "ratio",
        )
        out["structure.adequate_basis_decide.subsets_scanned"] = (
            self.stats["structure.adequate_basis_decide"].extra["subsets_scanned"],
            "count",
        )
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV (times in seconds), gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for sid, parent, op, key, start, end in self.spans:
                fh.write(f"{sid},{parent},{op},{key},{start:.9f},{end:.9f}\n")
