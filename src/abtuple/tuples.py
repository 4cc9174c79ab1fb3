"""Tuples of elements of a free abelian group, and the property (P_{r,s}).

A tuple here is an ordered list of integer coordinate vectors, all of one
arity.  Torsion-free abelian groups of finite rank embed in some Q^n, and a
finite tuple then lives (after clearing denominators) in Z^n, so the
integer-vector realization loses no generality for the questions this package
asks: subset-sum coincidences, spans, and index computations are invariant
under such embeddings.

Property (P_{r,s}) holds when inside every r-subset of positions, every
s-subset of those positions admits a *different* s-subset of the same window
with an equal element sum.  Positions are what get compared, not values: a
tuple with repeated values can satisfy the property through positions that
carry equal elements.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .lattice import Lattice, Vector, hnf_rows, vec_sub, zero_vector

DEFAULT_BUDGET = 10**9
BUDGET_ENV = "ABTUPLE_BUDGET"


class BudgetExceeded(Exception):
    """Raised when a requested search would exceed the comparison budget."""


class TupleFormatError(ValueError):
    """Raised for malformed tuple files (text or JSON)."""


@dataclass(frozen=True)
class GroupTuple:
    """Ordered tuple of integer vectors of a common arity.

    Order is significant: positions 1..q are part of the data, and repeated
    values are allowed.
    """

    dim: int
    elements: tuple[Vector, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise TupleFormatError("dim must be >= 1")
        if not self.elements:
            raise TupleFormatError("tuple must contain at least one element")
        for e in self.elements:
            if len(e) != self.dim:
                raise TupleFormatError(
                    f"element of arity {len(e)} in a dimension-{self.dim} tuple"
                )

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> Vector:
        return self.elements[i]


def group_tuple(rows, dim: int | None = None) -> GroupTuple:
    """Build a GroupTuple from any iterable of int sequences."""
    elems = tuple(tuple(int(x) for x in r) for r in rows)
    if dim is None:
        if not elems:
            raise TupleFormatError("cannot infer dimension of an empty tuple")
        dim = len(elems[0])
    return GroupTuple(dim=dim, elements=elems)


# ---------------------------------------------------------------------------
# File formats


def parse_text(text: str) -> GroupTuple:
    """One element per line, space-separated integers; '#' starts a comment."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise TupleFormatError(f"line {lineno}: {exc}") from None
    if not rows:
        raise TupleFormatError("no elements found in tuple text")
    return group_tuple(rows)


def parse_json_obj(obj) -> GroupTuple:
    """JSON form: {"dim": n, "elements": [[...], ...]}, or the bare elements
    array, whose dimension is that of its first row."""
    if isinstance(obj, list):
        dim, elements = None, obj
    elif isinstance(obj, dict):
        try:
            dim = int(obj["dim"])
            elements = obj["elements"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TupleFormatError(f"bad tuple JSON: {exc}") from None
    else:
        raise TupleFormatError("tuple JSON must be an object or an array")
    if not isinstance(elements, list):
        raise TupleFormatError("'elements' must be a list of integer lists")
    rows = []
    for e in elements:
        if not isinstance(e, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in e
        ):
            raise TupleFormatError("'elements' must be a list of integer lists")
        rows.append(tuple(e))
    return group_tuple(rows, dim=dim)


def parse_tuple(text: str) -> GroupTuple:
    """Sniff JSON vs text by the first non-space character."""
    if text.lstrip().startswith(("{", "[")):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TupleFormatError(f"invalid JSON: {exc}") from None
        return parse_json_obj(obj)
    return parse_text(text)


def load_tuple(path: str) -> GroupTuple:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tuple(fh.read())


def to_json_obj(t: GroupTuple) -> dict:
    return {"dim": t.dim, "elements": [list(e) for e in t.elements]}


# ---------------------------------------------------------------------------
# Basic algebra on tuples


def span(t: GroupTuple) -> Lattice:
    """Subgroup of Z^dim generated by the tuple's elements, in canonical form."""
    return hnf_rows(t.elements, t.dim)


def rank(t: GroupTuple) -> int:
    return span(t).rank


def translate(t: GroupTuple, c: Vector) -> GroupTuple:
    """Re-center the tuple at c: each element a becomes a - c."""
    if len(c) != t.dim:
        raise ValueError("translation vector dimension mismatch")
    return GroupTuple(dim=t.dim, elements=tuple(vec_sub(e, c) for e in t.elements))


def subset_sum(t: GroupTuple, indices) -> Vector:
    """Sum of the elements at the given distinct 0-based positions."""
    idx = tuple(indices)
    if len(set(idx)) != len(idx):
        raise ValueError("repeated index in subset")
    total = zero_vector(t.dim)
    for i in idx:
        total = tuple(u + x for u, x in zip(total, t.elements[i]))
    return total


def equal_pair(t: GroupTuple) -> tuple[int, int] | None:
    """Lexicographically first pair i < j with equal elements (0-based)."""
    seen: dict[Vector, int] = {}
    best: tuple[int, int] | None = None
    for j, e in enumerate(t.elements):
        if e in seen:
            cand = (seen[e], j)
            if best is None or cand < best:
                best = cand
        else:
            seen[e] = j
    return best


def value_multiplicities(t: GroupTuple) -> list[tuple[Vector, int]]:
    """(value, count) pairs in first-occurrence order."""
    order: list[Vector] = []
    counts: dict[Vector, int] = {}
    for e in t.elements:
        if e not in counts:
            order.append(e)
            counts[e] = 0
        counts[e] += 1
    return [(v, counts[v]) for v in order]


# ---------------------------------------------------------------------------
# Property (P_{r,s})


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a (P_{r,s}) decision.

    ``failure_witness`` is a (window, selection) pair of 0-based index tuples
    present exactly when the property fails: the selection admits no distinct
    equal-sum selection inside the window.  It is the lexicographically first
    failure in (window, selection) scan order.
    """

    q: int
    r: int
    s: int
    holds: bool
    failure_witness: tuple[tuple[int, ...], tuple[int, ...]] | None

    def to_json_obj(self) -> dict:
        obj = {"r": self.r, "s": self.s, "holds": self.holds}
        if self.failure_witness is not None:
            window, sel = self.failure_witness
            obj["failure_witness"] = {
                "window": [i + 1 for i in window],
                "selection": [i + 1 for i in sel],
            }
        return obj


def property_cost(q: int, r: int, s: int) -> int:
    """Pairwise comparison count of a scan: windows times selection pairs.

    Not the budget's bill; ``property_work`` counts what the check forms."""
    return comb(q, r) * comb(r, s) ** 2


def property_work(q: int, r: int, s: int) -> int:
    """Subset sums a full (P_{r,s}) check forms: windows times selections."""
    return comb(q, r) * comb(r, s)


def current_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise BudgetExceeded(f"{BUDGET_ENV} is not an integer: {raw!r}") from None


def _packed(t: GroupTuple, s: int) -> list[int]:
    """Each element as one int, its coordinates as digits in base M = 2sB + 1.

    B is the largest |coordinate|, so every coordinate of a sum of s elements
    lies in [-sB, sB], the digit range of the balanced base M.  Balanced
    representations are unique, and packing is linear, so two packed s-sums
    are equal exactly when the vector sums are.  Coordinate 0 is the least
    significant digit.
    """
    bound = max(abs(x) for e in t.elements for x in e)
    base = 2 * s * bound + 1
    packed = []
    for e in t.elements:
        value = 0
        for x in reversed(e):
            value = value * base + x
        packed.append(value)
    return packed


def has_property(
    t: GroupTuple, r: int, s: int, budget: int | None = None
) -> PropertyReport:
    """Decide property (P_{r,s}) by exhaustive search.

    Windows (r-subsets of positions) are scanned in lexicographic order, and
    selections (s-subsets of a window) likewise; the first selection whose sum
    is matched by no other selection of its window is the failure witness.
    Sums are formed once per selection on exactly packed integers (see
    ``_packed``) and counted, so a window costs C(r, s) sums.

    Raises BudgetExceeded before any work when the subset sums a full check
    forms, ``property_work(q, r, s)``, exceed the budget (argument, else the
    ABTUPLE_BUDGET environment variable, else 10**9).
    """
    q = len(t)
    if not (1 <= s < r <= q):
        raise ValueError(f"need 1 <= s < r <= q, got q={q} r={r} s={s}")
    limit = current_budget() if budget is None else budget
    work = property_work(q, r, s)
    if work > limit:
        raise BudgetExceeded(
            f"(P_{{{r},{s}}}) check forms {work} subset sums, budget is {limit}"
        )

    packed = _packed(t, s)
    for window in combinations(range(q), r):
        sums = list(map(sum, combinations([packed[i] for i in window], s)))
        counts = Counter(sums)
        if 1 in counts.values():
            for sel, value in zip(combinations(window, s), sums):
                if counts[value] == 1:
                    return PropertyReport(
                        q=q, r=r, s=s, holds=False, failure_witness=(window, sel)
                    )
    return PropertyReport(q=q, r=r, s=s, holds=True, failure_witness=None)
