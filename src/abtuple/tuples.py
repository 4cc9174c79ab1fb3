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
carry equal elements.  ``has_property`` decides it with a witness, and
``_property_holds`` the verdict alone, trying ``_fails_by_order`` first.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .lattice import (
    Lattice,
    Vector,
    _rational_row_basis,
    hnf_rows,
    vec_sub,
    zero_vector,
)


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


def _is_int(x) -> bool:
    """True for an int that is not a bool: JSON's integers, not its booleans."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_json_obj(obj) -> GroupTuple:
    """JSON form: {"dim": n, "elements": [[...], ...]}, or the bare elements
    array, whose dimension is that of its first row."""
    if isinstance(obj, list):
        dim, elements = None, obj
    elif isinstance(obj, dict):
        try:
            dim = obj["dim"]
            elements = obj["elements"]
        except KeyError as exc:
            raise TupleFormatError(f"bad tuple JSON: {exc}") from None
        if not _is_int(dim):
            raise TupleFormatError("'dim' must be an integer")
    else:
        raise TupleFormatError("tuple JSON must be an object or an array")
    if not isinstance(elements, list):
        raise TupleFormatError("'elements' must be a list of integer lists")
    rows = []
    for e in elements:
        if not isinstance(e, list) or not all(map(_is_int, e)):
            raise TupleFormatError("'elements' must be a list of integer lists")
        rows.append(tuple(e))
    return group_tuple(rows, dim=dim)


def parse_tuple(text: str) -> GroupTuple:
    """Sniff JSON vs text by the first non-space character."""
    if text.lstrip().startswith(("{", "[")):
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
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
    """Rank of span(t): the rows of the primitive reduced row echelon form
    of its elements, which is cheaper than the full HNF ``span`` builds."""
    return len(_rational_row_basis(t.elements))


def translate(t: GroupTuple, c: Vector) -> GroupTuple:
    """Re-center the tuple at c: each element a becomes a - c.

    Translation by zero returns ``t`` itself, not a copy, which is safe to
    share because GroupTuple is frozen.  Reads no budget.
    """
    if len(c) != t.dim:
        raise ValueError("translation vector dimension mismatch")
    if not any(c):
        return t
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
    return list(Counter(t.elements).items())


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

    Not the budget's bill; that is ``property_work``."""
    return comb(q, r) * comb(r, s) ** 2


def property_work(q: int, r: int, s: int) -> int:
    """Selections a full (P_{r,s}) check decides: windows times selections.

    An upper bound on the subset sums it forms, r == 2s windows forming
    half, but for a failing window's second pass up to its witness."""
    return comb(q, r) * comb(r, s)


def _charge(bill: int, text: str) -> None:
    """Refuse work that would exceed the budget, before it starts.

    The budget is the ABTUPLE_BUDGET environment variable, else 10**9; no
    other function reads it.  ``text`` describes the bill of ``bill`` units
    and opens the refusal message.  A non-integer ABTUPLE_BUDGET is refused
    as well.
    """
    raw = os.environ.get("ABTUPLE_BUDGET")
    try:
        limit = 10**9 if raw is None else int(raw)
    except ValueError:
        raise BudgetExceeded(f"ABTUPLE_BUDGET is not an integer: {raw!r}") from None
    if bill > limit:
        raise BudgetExceeded(f"{text}, budget is {limit}")


def _packed(values, s: int, bound: int) -> list[int]:
    """Each value as one int, its coordinates as digits in base M = 2sB + 1.

    B = ``bound`` is at least every |coordinate|, so every coordinate of a
    sum of s values lies in [-sB, sB], the digit range of the balanced base
    M.  Balanced representations are unique, and packing is linear, so two
    packed s-sums are equal exactly when the vector sums are.  Coordinate 0
    is the most significant, so packed values order as lex order does: past
    the first coordinate that differs, the differences (each at most 2B <
    M) weigh less than that one's place value.
    """
    base = 2 * s * bound + 1
    packed = []
    for e in values:
        value = 0
        for x in e:
            value = value * base + x
        packed.append(value)
    return packed


def has_property(t: GroupTuple, r: int, s: int) -> PropertyReport:
    """Decide property (P_{r,s}) by exhaustive search.

    Windows (r-subsets of positions) are scanned in lexicographic order, and
    selections (s-subsets of a window) likewise; the first selection whose sum
    is matched by no other selection of its window is the failure witness.
    Sums are formed on exactly packed integers (see ``_packed``) by
    ``_decide_packed``, the package's one kernel, after the budget guard.
    The kernel returns the witness or None; this is the one place that
    builds a ``PropertyReport`` from it.

    Raises BudgetExceeded before any work when ``property_work(q, r, s)``,
    the selections a full check decides, exceeds the budget
    (ABTUPLE_BUDGET, else 10**9).
    """
    witness = _decide_packed(_charged_packing(t, r, s), r, s)
    return PropertyReport(
        q=len(t), r=r, s=s, holds=witness is None, failure_witness=witness
    )


def _charged_packing(t: GroupTuple, r: int, s: int) -> list[int]:
    """``has_property``'s checks and bill, then t packed by ``_packed``."""
    q = len(t)
    if not (1 <= s < r <= q):
        raise ValueError(f"need 1 <= s < r <= q, got q={q} r={r} s={s}")
    work = property_work(q, r, s)
    _charge(work, f"(P_{{{r},{s}}}) check forms {work} subset sums")
    return _packed(t.elements, s, max(abs(x) for e in t.elements for x in e))


def _property_holds(t: GroupTuple, s: int) -> bool:
    """``has_property(t, len(t), s).holds``, billed the same; the kernel
    runs only when ``_fails_by_order`` cannot refute the packed tuple."""
    q = len(t)
    packed = _charged_packing(t, q, s)
    return not _fails_by_order(packed, q, s) and _decide_packed(packed, q, s) is None


def _fails_by_order(ints, q: int, s: int) -> bool:
    """True when the order statistics of ``ints`` refute (P_{q,s}).

    ``ints`` are a tuple's q elements, each packed into one int by a map
    exact for s-sums: ``_packed``, after a signed permutation of the
    coordinates in ``exhaustive._tables``.  The order of Z is total and
    compatible with addition.  Sort the ints as v_0 <= ... <= v_{q-1} and
    suppose v_{q-s-1} < v_{q-s}.  Any s-selection but the top one
    {q-s, ..., q-1}, at sorted positions i_0 < ... < i_{s-1}, has i_j <=
    q-s+j, so v_{i_j} <= v_{q-s+j}, and i_0 < q-s, so v_{i_0} <= v_{q-s-1}
    < v_{q-s}.  Adding these, one of them strict, gives an int sum strictly
    below the top selection's, and the packing is exact, so the vector sums
    differ too.  So the top selection has no distinct equal-sum partner in
    the window of all q positions, and (P_{q,s}) fails.  Mirrored, the
    bottom selection {0, ..., s-1} has none when v_{s-1} != v_s.  No order
    on vectors is needed, and the predicate rejects only non-holders.
    """
    v = sorted(ints)
    return v[q - s - 1] != v[q - s] or v[s - 1] != v[s]


def _decide_packed(
    packed: list[int], r: int, s: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The (P_{r,s}) kernel on exactly packed elements, without a budget.

    Returns the failure witness, a (window, selection) pair of 0-based
    position tuples, or None when the property holds; ``has_property``
    wraps it in a ``PropertyReport``.  ``packed`` holds one int per
    position, packed in any base that is exact for s-sums (see
    ``_packed``): the result depends only on which s-sums are equal, so
    every exact packing gives the same witness.

    Each window counts the sums of the selections that hold its first
    ``lead`` positions, without them.  Up to ``_SPLIT_ABOVE`` selections
    the sums are formed once, in ``combinations`` order, into the list the
    count is built from, a plain dict holding 1 for a sum seen once and 2
    for a repeated one, and the witness is read from that list; above it
    ``_window_counts`` counts them by value class, and only a window with
    a failing selection forms its sums, lazily, up to the first one.  With
    r != 2s, ``lead`` is 0 and a selection fails iff its sum occurs once.
    With r == 2s, ``lead`` is 1 and only the C(r-1, s-1) selections S that
    hold the window's first value v are counted, each by the sum x of S
    without v.  With T the window's sum and k = T - 2v, every other
    s-selection is the complement S'^c of such an S', with sum T - v - x',
    and:

    - two v-holding selections have equal sums iff their x are equal;
    - S and S'^c have equal sums iff x = k - x'.  When k - x == x, S^c
      itself matches S;

    so S fails iff its x occurs once and k - x occurs nowhere.
    Complementing preserves equal sums and distinctness, so S fails iff S^c
    does.  In ``combinations`` order every v-holding selection precedes
    every other one, so the first v-holding S that fails is the window's
    first failure.
    """
    lead = 1 if r == 2 * s else 0
    size = s - lead
    direct = comb(r - lead, size) <= _SPLIT_ABOVE
    for window in combinations(range(len(packed)), r):
        vals = [packed[i] for i in window]
        if direct:
            sums = list(map(sum, combinations(vals[lead:], size)))
            counts = {}
            for x in sums:
                counts[x] = 2 if x in counts else 1
        else:
            counts = _window_counts(vals[lead:], size)
        if lead:
            k = sum(vals) - 2 * vals[0]
            lonely = {x for x, c in counts.items() if c == 1 and k - x not in counts}
        else:
            lonely = {x for x, c in counts.items() if c == 1}
        if lonely:
            if not direct:
                sums = map(sum, combinations(vals[lead:], size))
            for rest, x in zip(combinations(window[lead:], size), sums):
                if x in lonely:
                    return window, window[:lead] + rest
    return None


# The measured direct/class-count crossover of ``_decide_packed``, in
# selections.
_SPLIT_ABOVE = 256


def _window_counts(vals: list[int], k: int) -> Counter:
    """Count the k-selection sums of ``vals``.

    The contract: ``counts[x] == 1`` exactly when one k-selection has the
    sum x, and x is a key exactly when some k-selection has it; a count
    above 1 says only that x occurs more than once.

    ``_decide_packed`` forms the sums of a window of up to
    ``_SPLIT_ABOVE`` selections directly, at the cost of a k-tuple, k - 1
    additions and a dict update each, and calls this only above it.  Here
    the sums are counted by value class, not by selection:

    - The multiset of k-sums depends only on the multiset of values.
    - Group equal values into classes (u_i, m_i).  A composition c, with
      0 <= c_i <= m_i and sum(c) = k, has the sum sum(c_i * u_i) and
      stands for prod(C(m_i, c_i)) selections, its weight.
    - So a sum occurs exactly once iff it is the sum of exactly one
      composition and that composition has weight 1: every c_i is 0 or m_i.

    The count forms ``once``, the sums of the weight-1 compositions kept
    with repetition, and ``multi``, the set of the sums of all other
    compositions.  Then x occurs once iff ``once`` holds x once and x is
    not in ``multi``, and x occurs iff it is in ``once`` or ``multi``.
    ``counts`` counts ``once`` and then each element of ``multi`` twice,
    which answers both questions.

    The count meets in the middle.  The values of the classes with m = 1
    split into a head half and a tail half, whose j-selection sums are
    formed for every size j <= k.  Each repeated class extends the head by
    a small dynamic programme over c = 0..m: c copies add c * u to the sum
    and c to the size, and keep the weight at 1 only when c is 0 or m.  A
    composition is a head part of size j and a tail part of size k - j,
    and weighs 1 iff the head part does, so every pair costs one addition.
    An all-distinct window forms all its sums this way; a window whose
    values repeat forms one sum per composition, not per selection.

    Crossover: the count alone on 113-bit ints, best of 9 runs, three
    interleaved rounds on one 2-core host (Python 3.11), the direct sums
    counted in a plain dict vs the class count, all values distinct:
    C(9,4) = 126, 54 vs 62 us; C(11,3) = 165, 62 vs 75 us; C(10,4) = 210,
    91 vs 91 us; C(12,3) = 220, 85 vs 101 us; C(13,3) = 286, 109 vs 116 us;
    C(11,5) = 462, 217 vs 141 us; C(15,7) = 6,435, 3.7 vs 1.2 ms.  The two
    break even at 210 selections for k = 4.  Every window with 221 to 285
    selections has k = 2, where the direct count still wins (C(22,2) =
    231, 75 vs 113 us; C(24,2) = 276, 67 vs 85 us), so the crossover stays
    at 256.  Values drawn from three favour the class count from 165 on
    (64 vs 62 us; 220: 88 vs 63 us).
    """
    classes = Counter(vals)
    singles = [u for u, m in classes.items() if m == 1]
    h = len(singles) // 2
    head_once, tail_once = (
        [list(map(sum, combinations(part, j))) for j in range(k + 1)]
        for part in (singles[:h], singles[h:])
    )
    head_multi: list[set[int]] = [set() for _ in range(k + 1)]
    for u, m in classes.items():
        if m == 1:
            continue
        # Descending j reads the head tables at j - c before this class
        # extends them.
        for j in range(k, 0, -1):
            for c in range(1, min(m, j) + 1):
                d = c * u
                if c == m:
                    head_once[j] += [x + d for x in head_once[j - c]]
                else:
                    head_multi[j].update([x + d for x in head_once[j - c]])
                head_multi[j].update([x + d for x in head_multi[j - c]])
    once: list[int] = []
    multi: set[int] = set()
    for j in range(k + 1):
        t_once = tail_once[k - j]
        for a in head_once[j]:
            once += [a + b for b in t_once]
        if head_multi[j] and t_once:
            multi.update([a + b for a in head_multi[j] for b in t_once])
    counts = Counter(once)
    counts.update(multi)
    counts.update(multi)
    return counts

