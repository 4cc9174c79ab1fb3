"""Exhaustive desk-scale verification over canonical tuple universes.

A universe is the set of q-multisets over the value grid [-B, B]^dim that
contain zero, each visited once in a canonical order: one zero element pinned
first, then the other q - 1 elements sorted lexicographically.  Since the
property, rank, classification variant, and audit outcomes are all invariant
under position permutation, visiting one canonical representative per
multiset loses nothing.  A tuple's key is the grid indices of those q - 1
elements; the canonical order is the order of the keys.

The walk visits only the tuples that can hold (P_{q,s}), and of those only
one per negation pair; every tuple of the universe is still counted, by
``universe_size``.

- Expansion.  Lex order on Z^d is total and compatible with addition, so
  ``_fails_by_order``'s argument holds for it: a holder, sorted, ties at
  positions (s-1, s) and (q-s-1, q-s).  Let c = |{s, q-s}|.  A sorted
  q-multiset ties there iff it is the expansion of a sorted
  (q-c)-multiset u: for p in {s, q-s} in increasing order, insert at p a
  copy of the entry at p - 1 (``_visits`` does).  Expansion is a
  bijection, it keeps zero, and it is strictly monotone in lex order, as
  is removing one zero (two sorted sequences of one length compare as the
  least element of their multiset difference, which a common element does
  not change).
  So walking the (q-c)-universe in canonical order and expanding each
  tuple yields the lex survivors, C(g+q-c-2, q-c-1) of them for a grid of
  g values, in canonical order.
- Negation.  x -> -x maps the universe onto itself, and on grid indices
  it is i -> g-1-i.  It reverses lex order and every packed table's order
  (packing is linear), and swaps the two tie pairs, so expand(-u) =
  -expand(u), and each table's order filter drops t iff it drops -t.
  (P_{q,s}) holds for t iff it holds for -t: negation maps equal sums to
  equal sums.  So ``_visits`` yields u only when u <= -u, and a holder
  stands for itself and -t: it is counted twice unless u = -u (Burnside's
  lemma for a group of order 2), and quoted twice, t and canonical -t each
  with its own key.
- Shared facts.  -t, positions fixed, has t's coordinate columns negated,
  which span the same rational row space, so by the argument below it has
  t's facts.  Canonical -t is -t with its nonzero positions reversed, so
  it has them too as far as the facts are invariant under position
  permutation, which the first paragraph already takes for granted: rank,
  the missing equal pair, (P_{r,s}) and the ``classify`` variant are facts
  of the multiset.  The audit's case and failed claims read positions (the
  first equal pair, the greedy basis), so sharing them, like visiting one
  representative per multiset, quotes the audit of one representative; on
  every holder of the cells in ``tests/test_exhaustive.py`` canonical -t's
  own facts equal t's.  Quoted lists are sorted by key at the merge, so
  they come out in canonical order.

Each job packs every grid value once into d tables of ints indexed like
the grid (see ``_tables``): table k packs it with its coordinates rotated
by k, so each coordinate is the most significant digit of one table, and
table 0 is in grid order.  An expanded tuple already ties in grid order;
one whose order statistics in any other table refute (P_{q,s}) (see
``_fails_by_order``) is dropped without forming a sum.  The survivors are
tested for (P_{q,s}) by the kernel, ``tuples._decide_packed``, on their
table-0 ints; it returns a failure witness or None, and only the tuples it
returns None for, the holders, are looked up as vectors.  They are then
ranked, classified, checked for an equal pair, and audited.  The report
aggregates counts and quotes verbatim every tuple that is Unclassified,
fails an audit claim, or lacks an equal pair — those are counterexample
candidates for the classification lemma and force ok=false.

Holders whose coordinates span the same rational row space are analysed
once.  Read a tuple of q elements of Z^d as the d x q matrix M whose rows
are its d coordinate columns, and key a holder by the canonical basis of
M's row space over Q (``lattice._rational_row_basis``).  Two holders t and
t' with one key have the same integer relations Rel = {n in Z^q : M n = 0},
the integer points of the row space's orthogonal complement.  So
phi(sum n_i t_i) = sum n_i t'_i is a well-defined group isomorphism
span(t) -> span(t') with phi(t_i) = t'_i at every position i, and it
extends to a Q-linear isomorphism of the rational spans.
When M' = W M for an integer matrix W of nonzero determinant, phi is W;
a unimodular W, a change of coordinates, is the special case.
Every fact the report reads off a holder is stated through the tuple's own
elements, never by comparing a subgroup with Z^d, and phi preserves each:

- rank: the rational spans are isomorphic.
- a missing equal pair: t_i = t_j exactly when the relation with 1 at i
  and -1 at j is in Rel, so exactly when t'_i = t'_j; the first equal
  pair, and zero, sit at the same positions.
- the ``classify`` variant.  ``classify`` reads the rank, the value
  multiplicities, which equal pairs fix, and for type B rational
  coordinates over the chosen basis; it compares no lattices.  Rank below
  s-1 is a rank test, and type A is a multiplicity test.  The type-B
  result does not depend on the order of the nonzero values (see
  ``classify``): its block test reads the rational coordinates of the
  other values over the greedy independent ones, which phi preserves.
  Both translate by a value t_j of the tuple, and translation commutes
  with phi: phi(x - t_j) = phi(x) - t'_j.  (P_{r,s}), checked on an
  Unclassified holder, reads which selections have equal sums, that is
  integer relations: phi maps equal sums to equal sums and back.
- ``_audit_holder``'s case and failed claims.  Translating by the value of
  the first equal pair commutes with phi, and zero sits at the same
  positions.  The greedy positions of ``q_basis_certificate`` are the first
  Q-independent ones, and its exponents are the rational coordinates over
  them scaled by the least clearing multipliers; phi keeps both.  So the
  case, the multiplicity classes, the sign partitions and their zero
  positions correspond position by position, the nested subtuples are phi
  images of each other, phi restricts to an isomorphism of their spans,
  and their (P_{r,s}), rank and ``classify`` results agree by the
  arguments above.

So ``run_enumeration`` analyses each class once per run, in the calling
process, on its least-key holder, and quotes every member with its own
elements.

The walk is split by position, not by value: of n shares, share i takes
every n-th walked tuple from the i-th on, before any is checked, and
min(jobs, CPU count, lex survivors) processes run one share each, handed
the tables with it; one worker runs share 0 of 1 in process.  A share
analyses no holder: it returns its holders' keys and weights grouped by
class key.  The merge joins the classes, analyses each on its least-key
holder, which is the same holder however the walk was split, sums the
counts and sorts the quoted lists by key, so the report (and its JSON
serialization) is byte-identical no matter how many workers ran.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations_with_replacement, islice, product
from math import comb
from operator import itemgetter

from .classify import VARIANT_UNCLASSIFIED, classify
from .structure import _audit_holder
from .tuples import (
    GroupTuple,
    _charge,
    _decide_packed,
    _packed,
    equal_pair,
    property_work,
    rank,
)
from .lattice import _rational_row_basis

VARIANT_OUT_OF_RANGE = "out_of_range"


@dataclass(frozen=True)
class EnumerationJob:
    s: int
    q: int
    dim: int
    bound: int
    jobs: int = 1

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.q < self.s + 1:
            raise ValueError("q must be at least s+1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def value_grid(dim: int, bound: int) -> list[tuple[int, ...]]:
    """All vectors in [-bound, bound]^dim in lexicographic order."""
    return list(product(range(-bound, bound + 1), repeat=dim))


def universe_size(job: EnumerationJob) -> int:
    g = (2 * job.bound + 1) ** job.dim
    return comb(g + job.q - 2, job.q - 1)


def _lex_survivors(job: EnumerationJob) -> int:
    """C(g+q-c-2, q-c-1) with c = |{s, q-s}|, for a grid of g values: the
    tuples of the universe that can hold (P_{q,s}) (see the module
    docstring)."""
    g = (2 * job.bound + 1) ** job.dim
    n = job.q - len({job.s, job.q - job.s})
    return comb(g + n - 2, n - 1)


def nominal_bill(job: EnumerationJob) -> int:
    """Selections the property pass decides at most: the lex survivors
    times ``property_work(q, q, s)``.  An upper bound: the walk visits one
    tuple per negation pair, and tuples a table's order filter drops decide
    none."""
    return _lex_survivors(job) * property_work(job.q, job.q, job.s)


def _tables(job: EnumerationJob) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The job's grid and packed tables, built once per ``run_enumeration`` call.

    Table k packs every grid value with its coordinates rotated by k,
    ``e[k:] + e[:k]``, through ``_packed`` in base 2sB + 1, for k = 0..d-1,
    into a list indexed like the grid.  Every coordinate of the job lies in
    [-B, B], so every table is exact for the s-sums of every tuple of the
    job.  Table 0, unrotated, orders values lexicographically as the grid
    does, so it is strictly increasing.  The kernel reads table 0.
    """
    grid = value_grid(job.dim, job.bound)
    return grid, [
        _packed([e[k:] + e[:k] for e in grid], job.s, job.bound)
        for k in range(job.dim)
    ]


def _fails_by_order(ints, q: int, s: int) -> bool:
    """True when the order statistics of one table refute (P_{q,s}).

    ``ints`` are a tuple's q elements, packed by one table of ``_tables``.
    Z is totally ordered and its order is compatible with addition.  Sort
    the ints as v_0 <= ... <= v_{q-1} and suppose v_{q-s-1} != v_{q-s}, so
    v_{q-s-1} < v_{q-s}.  Take any s-selection other than the top one
    {q-s, ..., q-1}, with sorted positions i_0 < ... < i_{s-1}.  Then
    i_j <= q-s+j, so v_{i_j} <= v_{q-s+j} for every j, and i_0 < q-s
    because the selection is not the top one, so v_{i_0} <= v_{q-s-1} <
    v_{q-s}.  Adding these inequalities, one of them strict, gives an int
    sum strictly below the top selection's.  The table packs s-sums exactly
    (see ``_tables``), so equal vector sums would have equal int sums: the
    two vector sums differ too.  So the top selection
    has no distinct equal-sum partner in the window of all q positions, and
    (P_{q,s}) fails.  Mirrored, the bottom selection {0, ..., s-1} has none
    when v_{s-1} != v_s.

    The argument holds for every table as it stands; no order on vectors
    is needed.  The predicate rejects only non-holders, and a report lists
    no non-holder, so pruning leaves every report unchanged.  On table 0,
    which orders values as the grid does, it keeps all that ``_visits`` yields.
    """
    v = sorted(ints)
    return v[q - s - 1] != v[q - s] or v[s - 1] != v[s]


def _visits(q: int, s: int, g: int, i: int, n: int):
    """Share i of n of the walk: its expanded tuples, with their weights.

    The walk runs over the sorted grid-index tuples u of the
    (q-c)-universe, c = |{s, q-s}|, in canonical order, as the free slots
    (u without its pinned zero); the share takes every n-th of them from
    the i-th on, before the negation check and the expansion, so it does
    Python work only for its own tuples.  For each u <= -u it yields
    (the expansion of u, weight); -u is u negated, x -> g-1-x, and
    re-sorted, and the weight is 1 when u = -u and else 2 (see the module
    docstring).  The expansion positions {s, q-s} are sorted once per share.

    Sorted index tuples of one length compare as their least entries first,
    and -u's least entry is g-1 minus u's greatest.  So u > -u whenever
    u[0] + u[-1] > g-1: every u whose first free slot is past zero's index,
    and every u with an entry above g-1 minus its first free slot, which
    the walk never forms.  Only when u[0] + u[-1] == g-1 are the two
    compared in full.  When q - c is 1 (s=1 q=2, s=1 q=3, s=2 q=3) the walk
    has no free slot: it is the one empty tuple, zero alone, which expands
    to the all-zero tuple.
    """
    top = g - 1
    zero = top // 2
    positions = sorted({s, q - s})
    free = q - len(positions) - 1
    walk = [()]
    if free:
        walk = chain.from_iterable(
            map(
                (first,).__add__,
                combinations_with_replacement(range(first, g - first), free - 1),
            )
            for first in range(zero + 1)
        )
    for u in islice(walk, i, None, n):
        j = bisect_left(u, zero)
        u = u[:j] + (zero,) + u[j:]
        weight = 2
        if u[0] + u[-1] == top:
            negated = tuple(map(top.__sub__, reversed(u)))
            if u > negated:
                continue
            if u == negated:
                weight = 1
        for p in positions:
            u = u[:p] + u[p - 1 :]
        yield u, weight


def _holder_facts(job: EnumerationJob, elements) -> tuple:
    """What the report reads off one holder.

    Returns (rank, variant, property_holds, equal pair missing, audit),
    where ``audit`` is None when the audit passes or is skipped, and else its
    case and failed claim names.  Every holder whose coordinate columns
    span the same rational row space has the same entries (see the module
    docstring), so ``run_enumeration`` calls this once per class per run,
    in the calling process, on the class's least-key holder.  A holder
    without an equal pair is not audited: ``_audit_holder`` cannot
    normalise it, and the missing pair is already quoted.  Only this
    function reads the budget, in its nested checks: the audit's subtuple
    checks, and ``classify``'s property check of an Unclassified holder.
    """
    t = GroupTuple(dim=job.dim, elements=elements)
    missing = equal_pair(t) is None
    if not 2 <= job.s < job.q <= 2 * job.s:
        return rank(t), VARIANT_OUT_OF_RANGE, None, missing, None
    cls = classify(t, job.s)
    audit = None
    if not missing:
        report = _audit_holder(t, job.s)
        if not report.all_pass:
            audit = report.case, tuple(c.name for c in report.failures)
    return cls.rank, cls.variant, cls.property_holds, missing, audit


def _process_share(job: EnumerationJob, tables: tuple, i: int, n: int) -> dict:
    """The holders of share i of n of the walk, grouped by class.
    ``tables`` is the job's ``_tables``.

    ``_visits`` yields the share's expanded tuples as sorted grid indices,
    one per negation pair.  One that ``_fails_by_order`` on any table but
    table 0 is dropped (table 0 drops none of them), and the kernel decides
    the (P_{q,s}) of the others on their table-0 ints: a tuple it returns
    no witness for is a holder.  A holder's key is its indices without
    zero's; its canonical form is zero, then the values at its key.
    Returns {class key: [(key, weight), ...]}, in walk order, where the
    class key is ``_rational_row_basis`` of the canonical form's coordinate
    columns.  The share analyses no holder.

    This is the one check of each tuple's (P_{q,s}), and it skips
    ``has_property``'s budget guard: a check decides at most
    ``property_work(q, q, s)`` selections, which is at most ``nominal_bill``
    (the walk visits at least one tuple), and ``run_enumeration`` refuses
    the job up front when that bill exceeds the budget.
    """
    grid, (table0, *rotated) = tables
    q, s = job.q, job.s
    zero = (len(grid) - 1) // 2
    classes = {}
    for w, weight in _visits(q, s, len(grid), i, n):
        for t in rotated:
            if _fails_by_order(map(t.__getitem__, w), q, s):
                break
        else:
            if _decide_packed([table0[k] for k in w], q, s) is None:
                j = bisect_left(w, zero)
                key = w[:j] + w[j + 1 :]
                span = _rational_row_basis(zip(grid[zero], *map(grid.__getitem__, key)))
                classes.setdefault(span, []).append((key, weight))
    return classes


def run_enumeration(job: EnumerationJob) -> dict:
    """Enumerate the whole universe and return the JSON-ready report.

    The walk visits one lex survivor per negation pair, and the report
    counts every tuple of the universe (see the module docstring).

    Raises BudgetExceeded before any work when ``nominal_bill`` exceeds the
    budget (ABTUPLE_BUDGET, else 10**9).  Each tuple's (P_{q,s}) is checked
    once, in ``_process_share``, under that bill; only the nested checks of
    the audit's zero-axis subtuples, and ``classify``'s check of an
    Unclassified holder, read the budget again.

    The packed tables (``_tables``) are built once per call.  One worker
    runs share 0 of 1 of the walk in process.  Otherwise a pool runs one
    share per worker, each a task that carries the tables, so each worker
    receives them once.

    The shares' classes are merged here, and each class of holders, those
    whose coordinate columns span one rational row space (see the module
    docstring), is analysed once per run, in this process, on its
    least-key holder.  The walk is in key order, so that is the holder one
    share of one analyses first, and the report does not depend on how the
    walk was split.  A class that quotes quotes every member, and the
    canonical -t of each member t that is not its own negation.
    """
    job.validate()
    bill = nominal_bill(job)
    _charge(bill, f"enumeration forms up to {bill} subset sums")
    # A pool may start all its workers at once, so start no more than there
    # are CPUs or lex survivors: a cell with one survivor starts no pool.
    workers = min(job.jobs, os.cpu_count() or 1, _lex_survivors(job))
    tables = _tables(job)
    share = partial(_process_share, job, tables, n=workers)
    if workers == 1:
        parts = [share(0)]
    else:
        # Imported only here: it loads multiprocessing, which a one-worker
        # run and a plain ``import abtuple`` never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as executor:
            parts = list(executor.map(share, range(workers)))
    classes = {}
    for part in parts:
        for span, members in part.items():
            classes.setdefault(span, []).extend(members)
    grid = tables[0]
    top = len(grid) - 1

    def canonical(key):
        return (grid[top // 2],) + tuple(grid[k] for k in key)

    with_property, ranks, variants = 0, {}, {}
    quoted = {"equal_pair_missing": [], "unclassified": [], "audit_failures": []}
    for members in classes.values():
        facts = _holder_facts(job, canonical(min(members)[0]))
        tr, variant, property_holds, missing, audit = facts
        weight = sum(w for _, w in members)
        with_property += weight
        ranks[str(tr)] = ranks.get(str(tr), 0) + weight
        variants[variant] = variants.get(variant, 0) + weight
        if not (missing or variant == VARIANT_UNCLASSIFIED or audit is not None):
            continue
        keys = [key for key, _ in members]
        keys += [tuple(map(top.__sub__, reversed(k))) for k, w in members if w == 2]
        for key in keys:
            listed = [list(e) for e in canonical(key)]
            if missing:
                quoted["equal_pair_missing"].append((key, {"elements": listed}))
            if variant == VARIANT_UNCLASSIFIED:
                entry = {"elements": listed, "rank": tr, "property_holds": property_holds}
                quoted["unclassified"].append((key, entry))
            if audit is not None:
                entry = {"elements": listed, "case": audit[0], "failed": list(audit[1])}
                quoted["audit_failures"].append((key, entry))
    for name, entries in quoted.items():
        quoted[name] = [entry for _, entry in sorted(entries, key=itemgetter(0))]
    # Every universe pins zero.  The report still says so, and counts no
    # holder without zero, in the keys it has always had.
    report = {
        "job": {
            "s": job.s,
            "q": job.q,
            "dim": job.dim,
            "bound": job.bound,
            "require_zero": True,
        },
        "tuples": universe_size(job),
        "with_property": with_property,
        "ranks": ranks,
        "variants": variants,
        **quoted,
        "without_zero": 0,
        "ok": not any(quoted.values()),
    }
    return report
