"""Exhaustive desk-scale verification over canonical tuple universes.

A universe is the set of q-multisets over the value grid [-B, B]^dim, each
visited once in a canonical order: elements sorted lexicographically, with one
zero element pinned first when require_zero is set (so the universe is exactly
the multisets containing zero).  Since the property, rank, classification
variant, and audit outcomes are all invariant under position permutation,
visiting one canonical representative per multiset loses nothing.

Every tuple in the universe is counted.  Tuples whose order statistics
already refute (P_{q,s}) (see ``_fails_by_order``) are dropped without forming
a sum; only the survivors are tested for (P_{q,s}), on values packed once per
job.  Holders containing zero are then ranked, classified, checked for an
equal pair, and audited.  The report aggregates counts and quotes verbatim
every tuple that is Unclassified, fails an audit claim, or lacks an equal
pair — those are counterexample candidates for the classification lemma and
force ok=false.

Work is partitioned across processes by the first free slot's grid value; the
merge is a fold in grid order, so the report (and its JSON serialization) is
byte-identical no matter how many workers ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb

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
from .lattice import zero_vector

VARIANT_OUT_OF_RANGE = "out_of_range"


@dataclass(frozen=True)
class EnumerationJob:
    s: int
    q: int
    dim: int
    bound: int
    require_zero: bool = True
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
    free = job.q - 1 if job.require_zero else job.q
    return comb(g + free - 1, free)


def nominal_bill(job: EnumerationJob) -> int:
    """Subset sums the property pass forms at most: universe size times
    ``property_work(q, q, s)``.  An upper bound: tuples the order filter
    drops form no sums."""
    return universe_size(job) * property_work(job.q, job.q, job.s)


def _chunk_elements(job: EnumerationJob, grid, first_idx: int):
    """Canonical tuples whose first free slot holds grid[first_idx]."""
    free = job.q - 1 if job.require_zero else job.q
    head = (zero_vector(job.dim),) if job.require_zero else ()
    lead = grid[first_idx]
    for rest in combinations_with_replacement(grid[first_idx:], free - 1):
        yield head + (lead,) + rest


def _empty_partial() -> dict:
    return {
        "tuples": 0,
        "with_property": 0,
        "without_zero": 0,
        "ranks": {},
        "variants": {},
        "equal_pair_missing": [],
        "unclassified": [],
        "audit_failures": [],
    }


def _fails_by_order(elements, q: int, s: int) -> bool:
    """True when order statistics alone refute (P_{q,s}) on the elements.

    Lexicographic order on Z^d is total and compatible with addition
    (a <= b implies a + c <= b + c).  Sort the elements as v_0 <= ... <=
    v_{q-1} and suppose v_{q-s-1} != v_{q-s}, so v_{q-s-1} < v_{q-s}.  Take
    any s-selection other than the top one {q-s, ..., q-1}, with sorted
    positions i_0 < ... < i_{s-1}.  Then i_j <= q-s+j, so
    v_{i_j} <= v_{q-s+j} for every j, and i_0 < q-s because the selection
    is not the top one, so v_{i_0} <= v_{q-s-1} < v_{q-s}.  Adding these
    inequalities, one of them strict, gives a sum strictly below the top
    selection's.  So the top selection has no distinct equal-sum partner in
    the window of all q positions, and (P_{q,s}) fails.  Mirrored, the
    bottom selection {0, ..., s-1} has none when v_{s-1} != v_s.

    The predicate rejects only non-holders, and a report lists no
    non-holder, so pruning leaves every report unchanged.
    """
    v = sorted(elements)
    return v[q - s - 1] != v[q - s] or v[s - 1] != v[s]


def _examine(job: EnumerationJob, part: dict, elements, pack: dict) -> None:
    """Count one tuple and, if it holds (P_{q,s}), rank, classify and audit it.

    ``pack`` maps each grid value to its packed int.  This is the one check
    of the tuple's (P_{q,s}), and it skips ``has_property``'s budget guard:
    a check forms at most ``property_work(q, q, s)`` sums, which is at most
    ``nominal_bill`` (the universe holds at least one tuple), and
    ``run_enumeration`` refuses the job up front when that bill exceeds the
    budget.  A holder is then audited by ``_audit_holder``, which does not
    check the property again, and its rank is read from ``classify`` when
    that runs, so its span is built once.  Only the nested checks read the
    budget: the audit's subtuple checks, and ``classify``'s property check
    of an Unclassified holder.
    """
    part["tuples"] += 1
    if _fails_by_order(elements, job.q, job.s):
        return
    if not _decide_packed([pack[e] for e in elements], job.q, job.s).holds:
        return
    t = GroupTuple(dim=job.dim, elements=elements)
    part["with_property"] += 1
    if zero_vector(job.dim) not in elements:
        part["without_zero"] += 1
        return
    listed = [list(e) for e in elements]
    cls = classify(t, job.s) if 2 <= job.s and job.q <= 2 * job.s else None
    tr = rank(t) if cls is None else cls.rank
    key = str(tr)
    part["ranks"][key] = part["ranks"].get(key, 0) + 1
    if equal_pair(t) is None:
        part["equal_pair_missing"].append({"elements": listed})
    if cls is not None:
        variant = cls.variant
        if variant == VARIANT_UNCLASSIFIED:
            part["unclassified"].append(
                {
                    "elements": listed,
                    "rank": tr,
                    "property_holds": cls.property_holds,
                }
            )
        report = _audit_holder(t, job.s)
        if not report.all_pass:
            part["audit_failures"].append(
                {
                    "elements": listed,
                    "case": report.case,
                    "failed": [c.name for c in report.failures],
                }
            )
    else:
        variant = VARIANT_OUT_OF_RANGE
    part["variants"][variant] = part["variants"].get(variant, 0) + 1


def _process_chunk(args) -> dict:
    job, first_idx = args
    grid = value_grid(job.dim, job.bound)
    # Every coordinate lies in [-bound, bound], so one packing is exact for
    # the s-sums of every tuple of the job.
    pack = dict(zip(grid, _packed(grid, job.s, job.bound)))
    part = _empty_partial()
    for elements in _chunk_elements(job, grid, first_idx):
        _examine(job, part, elements, pack)
    return part


def _merge(acc: dict, part: dict) -> dict:
    for key in ("tuples", "with_property", "without_zero"):
        acc[key] += part[key]
    for key in ("ranks", "variants"):
        for k, v in part[key].items():
            acc[key][k] = acc[key].get(k, 0) + v
    for key in ("equal_pair_missing", "unclassified", "audit_failures"):
        acc[key].extend(part[key])
    return acc


def run_enumeration(job: EnumerationJob) -> dict:
    """Visit the whole universe and return the JSON-ready report.

    Raises BudgetExceeded before any work when ``nominal_bill`` exceeds the
    budget (ABTUPLE_BUDGET, else 10**9).  Each tuple's (P_{q,s}) is checked
    once, in ``_examine``, under that bill; only the nested checks of the
    audit's zero-axis subtuples, and ``classify``'s check of an Unclassified
    holder, read the budget again.
    """
    job.validate()
    bill = nominal_bill(job)
    _charge(bill, f"enumeration forms up to {bill} subset sums")
    grid = value_grid(job.dim, job.bound)
    chunk_args = [(job, g) for g in range(len(grid))]
    # A pool may start all its workers at once, so start no idle ones.
    workers = min(job.jobs, len(chunk_args))
    if workers == 1:
        partials = map(_process_chunk, chunk_args)
    else:
        # Imported only here: it loads multiprocessing, which a one-worker
        # run and a plain ``import abtuple`` never need.
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            partials = list(executor.map(_process_chunk, chunk_args))
        finally:
            executor.shutdown()
    acc = _empty_partial()
    for part in partials:
        _merge(acc, part)
    report = {
        "job": {
            "s": job.s,
            "q": job.q,
            "dim": job.dim,
            "bound": job.bound,
            "require_zero": job.require_zero,
        },
        **acc,
        "ok": not (
            acc["equal_pair_missing"] or acc["unclassified"] or acc["audit_failures"]
        ),
    }
    return report
