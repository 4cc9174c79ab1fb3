"""Enumeration harness: canonicalization soundness, determinism, budget."""

import concurrent.futures
import functools
import hashlib
import heapq
import importlib
import json
import os
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abtuple import exhaustive, structure
from abtuple.classify import VARIANT_UNCLASSIFIED, _classify, classify
from abtuple.exhaustive import (
    EnumerationJob,
    _holder_facts,
    _process_share,
    _tables,
    _visits,
    nominal_bill,
    run_enumeration,
    universe_size,
    value_grid,
)
from abtuple.generators import random_unimodular
from abtuple.lattice import _rational_row_basis, zero_vector
from abtuple.structure import _audit_holder, audit_claims
from abtuple.tuples import (
    BudgetExceeded,
    GroupTuple,
    _decide_packed,
    _fails_by_order,
    _packed,
    equal_pair,
    group_tuple,
    has_property,
    rank,
)


def universe_elements(job):
    """Every canonical tuple of the universe, as vectors, in canonical
    order: the tuples the enumeration walks on packed ints."""
    zero = zero_vector(job.dim)
    grid = value_grid(job.dim, job.bound)
    for rest in combinations_with_replacement(grid, job.q - 1):
        yield (zero,) + rest


def fails_by_lex_order(elements, q: int, s: int) -> bool:
    """The order filter on vectors under lexicographic order, which is
    total and compatible with addition: the vector-level form of
    ``_fails_by_order``."""
    v = sorted(elements)
    return v[q - s - 1] != v[q - s] or v[s - 1] != v[s]


def expand(u: tuple, q: int, s: int) -> tuple:
    """The sorted q-multiset whose order statistics tie at (s-1, s) and
    (q-s-1, q-s) that the sorted (q-c)-multiset ``u`` stands for: for p in
    {s, q-s} in increasing order, insert at p a copy of the entry at p-1.
    The reference for the expansion ``_visits`` applies inline to each
    walked tuple; entries are anything ordered."""
    for p in sorted({s, q - s}):
        u = u[:p] + u[p - 1 :]
    return u


def reference_property_multisets(job):
    """Non-deduplicating scan: every ordered tuple over the grid that
    contains zero, reduced to sorted-multiset form at the end.  Slow; tiny
    scales only."""
    grid = value_grid(job.dim, job.bound)
    found = set()
    for combo in product(grid, repeat=job.q):
        if (0,) * job.dim not in combo:
            continue
        t = group_tuple(combo, dim=job.dim)
        if has_property(t, job.q, job.s).holds:
            found.add(tuple(sorted(combo)))
    return found


@pytest.fixture
def in_process_pool(monkeypatch):
    """Make run_enumeration's process pool run in this process, each share
    in turn.  Returns the worker counts of the pools started."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def map(self, fn, args):
            return map(fn, args)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            pass

    # run_enumeration imports the pool class when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return pools


class TestUniverse:
    def test_sizes(self):
        assert universe_size(EnumerationJob(s=2, q=3, dim=1, bound=2)) == 15
        assert universe_size(EnumerationJob(s=2, q=4, dim=2, bound=2)) == 2925
        assert universe_size(EnumerationJob(s=3, q=6, dim=2, bound=1)) == 1287

    def test_grid_lex_order(self):
        g = value_grid(1, 1)
        assert g == [(-1,), (0,), (1,)]
        g2 = value_grid(2, 1)
        assert g2[0] == (-1, -1) and g2[-1] == (1, 1)
        assert g2 == sorted(g2)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnumerationJob(s=2, q=3, dim=0, bound=1).validate()
        with pytest.raises(ValueError):
            EnumerationJob(s=2, q=3, dim=1, bound=0).validate()
        with pytest.raises(ValueError):
            EnumerationJob(s=2, q=2, dim=1, bound=1).validate()
        with pytest.raises(ValueError):
            EnumerationJob(s=0, q=3, dim=1, bound=1).validate()
        with pytest.raises(ValueError):
            EnumerationJob(s=2, q=3, dim=1, bound=1, jobs=0).validate()


class TestEnumeration:
    def test_s2_q3_dim1_only_constant_zero(self):
        rep = run_enumeration(EnumerationJob(s=2, q=3, dim=1, bound=2))
        assert rep["tuples"] == 15
        assert rep["with_property"] == 1
        assert rep["ranks"] == {"0": 1}
        assert rep["variants"] == {"rank_below": 1}
        assert rep["ok"] is True
        assert rep["job"] == {
            "s": 2, "q": 3, "dim": 1, "bound": 2, "require_zero": True,
        }

    def test_matches_reference_enumerator(self):
        job = EnumerationJob(s=2, q=3, dim=1, bound=1)
        rep = run_enumeration(job)
        ref = reference_property_multisets(job)
        assert rep["with_property"] == len(ref)

    @pytest.mark.parametrize(
        "s, q, dim, bound", [(2, 5, 1, 2), (3, 4, 2, 1), (3, 5, 1, 2)]
    )
    def test_reference_agrees_when_q_is_not_2s(self, s, q, dim, bound):
        # With q != 2s the top and bottom tie conditions of the order filter
        # test different positions, so each one prunes on its own.
        job = EnumerationJob(s=s, q=q, dim=dim, bound=bound)
        rep = run_enumeration(job)
        assert rep["with_property"] == len(reference_property_multisets(job))

    def test_worker_count_is_invisible(self):
        job1 = EnumerationJob(s=2, q=4, dim=1, bound=2, jobs=1)
        job2 = EnumerationJob(s=2, q=4, dim=1, bound=2, jobs=3)
        a = json.dumps(run_enumeration(job1), sort_keys=True)
        b = json.dumps(run_enumeration(job2), sort_keys=True)
        assert a == b

    def test_counterexample_free_at_s2_small(self):
        rep = run_enumeration(EnumerationJob(s=2, q=4, dim=1, bound=2))
        assert rep["ok"] is True
        assert rep["equal_pair_missing"] == []
        assert rep["unclassified"] == []
        assert rep["audit_failures"] == []
        # Rank never exceeds s-1 = 1 on property instances.
        assert set(rep["ranks"]) <= {"0", "1"}

    def test_rank_one_instances_are_type_b(self):
        rep = run_enumeration(EnumerationJob(s=2, q=4, dim=1, bound=2))
        assert set(rep["variants"]) <= {"rank_below", "type_b"}

    def test_budget_guard(self, monkeypatch):
        job = EnumerationJob(s=2, q=4, dim=2, bound=2)
        monkeypatch.setenv("ABTUPLE_BUDGET", "10")
        assert nominal_bill(job) > 10
        with pytest.raises(BudgetExceeded):
            run_enumeration(job)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_budget_at_nominal_bill(self, monkeypatch, jobs):
        # The bill charged up front also covers the nested subtuple checks
        # of the audit and classify, which read the same budget.
        job = EnumerationJob(s=2, q=4, dim=1, bound=2, jobs=jobs)
        expected = run_enumeration(job)
        bill = nominal_bill(job)
        # 15 lex survivors, C(6, 2), of the 35 tuples, C(4,2) selections each.
        assert bill == 15 * 6
        monkeypatch.setenv("ABTUPLE_BUDGET", str(bill))
        assert run_enumeration(job) == expected
        monkeypatch.setenv("ABTUPLE_BUDGET", str(bill - 1))
        message = f"enumeration forms up to {bill} subset sums, budget is {bill - 1}"
        with pytest.raises(BudgetExceeded) as excinfo:
            run_enumeration(job)
        assert str(excinfo.value) == message

    @staticmethod
    def run_small_cell(monkeypatch, jobs, cpus, q=4):
        """Run s=2 q=4 dim=1 bound=1 (6 lex survivors), or s=2 q=3 dim=1
        bound=1 (1), with os.cpu_count() patched to return ``cpus``, and
        check its report."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        job = EnumerationJob(s=2, q=q, dim=1, bound=1, jobs=jobs)
        assert run_enumeration(job) == run_enumeration(replace(job, jobs=1))

    @pytest.mark.parametrize("jobs, started", [(2, 2), (3, 3), (5000, 6)])
    def test_workers_capped_at_lex_survivors(self, monkeypatch, in_process_pool, jobs, started):
        self.run_small_cell(monkeypatch, jobs, cpus=8)
        assert in_process_pool == [started]

    @pytest.mark.parametrize("jobs", [2, 3, 5000])
    def test_one_lex_survivor_starts_no_pool(self, monkeypatch, in_process_pool, jobs):
        self.run_small_cell(monkeypatch, jobs, cpus=8, q=3)
        assert in_process_pool == []

    @pytest.mark.parametrize("jobs, cpus, started", [(5000, 2, 2), (3, 1, 1), (3, None, 1)])
    def test_workers_capped_at_cpu_count(self, monkeypatch, in_process_pool, jobs, cpus, started):
        # One worker runs in process and starts no pool.  os.cpu_count()
        # returns None when the count is unknown.
        self.run_small_cell(monkeypatch, jobs, cpus)
        assert in_process_pool == ([started] if started > 1 else [])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tables_built_once_per_job(self, monkeypatch, in_process_pool, jobs):
        # s=2 q=4 dim=5 bound=1 has 29,646 lex survivors.  The grid and its
        # ten tables, five rotations each packed as they are and with their
        # second coordinate negated, are built once per call, in process
        # and for a pool, not once per share.
        calls = Counter()
        for name in ("value_grid", "_packed"):

            def counting(*args, _real=getattr(exhaustive, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(exhaustive, name, counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rep = run_enumeration(EnumerationJob(s=2, q=4, dim=5, bound=1, jobs=jobs))
        assert rep["tuples"] == 2421090
        assert in_process_pool == ([2] if jobs == 2 else [])
        assert calls == {"value_grid": 1, "_packed": 10}

    @pytest.mark.parametrize("s, q", [(1, 2), (1, 3), (2, 3)])
    def test_walk_without_a_free_slot_packs_zero_alone(self, s, q):
        # q - |{s, q-s}| = 1: the walk visits the all-zero tuple only, so
        # the grid and each of the 22 tables hold the zero vector alone.
        grid, tables = _tables(EnumerationJob(s=s, q=q, dim=11, bound=1))
        assert grid == [(0,) * 11]
        assert tables == [[0]] * 22

    def test_walk_without_a_free_slot_reports_as_before(self):
        # 3^12 grid values, which a full grid would pack 24 times; the
        # report counts every tuple of the universe all the same.
        job = EnumerationJob(s=2, q=3, dim=12, bound=1)
        rep = run_enumeration(job)
        assert rep["tuples"] == universe_size(job)
        assert rep["with_property"] == 1
        assert report_digest(rep) == "b47ca1ebb84336d7"


def report_digest(report) -> str:
    """First 16 hex digits of the sha256 of the CLI's JSON text."""
    text = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "s, q, dim, bound, digest",
    [
        (3, 6, 2, 2, "f56b9da68dab58a5"),
        (4, 8, 2, 1, "4bc9a59af0cbf5c1"),
        (2, 4, 4, 1, "671e4f2b624f6019"),
        (3, 6, 1, 3, "b03c60816632fdbc"),
        # q != 2s, so the walk expands each tuple at two positions.
        (3, 5, 3, 1, "7c702628185edd48"),
        (2, 5, 2, 2, "74b61c8219bb41ef"),
    ],
)
def test_report_digests_pinned(s, q, dim, bound, digest, jobs):
    job = EnumerationJob(s=s, q=q, dim=dim, bound=bound, jobs=jobs)
    assert report_digest(run_enumeration(job)) == digest


# ---------------------------------------------------------------------------
# The fast path: order filter and per-job packing


@st.composite
def repetitive_windows(draw):
    """(elements, q, s) with heavy value repeats: q picks from a few values."""
    dim = draw(st.integers(1, 4))
    s = draw(st.integers(1, 5))
    q = draw(st.integers(s + 1, 2 * s + 2))
    coords = st.integers(-2, 2)
    pool = draw(
        st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=4, unique=True)
    )
    elements = draw(st.lists(st.sampled_from(pool), min_size=q, max_size=q))
    return tuple(elements), q, s


@functools.cache
def grid_packing(s, dim, bound):
    """Each grid value of [-bound, bound]^dim and its ints in the tables of
    a job with this s, table 0 first, as ``_tables`` builds them.  The
    tables do not depend on q, so the job takes q = 2s + 2, whose walk has
    a free slot and so reads the whole grid."""
    grid, tables = _tables(EnumerationJob(s=s, q=2 * s + 2, dim=dim, bound=bound))
    return dict(zip(grid, zip(*tables)))


def signed_orders(e):
    """The signed coordinate permutations of ``e`` that the tables pack, in
    table order: each rotation by k = 0..dim-1, and in dim >= 2 after each
    rotation that rotation with its second coordinate negated."""
    orders = []
    for k in range(len(e)):
        rotated = e[k:] + e[:k]
        orders.append(rotated)
        if len(e) > 1:
            orders.append((rotated[0], -rotated[1]) + rotated[2:])
    return orders


def table_ints(elements, q, s, bound=2):
    """The elements' ints in each table of a job on [-bound, bound]^dim,
    one tuple of q ints per table, table 0 first."""
    packing = grid_packing(s, len(elements[0]), bound)
    return list(zip(*(packing[e] for e in elements)))


class TestOrderFilter:
    @given(repetitive_windows())
    # A holder whose sorted values differ at positions (s, s+1).
    @example((((-1,), (0,), (0,), (1,)), 4, 2))
    # (0, 4) and (1, -1) are distinct 2-sums of these values.  Table 0 packs
    # them as 9*0 + 4 and 9*1 - 1; in base 5, below 2sB + 1 = 9, both
    # would be 4.
    @example((((0, 2), (0, 2), (1, -1), (0, 0)), 4, 2))
    @settings(max_examples=600, deadline=None)
    def test_rejects_only_non_holders(self, case):
        elements, q, s = case
        holds = has_property(group_tuple(elements), q, s).holds
        vector_sums = {tuple(map(sum, zip(*sel))) for sel in combinations(elements, s)}
        tables = table_ints(elements, q, s)
        dim = len(elements[0])
        assert len(tables) == (2 * dim if dim > 1 else 1)
        for ints, ordered in zip(tables, zip(*map(signed_orders, elements))):
            # Each table is exact for s-sums ...
            assert len(set(map(sum, combinations(ints, s)))) == len(vector_sums)
            # ... and orders single values as lex order does their signed,
            # rotated coordinates, so it is the vector-level filter under
            # that order.
            fails = _fails_by_order(ints, q, s)
            assert fails == fails_by_lex_order(ordered, q, s)
            if fails:
                assert not holds

    @pytest.mark.parametrize("s, dim, bound", [(2, 2, 2), (2, 4, 1), (3, 3, 1), (4, 2, 1)])
    def test_every_table_is_exact_for_s_sums(self, s, dim, bound):
        # The s-sums of grid values fill [-sB, sB]^dim, so a table packed in
        # a base below 2sB + 1 maps two of them to one int.
        packing = grid_packing(s, dim, bound)
        vector_sums = set()
        table_sums = [set() for _ in range(2 * dim)]
        for sel in combinations_with_replacement(packing, s):
            vector_sums.add(tuple(map(sum, zip(*sel))))
            for sums, x in zip(table_sums, map(sum, zip(*map(packing.get, sel)))):
                sums.add(x)
        assert len(vector_sums) == (2 * s * bound + 1) ** dim
        assert len(next(iter(packing.values()))) == 2 * dim
        assert [len(sums) for sums in table_sums] == [len(vector_sums)] * (2 * dim)

    def test_each_tie_condition(self):
        # s=2, q=5, sorted: the top test compares v[2], v[3]; the bottom
        # test compares v[1], v[2].
        assert _fails_by_order((0, 0, 0, 1, 1), 5, 2)  # top
        assert _fails_by_order((0, 0, 1, 1, 1), 5, 2)  # bottom
        assert not _fails_by_order((0, 1, 1, 1, 2), 5, 2)
        assert not _fails_by_order((2, 1, 0, 1, 1), 5, 2)
        # Tables 0 and 1 lead with the first coordinate and tables 2 and 3
        # with the second, so only tables 2 and 3 see the middle pair tie.
        tables = table_ints(((0, 0), (1, 1), (1, 1), (-1, 2)), 4, 2)
        assert [_fails_by_order(ints, 4, 2) for ints in tables] == [
            True, True, False, False
        ]
        # The pair ties in both rotations, and only the second coordinate
        # negated, table 1, sorts (0, 1) below the two zeros and refutes
        # (P_{4,2}): the 2-sum (-1, 0) has no partner.
        tables = table_ints(((-1, -1), (0, 0), (0, 0), (0, 1)), 4, 2)
        assert [_fails_by_order(ints, 4, 2) for ints in tables] == [
            False, True, False, False
        ]

    def test_keeps_every_holder_of_a_cell(self):
        job = EnumerationJob(s=2, q=4, dim=2, bound=1)
        grid = value_grid(job.dim, job.bound)
        kept = kept0 = holders = 0
        for combo in product(grid, repeat=job.q):
            holds = has_property(group_tuple(combo), job.q, job.s).holds
            fails = [
                _fails_by_order(ints, job.q, job.s)
                for ints in table_ints(combo, job.q, job.s, job.bound)
            ]
            assert not (holds and any(fails))
            holders += holds
            kept += not any(fails)
            kept0 += not fails[0]
        # The other three tables prune tuples the first keeps, here every
        # one that does not hold.
        assert (holders, kept, kept0) == (393, 393, 1305)
        assert kept0 < len(grid) ** job.q

    @pytest.mark.parametrize(
        "s, q, dim, bound, calls",
        [(3, 6, 2, 2, 2021), (4, 8, 2, 1, 585), (4, 8, 3, 1, 26962)],
    )
    def test_kernel_calls_pinned(self, monkeypatch, s, q, dim, bound, calls):
        # The visits no table drops, each decided once by the kernel.  With
        # the d rotations alone as tables, 4,101, 947 and 80,251 reach it.
        decided = Counter()

        def counting(ints, r, s_inner):
            decided[r, s_inner] += 1
            return _decide_packed(ints, r, s_inner)

        monkeypatch.setattr(exhaustive, "_decide_packed", counting)
        job = EnumerationJob(s=s, q=q, dim=dim, bound=bound)
        _process_share(job, _tables(job), 0, 1)
        assert decided == {(q, s): calls}


# ---------------------------------------------------------------------------
# The walk: expansion of the (q-c)-universe, one visit per negation pair


@st.composite
def walk_cells(draw):
    """(q, s, g): q = 2s, q < 2s and q > 2s, over g grid indices, g odd,
    with at most 5,000 tuples in the universe."""
    s = draw(st.integers(1, 4))
    q = draw(st.integers(s + 1, 2 * s + 2))
    sizes = [g for g in range(3, 28, 2) if comb(g + q - 2, q - 1) <= 5000]
    g = draw(st.sampled_from(sizes))
    return q, s, g


def lex_survivor_keys(q, s, g):
    """Brute force: the keys of the universe over g grid indices, in walk
    order, whose sorted indices tie at (s-1, s) and (q-s-1, q-s).  A key is
    the sorted indices besides the pinned zero, so the walk order is
    combinations_with_replacement order."""
    zero = (g - 1) // 2
    return [
        key
        for key in combinations_with_replacement(range(g), q - 1)
        if not fails_by_lex_order((zero,) + key, q, s)
    ]


def negated_key(key, g):
    return tuple(g - 1 - i for i in reversed(key))


def without_zero(w, g):
    i = w.index((g - 1) // 2)
    return w[:i] + w[i + 1 :]


def walk_examples(test):
    """The edge cells without a free slot, then q = 2s, q < 2s, q > 2s."""
    cells = [(2, 1, 25), (3, 1, 9), (3, 2, 5), (6, 3, 9), (5, 3, 9), (5, 2, 25), (8, 4, 5)]
    for cell in cells:
        test = example(cell)(test)
    return test


class TestWalk:
    @given(walk_cells())
    @settings(max_examples=150, deadline=None)
    @walk_examples
    def test_expansion_gives_the_lex_survivors_in_order(self, cell):
        # Expand every tuple of the (q-c)-universe, in walk order, and drop
        # one zero: that is the brute-force list.
        q, s, g = cell
        zero = (g - 1) // 2
        n = q - len({s, q - s})
        walked = [
            without_zero(expand(tuple(sorted((zero,) + key)), q, s), g)
            for key in combinations_with_replacement(range(g), n - 1)
        ]
        assert walked == lex_survivor_keys(q, s, g)

    @given(walk_cells())
    @settings(max_examples=150, deadline=None)
    @walk_examples
    def test_visits_one_survivor_per_negation_pair(self, cell):
        # The whole walk, share 0 of 1, visits in walk order the survivors
        # no greater than their negation: weight 1 for a self-negating one,
        # 2 for the rest.
        q, s, g = cell
        survivors = lex_survivor_keys(q, s, g)
        visits = [(without_zero(w, g), weight) for w, weight in _visits(q, s, g, 0, 1)]
        assert visits == [
            (key, 1 if key == negated_key(key, g) else 2)
            for key in survivors
            if key <= negated_key(key, g)
        ]
        visited = {key for key, _ in visits}
        assert visited | {negated_key(key, g) for key in visited} == set(survivors)
        assert sum(weight for _, weight in visits) == len(survivors)

    @given(walk_cells(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    # The edge cells without a free slot, then q = 2s, q < 2s, q > 2s.
    @example((2, 1, 25), 3)
    @example((3, 2, 5), 2)
    @example((6, 3, 9), 5)
    @example((5, 3, 9), 4)
    @example((5, 2, 25), 2)
    def test_shares_split_the_walk(self, cell, n):
        # Share i of n takes every n-th walked tuple from the i-th on, before
        # the negation check drops any, so each share visits in walk order,
        # and the n shares, merged in walk order, are share 0 of 1: the same
        # visits, in the same order, with the same weights.
        q, s, g = cell
        shares = [list(_visits(q, s, g, i, n)) for i in range(n)]
        assert all(share == sorted(share) for share in shares)
        assert list(heapq.merge(*shares)) == list(_visits(q, s, g, 0, 1))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_expansion_commutes_with_negation(self, data):
        s = data.draw(st.integers(1, 6))
        q = data.draw(st.integers(s + 1, 2 * s + 2))
        n = q - len({s, q - s})
        entries = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
        u = tuple(sorted(data.draw(entries)))
        negated = tuple(sorted(-x for x in u))
        assert expand(negated, q, s) == tuple(sorted(-x for x in expand(u, q, s)))


@st.composite
def filter_cells(draw):
    """(s, q, dim, bound): q = 2s, q < 2s and q > 2s, dims 1 to 3, with at
    most 3,000 lex survivors."""
    s = draw(st.integers(1, 4))
    q = draw(st.integers(s + 1, 2 * s + 2))
    n = q - len({s, q - s})
    cells = [
        (dim, bound)
        for dim in (1, 2, 3)
        for bound in (1, 2, 3)
        if comb((2 * bound + 1) ** dim + n - 2, n - 1) <= 3000
    ]
    return (s, q, *draw(st.sampled_from(cells)))


class TestTableZero:
    """Why ``_process_share`` runs no order filter on table 0."""

    @pytest.mark.parametrize(
        "s, dim, bound",
        [
            (s, dim, bound)
            for s in (1, 2, 3)
            for dim in (1, 2, 3, 4)
            for bound in (1, 2)
            if (2 * bound + 1) ** dim <= 625
        ],
    )
    def test_table0_is_in_grid_order(self, s, dim, bound):
        _, (table0, *_) = _tables(EnumerationJob(s=s, q=2 * s, dim=dim, bound=bound))
        assert all(a < b for a, b in zip(table0, table0[1:]))

    @given(filter_cells())
    @settings(max_examples=100, deadline=None)
    @example((3, 6, 2, 2))
    @example((3, 5, 3, 1))
    @example((2, 5, 2, 1))
    def test_table0_keeps_every_visit(self, cell):
        # Every visit ties at (s-1, s) and (q-s-1, q-s) in grid order, which
        # is table 0's order.
        s, q, dim, bound = cell
        grid, (table0, *_) = _tables(EnumerationJob(s=s, q=q, dim=dim, bound=bound))
        g = len(grid)
        visits = [w for w, _ in _visits(q, s, g, 0, 1)]
        assert visits
        for w in visits:
            assert not _fails_by_order([table0[i] for i in w], q, s)


@st.composite
def job_packed_cases(draw):
    """A tuple, a window size r, s, and a job bound >= its largest |coordinate|."""
    dim = draw(st.integers(1, 4))
    s = draw(st.integers(1, 4))
    r = draw(st.integers(s + 1, 2 * s + 1))
    q = draw(st.integers(r, r + 2))
    big = draw(st.sampled_from([0, 1, 2, 3, 10**12]))
    coords = st.integers(-big, big)
    pool = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=q))
    elements = draw(st.lists(st.sampled_from(pool), min_size=q, max_size=q))
    bound = max(1, big) + draw(st.sampled_from([0, 0, 1, 7]))
    return group_tuple(elements, dim=dim), r, s, bound


@given(job_packed_cases())
@settings(max_examples=400, deadline=None)
def test_job_packing_matches_has_property(case):
    # The enumeration packs every grid value once, in base 2*s*bound+1,
    # instead of in the tuple's own base; the whole report, witness
    # included, must not change.
    t, r, s, bound = case
    packed = _packed(t.elements, s, bound)
    assert _decide_packed(packed, r, s) == has_property(t, r, s).failure_witness


# ---------------------------------------------------------------------------
# The holder pass: one property check and one span per holder


# Small cells with type-A and type-B holders, case-alpha and case-beta
# audits, and both q = 2s and q < 2s.
HOLDER_CELLS = [
    (2, 4, 1, 2),
    (2, 4, 2, 2),
    (3, 5, 2, 1),
    (3, 6, 2, 1),
    (4, 7, 2, 1),
    (4, 8, 1, 2),
    (4, 8, 2, 1),
]


def holder_facts(job, elements):
    """``_holder_facts`` of one holder, handed its class key as the slow
    oracle ``class_key`` computes it."""
    key = class_key(GroupTuple(dim=job.dim, elements=elements))
    return _holder_facts(job, elements, key)


def cell_holders(job):
    """Every tuple of the universe that holds (P_{q,s}) and contains zero,
    found through has_property, not through the enumeration's fast path."""
    for elements in universe_elements(job):
        t = GroupTuple(dim=job.dim, elements=elements)
        if has_property(t, job.q, job.s).holds:
            yield t


@pytest.mark.parametrize("s, q, dim, bound", HOLDER_CELLS)
def test_holder_pass_matches_public_functions(s, q, dim, bound):
    job = EnumerationJob(s=s, q=q, dim=dim, bound=bound)
    holders = 0
    for t in cell_holders(job):
        holders += 1
        tables = table_ints(t.elements, q, s, bound)
        assert not any(_fails_by_order(ints, q, s) for ints in tables)
        assert _decide_packed(tables[0], q, s) is None
        cls = classify(t, s)
        report = audit_claims(t, s)
        assert _audit_holder(t, s) == report
        audit = None
        if not report.all_pass:
            audit = report.case, tuple(c.name for c in report.failures)
        assert holder_facts(job, t.elements) == (
            rank(t), cls.variant, cls.property_holds, audit
        )
    assert holders > 0


@pytest.mark.parametrize("s, q, dim, bound", [(3, 6, 2, 1), (4, 8, 2, 1)])
def test_enumeration_checks_property_of_subtuples_only(monkeypatch, s, q, dim, bound):
    # Each holder's own (P_{q,s}) is decided once, by the packed kernel; the
    # has_property calls left are the audit's zero-axis subtuple checks, and
    # classify's check of a subtuple it leaves Unclassified.
    calls = []
    reports = []
    real_check = has_property
    classify_module = importlib.import_module("abtuple.classify")
    real_verdict = classify_module._property_holds
    real_audit = exhaustive._audit_holder

    def counting(t, r, s_inner):
        calls.append((len(t), r))
        return real_check(t, r, s_inner)

    def counting_verdict(t, s_inner):
        calls.append((len(t), len(t)))
        return real_verdict(t, s_inner)

    def recording(t, s_outer):
        reports.append(real_audit(t, s_outer))
        return reports[-1]

    monkeypatch.setattr(structure, "has_property", counting)
    monkeypatch.setattr(classify_module, "_property_holds", counting_verdict)
    monkeypatch.setattr(exhaustive, "_audit_holder", recording)
    rep = run_enumeration(EnumerationJob(s=s, q=q, dim=dim, bound=bound))
    assert rep["ok"] and not rep["unclassified"]
    claims = [c for report in reports for c in report.claims]
    checked = sum(
        c.name == "zero_axis_property" and c.status != "skip" for c in claims
    )
    unclassified = sum(
        c.name == "zero_axis_not_type_a"
        and c.witness.get("variant") == VARIANT_UNCLASSIFIED
        for c in claims
        if c.witness
    )
    assert checked
    assert len(calls) == checked + unclassified
    assert all(n < q and r == n for n, r in calls)


# ---------------------------------------------------------------------------
# Every holder has an equal pair, so the report's equal_pair_missing is empty


@st.composite
def walk_shares(draw):
    """(q, s, g, i, n): s 1-5, q s+1 to 2s+1, g odd up to 9, and share i
    of n, with at most 3,000 walked tuples."""
    s = draw(st.integers(1, 5))
    q = draw(st.integers(s + 1, 2 * s + 1))
    free = q - len({s, q - s})
    sizes = [g for g in (1, 3, 5, 7, 9) if comb(g + free - 2, free - 1) <= 3000]
    n = draw(st.integers(1, 3))
    return q, s, draw(st.sampled_from(sizes)), draw(st.integers(0, n - 1)), n


@given(walk_shares())
@settings(max_examples=200, deadline=None)
# The cells whose walk has no free slot: s=1 q=2, s=1 q=3, s=2 q=3.
@example((2, 1, 5, 0, 1))
@example((3, 1, 3, 0, 1))
@example((3, 2, 9, 0, 1))
@example((3, 2, 9, 1, 2))
def test_every_visit_repeats_a_grid_index(case):
    # Each walked tuple is an expansion, which copies an entry.
    q, s, g, i, n = case
    for w, _ in _visits(q, s, g, i, n):
        assert len(w) == q
        assert len(set(w)) < q


@st.composite
def small_tuples(draw):
    """(t, q, s): q elements of [-2, 2]^dim, dim 1 or 2, s 1-4, q s+1 to
    2s+1; the elements are distinct half the time, else drawn from a pool
    of at most q values."""
    dim = draw(st.integers(1, 2))
    s = draw(st.integers(1, 4))
    q = draw(st.integers(s + 1, 2 * s + 1))
    values = st.tuples(*[st.integers(-2, 2)] * dim)
    if draw(st.booleans()):
        elements = draw(st.lists(values, min_size=q, max_size=q, unique=True))
    else:
        pool = draw(st.lists(values, min_size=1, max_size=q))
        elements = draw(st.lists(st.sampled_from(pool), min_size=q, max_size=q))
    return group_tuple(elements, dim=dim), q, s


@given(small_tuples())
@settings(max_examples=400, deadline=None)
# Holders with a single equal pair, and distinct values that do not hold.
@example((group_tuple([(0,), (0,)]), 2, 1))
@example((group_tuple([(0,), (1,), (1,), (2,)]), 4, 2))
@example((group_tuple([(0,), (1,), (2,), (3,)]), 4, 2))
@example((group_tuple([(0, 0), (1, 0), (0, 1), (1, 1)]), 4, 2))
def test_every_holder_has_an_equal_pair(case):
    # Sorted in lex order, a (P_{q,s}) tuple with q > s ties at positions
    # q-s-1 and q-s, by the contrapositive of _fails_by_order.
    t, q, s = case
    if has_property(t, q, s).holds:
        assert equal_pair(t) is not None


# ---------------------------------------------------------------------------
# Classes: one analysis per rational row space of coordinate columns


def oracle_enumeration(job):
    """The per-holder pass that one analysis per class replaced, in process.

    Every tuple's (P_{q,s}) is decided by has_property, and every holder is
    ranked, classified, checked for an equal pair and audited on its own.
    ``classify`` and ``_audit_holder`` are looked up in this module, so a
    test can patch them here and in ``exhaustive`` alike.
    """
    in_range = 2 <= job.s < job.q <= 2 * job.s
    acc = {
        "tuples": 0,
        "with_property": 0,
        "ranks": {},
        "variants": {},
        "equal_pair_missing": [],
        "unclassified": [],
        "audit_failures": [],
    }
    for elements in universe_elements(job):
        acc["tuples"] += 1
        t = GroupTuple(dim=job.dim, elements=elements)
        if not has_property(t, job.q, job.s).holds:
            continue
        acc["with_property"] += 1
        listed = [list(e) for e in elements]
        tr = rank(t)
        acc["ranks"][str(tr)] = acc["ranks"].get(str(tr), 0) + 1
        missing = equal_pair(t) is None
        if missing:
            acc["equal_pair_missing"].append({"elements": listed})
        cls = classify(t, job.s) if in_range else None
        variant = cls.variant if cls else "out_of_range"
        acc["variants"][variant] = acc["variants"].get(variant, 0) + 1
        if cls is None:
            continue
        if variant == VARIANT_UNCLASSIFIED:
            acc["unclassified"].append(
                {"elements": listed, "rank": tr, "property_holds": cls.property_holds}
            )
        if not missing:
            report = _audit_holder(t, job.s)
            if not report.all_pass:
                acc["audit_failures"].append(
                    {
                        "elements": listed,
                        "case": report.case,
                        "failed": [c.name for c in report.failures],
                    }
                )
    quoted = acc["equal_pair_missing"] or acc["unclassified"] or acc["audit_failures"]
    return {
        "job": {
            "s": job.s,
            "q": job.q,
            "dim": job.dim,
            "bound": job.bound,
            "require_zero": True,
        },
        **acc,
        "without_zero": 0,
        "ok": not quoted,
    }


def rational_rref(rows):
    """Slow oracle for ``_rational_row_basis``: Gauss-Jordan over Fraction to
    the reduced row echelon form, then each row scaled to coprime integers.
    Each pivot is 1 before scaling, so it ends positive."""
    mat = [[Fraction(x) for x in row] for row in rows]
    top = 0
    for c in range(len(mat[0]) if mat else 0):
        sel = next((i for i in range(top, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[top], mat[sel] = mat[sel], mat[top]
        pivot = mat[top][c]
        mat[top] = [x / pivot for x in mat[top]]
        for i in range(len(mat)):
            if i != top:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[top])]
        top += 1
    key = []
    for row in mat[:top]:
        den = lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row]
        g = gcd(*ints)
        key.append(tuple(x // g for x in ints))
    return tuple(key)


def class_key(t: GroupTuple):
    """The class key: the rational row space of the tuple's coordinate
    columns, by the slow oracle."""
    return rational_rref(zip(*t.elements))


@st.composite
def row_sets(draw):
    """1-4 integer rows of one length 1-9, some of them zero or integer
    combinations of the rows before them."""
    n = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append((0,) * n)
        elif kind == "combination" and rows:
            k = len(rows)
            coefficients = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            rows.append(
                tuple(sum(c * row[j] for c, row in zip(coefficients, rows)) for j in range(n))
            )
        else:
            rows.append(tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))))
    return rows


@given(row_sets())
@settings(max_examples=400, deadline=None)
# A row that needs dividing by its gcd; negative pivots, one only after
# elimination; a zero row and a dependent row.
@example([(2, -4, 6)])
@example([(-1, 2, 0)])
@example([(1, 1, 0), (1, 0, 1)])
@example([(0, 0, 0, 0), (3, 0, 6, -3), (2, 1, 4, -2), (5, 1, 10, -5)])
def test_row_space_key_matches_rref_oracle(rows):
    assert _rational_row_basis(rows) == rational_rref(rows)


# dim 1-3, q = 2s, q < 2s and q > 2s (out of the classifier's range).
MEMO_CELLS = [
    (2, 4, 1, 2),
    (2, 4, 2, 1),
    (2, 5, 2, 1),
    (3, 5, 3, 1),
    (3, 6, 2, 1),
    (3, 6, 1, 3),
    (4, 8, 2, 1),
    # The walk has no free slot: only the all-zero tuple survives.
    (1, 2, 2, 2),
    (1, 3, 2, 1),
]


@pytest.mark.parametrize("s, q, dim, bound", MEMO_CELLS)
def test_memo_matches_per_holder_oracle(s, q, dim, bound):
    job = EnumerationJob(s=s, q=q, dim=dim, bound=bound)
    expected = oracle_enumeration(job)
    assert expected["with_property"] > 0
    for jobs in (1, 2):
        assert run_enumeration(replace(job, jobs=jobs)) == expected


@pytest.mark.parametrize(
    "s, q, dim, bound", [(3, 6, 1, 3), (2, 4, 2, 2), (2, 4, 3, 1), (2, 4, 4, 1)]
)
def test_rotations_match_oracle(monkeypatch, in_process_pool, s, q, dim, bound):
    # The d = 1 and d = 4 ends of the family and two cells between: one
    # table, then four, six and eight.  In process, then through a pool,
    # which hands each worker the tables.
    job = EnumerationJob(s=s, q=q, dim=dim, bound=bound)
    expected = oracle_enumeration(job)
    assert run_enumeration(job) == expected
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run_enumeration(replace(job, jobs=2)) == expected
    assert in_process_pool == [2]


@functools.cache
def holders_of(cell):
    s, q, dim, bound = cell
    return [t.elements for t in cell_holders(EnumerationJob(s=s, q=q, dim=dim, bound=bound))]


def mapped(elements, m):
    """Each element e, read as a row vector, becomes e * m."""
    dim = len(m)
    return tuple(
        tuple(sum(x * row[c] for x, row in zip(e, m)) for c in range(dim))
        for e in elements
    )


def assert_same_class(cell, elements, image):
    s, q, dim, bound = cell
    t, t_image = GroupTuple(dim=dim, elements=elements), GroupTuple(dim=dim, elements=image)
    assert class_key(t_image) == class_key(t)
    assert _rational_row_basis(zip(*image)) == _rational_row_basis(zip(*elements))
    job = EnumerationJob(s=s, q=q, dim=dim, bound=bound)
    assert holder_facts(job, image) == holder_facts(job, elements)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_facts_invariant_under_unimodular_maps(data):
    cell = data.draw(st.sampled_from(HOLDER_CELLS))
    elements = data.draw(st.sampled_from(holders_of(cell)))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    u = random_unimodular(cell[2], rng, data.draw(st.integers(0, 5)))
    assert_same_class(cell, elements, mapped(elements, u))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_facts_invariant_under_integer_maps_of_any_nonzero_det(data):
    # The maps with det not in {0, 1, -1}, which an HNF key keeps apart.
    # By the Smith normal form every such map is u * diag * v with u and v
    # unimodular.
    cell = data.draw(st.sampled_from(HOLDER_CELLS))
    dim = cell[2]
    elements = data.draw(st.sampled_from(holders_of(cell)))
    nonzero = st.integers(-4, 4).filter(bool)
    diagonal = data.draw(
        st.lists(nonzero, min_size=dim, max_size=dim).filter(lambda d: abs(prod(d)) > 1)
    )
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    u, v = (random_unimodular(dim, rng, data.draw(st.integers(0, 3))) for _ in range(2))
    m = [
        [sum(u[i][k] * diagonal[k] * v[k][j] for k in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]
    assert_same_class(cell, elements, mapped(elements, m))


def multiset_kind(t: GroupTuple):
    """Rank and sorted value multiplicities: unchanged by every injective
    integer map, -I among them, and by every permutation of positions."""
    return rank(t), sorted(Counter(t.elements).values())


def canonical_negation(elements):
    """-t in canonical form: zero first, then the rest sorted."""
    negated = [tuple(-x for x in e) for e in elements]
    return (negated[0],) + tuple(sorted(negated[1:]))


@pytest.mark.parametrize("s, q, dim, bound", HOLDER_CELLS)
def test_canonical_negation_has_the_same_facts(s, q, dim, bound):
    # The walk quotes canonical -t with t's facts.  -t has them, as its
    # coordinate columns span t's rational row space; canonical -t reorders
    # its positions, which the audit reads, yet on every holder of these
    # cells its facts agree.
    job = EnumerationJob(s=s, q=q, dim=dim, bound=bound)
    for elements in holders_of((s, q, dim, bound)):
        negation = canonical_negation(elements)
        assert holder_facts(job, negation) == holder_facts(job, elements)


@pytest.mark.parametrize("patched", ["classify", "_audit_holder"])
def test_every_member_of_a_failing_class_is_quoted(monkeypatch, patched):
    # Real cells have no Unclassified holder and no failing audit, so make
    # the holders of the largest class's kind fail one way or the other.
    # The kind is shared by every holder of a class, by -t and by every
    # permutation, as each fact the report reads is.
    job = EnumerationJob(s=3, q=6, dim=2, bound=1)
    holders = list(cell_holders(job))
    [(target, size)] = Counter(map(class_key, holders)).most_common(1)
    assert size > 1
    kind = next(multiset_kind(t) for t in holders if class_key(t) == target)
    members = [t.elements for t in holders if multiset_kind(t) == kind]
    # The walk visits one of t and -t; here some member is not its own
    # negation, and both are quoted.
    assert {canonical_negation(e) for e in members} == set(members)
    assert any(canonical_negation(e) != e for e in members)

    def failing(real):
        # exhaustive calls _classify with the rank it read off the class
        # key; the oracle calls classify without it.
        def double(t, s, *private):
            result = real(t, s, *private)
            if multiset_kind(t) != kind:
                return result
            if patched == "classify":
                return replace(result, variant=VARIANT_UNCLASSIFIED, property_holds=True)
            claims = (replace(result.claims[0], status="fail"),) + result.claims[1:]
            return replace(result, claims=claims)

        return double

    if patched == "classify":
        monkeypatch.setattr(exhaustive, "_classify", failing(_classify))
        monkeypatch.setattr(sys.modules[__name__], "classify", failing(classify))
    else:
        monkeypatch.setattr(exhaustive, "_audit_holder", failing(_audit_holder))
        monkeypatch.setattr(sys.modules[__name__], "_audit_holder", failing(_audit_holder))
    rep = run_enumeration(job)
    quoted = rep["unclassified" if patched == "classify" else "audit_failures"]
    # In key order, which is the grid order cell_holders walks in.
    assert [entry["elements"] for entry in quoted] == [
        [list(e) for e in elements] for elements in members
    ]
    assert rep["ok"] is False
    assert rep == oracle_enumeration(job)
    assert run_enumeration(replace(job, jobs=2)) == rep


@pytest.mark.parametrize("s, q, dim, bound, classes", [(3, 6, 2, 2, 47), (4, 8, 2, 1, 187)])
def test_each_run_analyses_each_class_once(
    monkeypatch, in_process_pool, s, q, dim, bound, classes
):
    # One _holder_facts call per class per run, in the caller, however many
    # shares the walk is split into.  A class met by two shares is still
    # analysed once.
    analysed = []
    real = exhaustive._holder_facts

    def counting(job, elements, key):
        assert key == class_key(GroupTuple(dim=job.dim, elements=elements))
        analysed[-1].append(key)
        return real(job, elements, key)

    monkeypatch.setattr(exhaustive, "_holder_facts", counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    job = EnumerationJob(s=s, q=q, dim=dim, bound=bound)
    for jobs in (1, 2, 3):
        analysed.append([])
        run_enumeration(replace(job, jobs=jobs))
    assert [len(keys) for keys in analysed] == [classes] * 3
    assert [len(set(keys)) for keys in analysed] == [classes] * 3
    assert in_process_pool == [2, 3]


@pytest.mark.parametrize("n", [2, 3])
def test_each_share_analyses_each_of_its_classes_once(monkeypatch, in_process_pool, n):
    # The shares of an n-way split group their holders by class and analyse
    # none; some class is met by more than one share.  A run split the same
    # way analyses each class once, however many shares met it.
    analysed = []
    real = exhaustive._holder_facts

    def counting(job, elements, key):
        assert key == class_key(GroupTuple(dim=job.dim, elements=elements))
        analysed.append(key)
        return real(job, elements, key)

    monkeypatch.setattr(exhaustive, "_holder_facts", counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    job = EnumerationJob(s=3, q=6, dim=2, bound=2)
    tables = _tables(job)
    shares = [set(_process_share(job, tables, i, n)) for i in range(n)]
    assert analysed == []
    assert len(set().union(*shares)) == 47
    assert sum(map(len, shares)) > 47
    run_enumeration(replace(job, jobs=n))
    assert len(analysed) == len(set(analysed)) == 47
    assert in_process_pool == [n]


def test_report_does_not_depend_on_the_share_split(monkeypatch, in_process_pool):
    # Make the audit fail on every holder but the least-key member of its
    # class.  The run analyses each class on its least-key holder, whatever
    # the split, so every split passes.  A share that analysed its
    # own classes would analyse the first member it meets, which for a
    # share past the first need not be the least-key one.
    job = EnumerationJob(s=3, q=6, dim=2, bound=2)
    least = {}
    for t in cell_holders(job):
        least.setdefault(class_key(t), t.elements)
    real = exhaustive._audit_holder

    def failing(t, s):
        result = real(t, s)
        if least[class_key(t)] == t.elements:
            return result
        claims = (replace(result.claims[0], status="fail"),) + result.claims[1:]
        return replace(result, claims=claims)

    monkeypatch.setattr(exhaustive, "_audit_holder", failing)
    monkeypatch.setattr(sys.modules[__name__], "_audit_holder", failing)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    reports = [run_enumeration(replace(job, jobs=jobs)) for jobs in (1, 2, 3)]
    assert all(report["ok"] for report in reports)
    assert len({report_digest(report) for report in reports}) == 1
    assert in_process_pool == [2, 3]


@pytest.mark.parametrize("s, q, dim, bound", [(3, 6, 2, 1), (2, 5, 2, 1), (2, 4, 1, 2)])
def test_report_is_the_same_at_any_share_count(monkeypatch, in_process_pool, s, q, dim, bound):
    # Up to 5 shares, run in this process.  A 2-core host never runs more
    # than 2 for real.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    job = EnumerationJob(s=s, q=q, dim=dim, bound=bound)
    expected = report_digest(run_enumeration(job))
    for jobs in (2, 3, 5):
        assert report_digest(run_enumeration(replace(job, jobs=jobs))) == expected
    assert in_process_pool == [2, 3, 5]
