"""Tuple parsing, algebra, and the (P_{r,s}) decision procedure."""

import json
import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtuple import tuples as tuples_module
from abtuple.generators import GeneratorSpec, generate
from abtuple.lattice import hnf_rows
from abtuple.tuples import (
    BudgetExceeded,
    GroupTuple,
    PropertyReport,
    TupleFormatError,
    _packed,
    _SPLIT_ABOVE,
    _window_counts,
    equal_pair,
    group_tuple,
    has_property,
    load_tuple,
    parse_tuple,
    property_cost,
    property_work,
    rank,
    span,
    subset_sum,
    to_json_obj,
    translate,
    value_multiplicities,
)

EXAMPLE_FULL_RANK = ((1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 2, 5))
TYPE_A_S3 = ((0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (0, 1))
TYPE_B_S3 = ((0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (-1, -1))


def scan_property(t, r, s):
    """Reference (P_{r,s}) decision: compares exact vector sums pairwise."""
    q = len(t)
    for window in combinations(range(q), r):
        sums = [(sel, subset_sum(t, sel)) for sel in combinations(window, s)]
        for a, (sel, sv) in enumerate(sums):
            if not any(b != a and other == sv for b, (_, other) in enumerate(sums)):
                return PropertyReport(
                    q=q, r=r, s=s, holds=False, failure_witness=(window, sel)
                )
    return PropertyReport(q=q, r=r, s=s, holds=True, failure_witness=None)


def counted_property(t, r, s):
    """Reference (P_{r,s}) decision: the packed kernel with every window's sums
    formed directly, one k-tuple each, as ``map(sum, combinations(...))``.

    An r == 2s window counts the sums of the selections holding its first
    value and pairs each with its complement (see ``_decide_packed``).
    """
    q = len(t)
    bound = max(abs(x) for e in t.elements for x in e)
    packed = _packed(t.elements, s, bound)
    for window in combinations(range(q), r):
        vals = [packed[i] for i in window]
        if r == 2 * s:
            k = sum(vals) - 2 * vals[0]
            sums = list(map(sum, combinations(vals[1:], s - 1)))
            counts = Counter(sums)
            for rest, x in zip(combinations(window[1:], s - 1), sums):
                if counts[x] == 1 and k - x not in counts:
                    return PropertyReport(
                        q=q, r=r, s=s, holds=False,
                        failure_witness=(window, (window[0],) + rest),
                    )
            continue
        sums = list(map(sum, combinations(vals, s)))
        counts = Counter(sums)
        for sel, value in zip(combinations(window, s), sums):
            if counts[value] == 1:
                return PropertyReport(
                    q=q, r=r, s=s, holds=False, failure_witness=(window, sel)
                )
    return PropertyReport(q=q, r=r, s=s, holds=True, failure_witness=None)


@st.composite
def kernel_cases(draw):
    """(tuple, r, s) draws for the differential test.

    Small coordinates are scaled and shifted: a common shift moves every
    s-sum alike, so equal-sum coincidences (and property holders) survive
    while coordinates reach 10**12.  Scale 0 gives constant tuples, and the
    all-zero tuple (B = 0) when the shift is zero too.
    """
    dim = draw(st.integers(1, 5), label="dim")
    q = draw(st.integers(2, 7), label="q")
    rows = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=q, max_size=q),
        label="rows",
    )
    scale = draw(st.sampled_from([0, 1, 3, 10**12]), label="scale")
    shift = draw(
        st.tuples(*[st.integers(-(10**12), 10**12)] * dim), label="shift"
    )
    r = draw(st.integers(2, q), label="r")
    s = draw(st.integers(1, r - 1), label="s")
    t = group_tuple(
        [[scale * x + c for x, c in zip(row, shift)] for row in rows], dim=dim
    )
    return t, r, s


def scrambled_instance(draw, s, q):
    """q rows drawn around a generated type-A/B instance at s (2s rows).

    Scrambled instances hold (P_{2s,s}); a bumped coordinate or an element
    replaced by a copy of another usually breaks it.  Rows beyond 2s are
    copies of pattern rows, which give several windows; below 2s the
    scrambled rows are cut to q.  Random small rows cover s = 1 and shapes
    no pattern has.
    """
    source = draw(st.sampled_from(["pattern", "mutant", "random"]), label="source")
    if s == 1 or source == "random":
        dim = draw(st.integers(1, 3), label="dim")
        rows = draw(
            st.lists(st.tuples(*[st.integers(-1, 1)] * dim), min_size=q, max_size=q),
            label="rows",
        )
        return group_tuple(rows, dim=dim)
    kind = draw(st.sampled_from("ab" if s % 2 else "b"), label="kind")
    breakpoints = ()
    if kind == "b":
        breakpoints = tuple(
            sorted(draw(st.sets(st.integers(1, s - 1)), label="breaks"))
        )
    spec = GeneratorSpec(
        kind=kind,
        s=s,
        dim=s - 1 + draw(st.integers(0, 1), label="extra_dim"),
        k=len(breakpoints),
        breakpoints=breakpoints,
        seed=draw(st.integers(0, 99), label="seed"),
        unimodular_bound=draw(st.integers(0, 3), label="bound"),
    )
    rows = [list(e) for e in generate(spec).elements]
    rows += [list(draw(st.sampled_from(rows), label="extra")) for _ in range(q - 2 * s)]
    n = len(rows)
    if source == "mutant":
        i = draw(st.integers(0, n - 1), label="i")
        if draw(st.booleans(), label="bump"):
            rows[i][draw(st.integers(0, spec.dim - 1), label="coord")] += 1
        else:
            rows[i] = list(rows[draw(st.integers(0, n - 1), label="j")])
    perm = draw(st.permutations(range(n)), label="perm")
    return group_tuple([rows[i] for i in perm[:q]], dim=spec.dim)


@st.composite
def paired_cases(draw, min_s=1, max_s=5, max_extra=2):
    """(tuple, r, s) draws with r = 2s, s in min_s..max_s and q in
    r..r+max_extra, around scrambled type-A/B instances at s."""
    s = draw(st.integers(min_s, max_s), label="s")
    r = 2 * s
    q = draw(st.integers(r, r + max_extra), label="q")
    return scrambled_instance(draw, s, q), r, s


@st.composite
def unpaired_wide_cases(draw):
    """(tuple, r, s) draws with r in 11..13, s in 4..6, r != 2s, q in r..r+1.

    Every window has C(r, s) >= 330 selections, above the crossover, so
    its sums take the split path.  The rows come from instances at s' = 6
    or 7, which are checked at (r, s) other than (2s', s'), so the
    property fails often and its witness need not be the window's first
    selection.
    """
    r = draw(st.integers(11, 13), label="r")
    s = draw(st.sampled_from([x for x in (4, 5, 6) if 2 * x != r]), label="s")
    q = draw(st.integers(r, r + 1), label="q")
    return scrambled_instance(draw, draw(st.sampled_from([6, 7])), q), r, s


# (r, s) pairs whose windows are above the crossover: C(r-1, s-1) > 256
# selections when r = 2s, C(r, s) otherwise.
WIDE_SHAPES = [(12, 6), (14, 7), (11, 4), (12, 5), (13, 4), (13, 6)]


@st.composite
def repeated_wide_cases(draw):
    """(tuple, r, s) draws above the crossover whose values repeat.

    Rows are drawn from a pool of 1..6 distinct values in Z or Z^2, so
    windows hold classes of every multiplicity: more copies of one value
    than a selection takes, windows in which every value repeats, and
    constant windows.  Both kernel branches are drawn, and the property
    both holds and fails, often at a selection other than the first.
    """
    r, s = draw(st.sampled_from(WIDE_SHAPES), label="shape")
    q = draw(st.integers(r, r + 1), label="q")
    dim = draw(st.integers(1, 2), label="dim")
    pool = draw(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=6, unique=True
        ),
        label="pool",
    )
    rows = draw(st.lists(st.sampled_from(pool), min_size=q, max_size=q), label="rows")
    return group_tuple(rows, dim=dim), r, s


# One-window tuples in Z above the crossover, as (values, r, s, holds).
# In each, every value the kernel counts repeats (the first is left out
# when r = 2s), and one class has more copies than a selection takes.
# The failing ones fail at a selection other than the window's first.
REPEATED_WIDE_EXAMPLES = [
    ([-2, 1, -2, 1, 1, 1, 1, 1, -2, 1, 2, 2, 2, -2], 14, 7, True),
    ([-1, 0, -1, 0, 3, 0, 0, 3, 0, -1, 0, 3], 12, 6, True),
    ([3, 3, 1, 1, 3, 1, 1, 3, 3, 1, 1, 1, 3, 3], 14, 7, False),
    ([-2, 2, 2, 2, 2, -2, 2, -2, -2, -2, -2, -2, -2], 13, 6, True),
    ([-3, -1, -1, -1, 2, -1, -3, -1, -1, -1, 2, -1, -1], 13, 4, False),
]


def small_tuples(max_dim=3, max_len=6, bound=4):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-bound, bound)] * d),
            min_size=1,
            max_size=max_len,
        ).map(lambda rows: group_tuple(rows, dim=d))
    )


class TestParsing:
    def test_text_roundtrip(self):
        t = parse_tuple("1 2\n# comment\n\n3 4  # trailing\n")
        assert t.dim == 2
        assert t.elements == ((1, 2), (3, 4))

    def test_json_roundtrip(self):
        t = parse_tuple('{"dim": 2, "elements": [[1, 2], [3, 4]]}')
        assert t.elements == ((1, 2), (3, 4))
        assert to_json_obj(t) == {"dim": 2, "elements": [[1, 2], [3, 4]]}
        assert parse_tuple(" [[1, 2], [3, 4]]\n") == t

    def test_ragged_rejected(self):
        with pytest.raises(TupleFormatError):
            parse_tuple("1 2\n3\n")

    def test_bad_token_names_line(self):
        with pytest.raises(TupleFormatError, match="line 2"):
            parse_tuple("1\nx\n")

    def test_empty_rejected(self):
        with pytest.raises(TupleFormatError):
            parse_tuple("# only a comment\n")

    def test_bad_json(self):
        with pytest.raises(TupleFormatError):
            parse_tuple("{not json")
        with pytest.raises(TupleFormatError):
            parse_tuple('{"dim": 2}')
        with pytest.raises(TupleFormatError):
            parse_tuple('{"dim": 2, "elements": [[true, false]]}')
        for bad in ("[]", "[[]]", "[[1], 2]", "[[1], [2, 3]]", '"1"', "[1"):
            with pytest.raises(TupleFormatError):
                parse_tuple(bad)

    def test_load(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("5 7\n")
        assert load_tuple(str(p)).elements == ((5, 7),)

    def test_constructor_validation(self):
        with pytest.raises(TupleFormatError):
            GroupTuple(dim=0, elements=((1,),))
        with pytest.raises(TupleFormatError):
            GroupTuple(dim=2, elements=())
        with pytest.raises(TupleFormatError):
            GroupTuple(dim=2, elements=((1,),))


class TestAlgebra:
    def test_rank_examples(self):
        assert rank(group_tuple(EXAMPLE_FULL_RANK)) == 3
        assert rank(group_tuple([(0, 0), (0, 0)])) == 0
        assert rank(group_tuple([(2, 0), (3, 0), (0, 5)])) == 2

    def test_span_hnf(self):
        t = group_tuple([(2, 0), (3, 0), (0, 5)])
        assert span(t) == hnf_rows([(1, 0), (0, 5)], 2)

    def test_translate(self):
        t = group_tuple([(1, 1), (2, 3)])
        assert translate(t, (1, 1)).elements == ((0, 0), (1, 2))
        with pytest.raises(ValueError):
            translate(t, (1,))
        # Translation by zero shares the frozen tuple instead of copying it.
        assert translate(t, (0, 0)) is t
        for wrong in ((0,), (0, 0, 0)):
            with pytest.raises(ValueError):
                translate(t, wrong)

    def test_subset_sum(self):
        t = group_tuple([(1, 0), (0, 1), (2, 2)])
        assert subset_sum(t, (0, 2)) == (3, 2)
        assert subset_sum(t, ()) == (0, 0)
        with pytest.raises(ValueError):
            subset_sum(t, (0, 0))
        with pytest.raises(IndexError):
            subset_sum(t, (5,))

    def test_subset_sum_block_inverse(self):
        t = group_tuple(TYPE_B_S3)
        assert subset_sum(t, (3, 4, 5)) == (0, 0)

    def test_equal_pair(self):
        assert equal_pair(group_tuple([(1,), (2,), (1,)])) == (0, 2)
        assert equal_pair(group_tuple([(1,), (2,), (3,)])) is None
        assert equal_pair(group_tuple(TYPE_A_S3)) == (0, 1)

    def test_value_multiplicities(self):
        t = group_tuple([(0,), (3,), (0,), (3,), (3,)])
        assert value_multiplicities(t) == [((0,), 2), ((3,), 3)]


class TestHasProperty:
    def test_all_zero_holds(self):
        t = group_tuple([(0,), (0,), (0,)])
        assert has_property(t, 3, 2).holds

    def test_pair_cancellation_holds(self):
        t = group_tuple([(0,), (0,), (2,), (-2,)])
        assert has_property(t, 4, 2).holds

    def test_failure_witness_lex_first(self):
        t = group_tuple([(0,), (1,), (2,)])
        rep = has_property(t, 3, 2)
        assert not rep.holds
        assert rep.failure_witness == ((0, 1, 2), (0, 1))
        assert rep.to_json_obj() == {
            "r": 3,
            "s": 2,
            "holds": False,
            "failure_witness": {"window": [1, 2, 3], "selection": [1, 2]},
        }

    def test_window_smaller_than_tuple(self):
        # (0,0,5): window {1,2} at r=2, s=1 fails only where values differ.
        t = group_tuple([(0,), (0,), (5,)])
        rep = has_property(t, 2, 1)
        assert not rep.holds
        assert rep.failure_witness == ((0, 2), (0,))

    def test_index_sets_not_value_sets(self):
        # Distinct positions with equal values make J != I legitimate.
        t = group_tuple([(1,), (1,)])
        assert has_property(t, 2, 1).holds

    def test_arity_validation(self):
        t = group_tuple([(0,), (1,), (2,)])
        with pytest.raises(ValueError):
            has_property(t, 2, 2)
        with pytest.raises(ValueError):
            has_property(t, 4, 2)
        with pytest.raises(ValueError):
            has_property(t, 2, 0)

    def test_budget(self, monkeypatch):
        t = group_tuple([(i,) for i in range(10)])
        monkeypatch.setenv("ABTUPLE_BUDGET", "10")
        with pytest.raises(BudgetExceeded, match="252 subset sums, budget is 10"):
            has_property(t, 10, 5)
        assert property_cost(10, 10, 5) == 63504
        assert property_work(10, 10, 5) == 252
        monkeypatch.setenv("ABTUPLE_BUDGET", "252")
        assert has_property(t, 10, 5).holds is False

    def test_budget_admits_wide_window(self):
        # Billed by pairwise comparisons this check would be 3.4e10.
        assert property_work(20, 20, 10) == 184756
        t = group_tuple([(1 << i,) for i in range(20)])
        rep = has_property(t, 20, 10)
        assert rep.failure_witness == (tuple(range(20)), tuple(range(10)))

    def test_budget_env(self, monkeypatch):
        t = group_tuple([(0,), (1,), (2,)])
        monkeypatch.setenv("ABTUPLE_BUDGET", "1")
        with pytest.raises(BudgetExceeded):
            has_property(t, 3, 2)
        monkeypatch.setenv("ABTUPLE_BUDGET", "ten")
        with pytest.raises(BudgetExceeded):
            has_property(t, 3, 2)

    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_scan_and_lookup_agree(self, case):
        t, r, s = case
        assert has_property(t, r, s) == scan_property(t, r, s)

    @given(paired_cases())
    @settings(max_examples=300, deadline=None)
    def test_paired_windows_agree_with_scan(self, case):
        # r = 2s takes the kernel's complement-paired branch.
        t, r, s = case
        assert has_property(t, r, s) == scan_property(t, r, s)

    @pytest.mark.parametrize("n", range(17))
    def test_selection_sums_in_combinations_order(self, n):
        # _window_counts says which of the selection sums, formed here in
        # combinations order, occur and which occur once, on both sides of
        # the crossover, for distinct values and for repeated ones.
        rng = random.Random(n)
        distinct = [rng.randint(-(10**12), 10**12) for _ in range(n)]
        pool = distinct[: n // 3 + 1]
        repeated = [rng.choice(pool) for _ in range(n)]
        for vals in (distinct, repeated):
            for k in range(n + 1):
                counts = _window_counts(vals, k)
                full = Counter(map(sum, combinations(vals, k)))
                assert counts.keys() == full.keys()
                assert {x for x, c in counts.items() if c == 1} == {
                    x for x, c in full.items() if c == 1
                }

    @given(st.one_of(paired_cases(6, 8, 1), unpaired_wide_cases()))
    @settings(max_examples=150, deadline=None)
    def test_split_windows_agree_with_counted(self, case):
        # Windows above the crossover count their sums by value class.
        t, r, s = case
        sel = comb(r - 1, s - 1) if r == 2 * s else comb(r, s)
        assert sel > _SPLIT_ABOVE
        assert has_property(t, r, s) == counted_property(t, r, s)

    @pytest.mark.parametrize("values, r, s, holds", REPEATED_WIDE_EXAMPLES)
    def test_class_count_examples(self, values, r, s, holds):
        t = group_tuple([(v,) for v in values])
        paired = r == 2 * s
        counted, k = (values[1:], s - 1) if paired else (values, s)
        assert len(values) == r and comb(len(counted), k) > _SPLIT_ABOVE
        mults = Counter(counted).values()
        assert min(mults) > 1 and max(mults) > k
        rep = has_property(t, r, s)
        assert rep == counted_property(t, r, s)
        assert rep.holds is holds
        if not holds:
            assert rep.failure_witness[1] != tuple(range(s))

    @given(repeated_wide_cases())
    @settings(max_examples=200, deadline=None)
    def test_class_count_agrees_with_counted(self, case):
        # Repeated values make a wide window's compositions fewer than its
        # selections; the witness must still be the first failing one.
        t, r, s = case
        assert has_property(t, r, s) == counted_property(t, r, s)

    def test_direct_window_forms_each_sum_once(self, monkeypatch):
        # A failing window below the crossover reads its witness from the
        # sums its count was built from.  Its last selection is the first
        # to fail, so forming the sums again to find it would double them.
        sizes = []

        def counting(values):
            values = tuple(values)
            sizes.append(len(values))
            return sum(values)

        monkeypatch.setattr(tuples_module, "sum", counting, raising=False)
        t = group_tuple([(v,) for v in (-3, -3, -3, -3, 0, 1, 2)])
        rep = has_property(t, 7, 3)
        monkeypatch.undo()
        assert rep.failure_witness == (tuple(range(7)), (4, 5, 6))
        assert rep == scan_property(t, 7, 3)
        # One sum per selection, and the window's own sum.
        assert sizes.count(3) == property_work(7, 7, 3) == 35
        assert sizes == [3] * 35 + [7]

    def test_packing_base_carries_s(self):
        # With s=2 and B=1, (0,1)+(0,1) and (1,0)+(0,-1) pack to the same
        # int in base 2B+1 = 3; base 2sB+1 = 5 keeps them apart.  With the
        # coordinates swapped, the same holds for the reversed digit order.
        for rows in (
            [(0, 1), (0, 1), (1, 0), (0, -1)],
            [(1, 0), (1, 0), (0, 1), (-1, 0)],
        ):
            t = group_tuple(rows)
            rep = has_property(t, 4, 2)
            assert rep == scan_property(t, 4, 2)
            assert rep.failure_witness == ((0, 1, 2, 3), (0, 1))

    @given(small_tuples(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_permutation_and_translation_invariance(self, t, data):
        q = len(t)
        if q < 2:
            return
        r = data.draw(st.integers(2, q), label="r")
        s = data.draw(st.integers(1, r - 1), label="s")
        base = has_property(t, r, s).holds
        perm = data.draw(st.permutations(range(q)), label="perm")
        tp = group_tuple([t.elements[i] for i in perm], dim=t.dim)
        assert has_property(tp, r, s).holds == base
        c = data.draw(
            st.tuples(*[st.integers(-4, 4)] * t.dim), label="c"
        )
        assert has_property(translate(t, c), r, s).holds == base

    @given(small_tuples(max_dim=2, max_len=5, bound=3), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_span_stable_under_unit_preserving_translation(self, t, seed):
        withz = group_tuple(list(t.elements) + [(0,) * t.dim], dim=t.dim)
        c = random.Random(seed).choice(withz.elements)
        assert span(translate(withz, c)) == span(withz)
