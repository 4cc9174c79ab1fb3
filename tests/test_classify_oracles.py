"""Differential tests of the search-free classifier against the scans it
replaced.

The oracles below are the slow reference implementations: ``classify`` tries
every distinct tuple value as the translation constant, first for type A and
then for type B.  The type-A matcher checks the multiplicities and zero and
compares ``hnf_rows`` of the nonzero values with the span; the type-B matcher
scans ``combinations(nonzero, s-1)`` in lexicographic order, probing each
candidate basis with ``hnf_rows`` and solving every remaining value over it.  ``oracle_rebase`` solves each
remaining value over the chosen basis the same way.  The library must return
the same ``Classification`` and, on a refused rebase, the same ``ValueError``
message.  ``oracle_verify_classification`` checks a matched certificate's
basis with one HNF, which must have rank s-1 and equal span(t); the library
tests independence alone, and must return the same verdict.

``classify`` reads t's rank off the elimination its shape needs, and
decides an Unclassified tuple's property by ``tuples._property_holds``,
which tries order statistics before the kernel; ``has_property(t, q,
s).holds`` is its slow form.  Recording doubles pin the work each saves.
"""

import dataclasses
import importlib
import random
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtuple.classify import (
    VARIANT_RANK_BELOW,
    VARIANT_TYPE_A,
    VARIANT_TYPE_B,
    VARIANT_UNCLASSIFIED,
    Classification,
    _assign_positions,
    _classify,
    canonical_pattern,
    classification_from_json_obj,
    classify,
    rebase_type_b,
    verify_classification,
)
from abtuple.generators import GeneratorSpec, generate
from abtuple.lattice import (
    _rational_row_basis,
    hnf_rows,
    solve_rational_combination,
    zero_vector,
)
from abtuple.tuples import (
    BudgetExceeded,
    _charged_packing,
    _fails_by_order,
    _property_holds,
    group_tuple,
    has_property,
    rank,
    span,
    translate,
    value_multiplicities,
)

TYPE_A_S3 = ((0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (0, 1))

# s = 3, k = 2 with two one-member blocks: each value sits in a circuit with
# its negative, so a third of the pairs of nonzero values are dependent.
K2_S3 = ((0, 0), (0, 0), (1, 0), (0, 1), (-1, 0), (0, -1))

BIG = 10**12

# perfbench's generic certify item 0, the g12.txt of CI: q = 12 in Z^5, zero
# first, Unclassified at s = 6 with rank 5, and refuted by order statistics.
G12 = (
    (0, 0, 0, 0, 0),
    (4, -9, -4, -9, 2),
    (-2, 7, -9, -8, -2),
    (6, 4, 2, 3, 0),
    (-6, -1, -8, -4, 2),
    (3, -9, 0, -4, 8),
    (-2, -2, 4, -3, -8),
    (3, -7, -6, 6, -1),
    (-6, 3, -1, -4, -2),
    (7, 8, -6, 1, 1),
    (-6, -6, -7, -6, -2),
    (9, -1, -1, 3, 6),
)

# Tuples on the branches ``classify`` reordered to read the rank off a
# shape's own elimination: (elements, s, variant, whether the kernel runs).
# None marks a tuple that never reaches the property check.
REORDERED_BRANCHES = {
    # Every value twice, s odd, but b_2 = 2 b_1: rank 1 < s-1.
    "type_a_dependent_basis": (
        [(0,), (0,), (1,), (1,), (2,), (2,)],
        3,
        VARIANT_RANK_BELOW,
        None,
    ),
    # One repeated value (zero, twice), values of rank 1 < s-1.
    "type_b_rank_below": (
        [(0,), (0,), (1,), (2,), (3,), (4,)],
        3,
        VARIANT_RANK_BELOW,
        None,
    ),
    # One repeated value, values of rank 3 > s-1.
    "type_b_rank_above": (
        [(0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        3,
        VARIANT_UNCLASSIFIED,
        False,
    ),
    # Rank s-1, but (1, 1) reads (1, 1) over the greedy basis (0, 1), (1, 0).
    "type_b_blocks_fail": (
        [(0, 0), (0, 0), (1, 0), (0, 1), (1, 1), (2, 3)],
        3,
        VARIANT_UNCLASSIFIED,
        False,
    ),
    "order_statistics_refute": (list(G12), 6, VARIANT_UNCLASSIFIED, False),
    # The order statistics tie at both pairs, so the kernel refutes it.
    "kernel_refutes": (
        [(0, 0), (1, 0), (-2, 1), (1, 0), (0, 0), (0, 0)],
        3,
        VARIANT_UNCLASSIFIED,
        True,
    ),
}

# The modules, not the names the package exports from them.
classify_module = importlib.import_module("abtuple.classify")
tuples_module = importlib.import_module("abtuple.tuples")

# Certificates whose pattern matches but whose basis is dependent; classify
# calls both tuples rank_below.
DEPENDENT_CERTIFICATES = {
    "type_a": (
        [(0,), (0,), (1,), (1,), (1,), (1,)],
        {
            "variant": "type_a",
            "s": 3,
            "scaling": [0],
            "permutation": [1, 2, 3, 4, 5, 6],
            "basis": [[1], [1]],
        },
    ),
    "type_b": (
        [(0,), (0,), (0,), (0,), (1,), (1,)],
        {
            "variant": "type_b",
            "s": 3,
            "scaling": [0],
            "permutation": [1, 2, 3, 4, 5, 6],
            "basis": [[1], [1]],
            "k": 0,
            "breakpoints": [],
        },
    ),
}


# ---------------------------------------------------------------------------
# Oracles


def oracle_integer_solve(rows, target):
    x = solve_rational_combination(rows, target)
    if x is None or any(f.denominator != 1 for f in x):
        return None
    return tuple(int(f) for f in x)


def _blocks(tp, s, basis, supports, k):
    order = []
    breakpoints = []
    for sup in supports:
        order.extend(sup)
        breakpoints.append(len(order))
    order.extend(j for j in range(s - 1) if not any(j in sup for sup in supports))
    basis = tuple(basis[j] for j in order)
    pattern = canonical_pattern(
        VARIANT_TYPE_B, s, basis, k=k, breakpoints=tuple(breakpoints)
    )
    return _assign_positions(tp, pattern), basis, tuple(breakpoints)


def oracle_match_type_a(tp, lat, s):
    if s % 2 == 0 or len(tp) != 2 * s:
        return None
    mults = value_multiplicities(tp)
    if len(mults) != s or any(c != 2 for _, c in mults):
        return None
    zero = zero_vector(tp.dim)
    if zero not in dict(mults):
        return None
    basis = tuple(v for v, _ in mults if v != zero)
    if hnf_rows(basis, tp.dim) != lat:
        return None
    perm = _assign_positions(tp, canonical_pattern(VARIANT_TYPE_A, s, basis))
    return None if perm is None else (perm, basis)


def oracle_match_type_b(tp, lat, s):
    if len(tp) != 2 * s:
        return None
    mults = value_multiplicities(tp)
    zero = zero_vector(tp.dim)
    z = dict(mults).get(zero, 0)
    k = s + 1 - z
    if not (0 <= k <= s - 1):
        return None
    nonzero = sorted(v for v, c in mults if v != zero)
    if len(nonzero) != s - 1 + k or any(c != 1 for v, c in mults if v != zero):
        return None
    for cand in combinations(nonzero, s - 1):
        if hnf_rows(cand, tp.dim) != lat:
            continue
        supports = []
        seen = set()
        for w in (v for v in nonzero if v not in cand):
            coords = oracle_integer_solve(cand, w)
            if coords is None or any(c not in (0, -1) for c in coords):
                break
            sup = {j for j, c in enumerate(coords) if c == -1}
            if not sup or sup & seen:
                break
            seen |= sup
            supports.append(sorted(sup))
        else:
            perm, basis, breaks = _blocks(tp, s, cand, supports, k)
            if perm is not None:
                return perm, basis, k, breaks
    return None


def oracle_classify(t, s):
    q = len(t)
    if not (2 <= s < q <= 2 * s):
        raise ValueError(f"classify requires 2 <= s < q <= 2s, got s={s}, q={q}")
    if zero_vector(t.dim) not in t.elements:
        raise ValueError("classify requires the zero element to occur in the tuple")
    tr = rank(t)
    if tr < s - 1:
        return Classification(variant="rank_below", s=s, rank=tr)
    if tr == s - 1 and q == 2 * s:
        lat = span(t)
        candidates = [v for v, _ in value_multiplicities(t)]
        for c in candidates:
            m = oracle_match_type_a(translate(t, c), lat, s)
            if m is not None:
                perm, basis = m
                return Classification(
                    variant=VARIANT_TYPE_A,
                    s=s,
                    rank=tr,
                    scaling=c,
                    permutation=perm,
                    basis=basis,
                )
        for c in candidates:
            m = oracle_match_type_b(translate(t, c), lat, s)
            if m is not None:
                perm, basis, k, breaks = m
                return Classification(
                    variant=VARIANT_TYPE_B,
                    s=s,
                    rank=tr,
                    scaling=c,
                    permutation=perm,
                    basis=basis,
                    k=k,
                    breakpoints=breaks,
                )
    return Classification(
        variant=VARIANT_UNCLASSIFIED,
        s=s,
        rank=tr,
        property_holds=has_property(t, q, s).holds,
    )


def oracle_rebase(t, c, chosen):
    s = c.s
    chosen = tuple(chosen)
    if len(chosen) != s - 1 or len(set(chosen)) != s - 1:
        raise ValueError(f"need {s - 1} distinct positions")
    tp = translate(t, c.scaling)
    zero = zero_vector(t.dim)
    vals = []
    for p in chosen:
        v = tp.elements[p]
        if v == zero:
            raise ValueError(f"position {p + 1} carries the zero value")
        vals.append(v)
    new_lat = hnf_rows(vals, t.dim)
    if new_lat.rank < s - 1:
        raise ValueError("chosen values are dependent")
    if new_lat != span(t):
        raise ValueError("chosen values do not form an integer basis of the span")
    rest = sorted(
        v for v in (e for i, e in enumerate(tp.elements) if i not in chosen) if v != zero
    )
    supports = []
    seen = set()
    for w in rest:
        coords = oracle_integer_solve(vals, w)
        if coords is None or any(x not in (0, -1) for x in coords):
            raise ValueError("remaining value does not reduce to a negated block sum")
        sup = {j for j, x in enumerate(coords) if x == -1}
        if not sup or sup & seen:
            raise ValueError("block supports are not disjoint and nonempty")
        seen |= sup
        supports.append(sorted(sup))
    perm, basis, breaks = _blocks(tp, s, vals, supports, len(rest))
    if perm is None:
        raise ValueError("pattern does not rearrange the tuple")
    return Classification(
        variant=VARIANT_TYPE_B,
        s=s,
        rank=c.rank,
        scaling=c.scaling,
        permutation=perm,
        basis=basis,
        k=len(rest),
        breakpoints=breaks,
    )


def oracle_verify_classification(t, c):
    q = len(t)
    s = c.s
    if not (2 <= s < q <= 2 * s) or zero_vector(t.dim) not in t.elements:
        return False
    if c.variant == VARIANT_RANK_BELOW:
        return rank(t) == c.rank and c.rank < s - 1
    if c.variant not in (VARIANT_TYPE_A, VARIANT_TYPE_B) or q != 2 * s:
        return False
    if c.scaling is None or c.permutation is None or c.basis is None:
        return False
    if len(c.scaling) != t.dim or len(c.basis) != s - 1:
        return False
    if sorted(c.permutation) != list(range(q)):
        return False
    if c.variant == VARIANT_TYPE_A:
        if s % 2 == 0:
            return False
        pattern = canonical_pattern(VARIANT_TYPE_A, s, c.basis)
    else:
        breaks = c.breakpoints
        if c.k is None or breaks is None or len(breaks) != c.k:
            return False
        if breaks and not (
            all(1 <= a <= s - 1 for a in breaks)
            and all(a < b for a, b in zip(breaks, breaks[1:]))
        ):
            return False
        pattern = canonical_pattern(
            VARIANT_TYPE_B, s, c.basis, k=c.k, breakpoints=breaks
        )
    tp = translate(t, c.scaling)
    if any(tp.elements[p] != value for p, value in zip(c.permutation, pattern)):
        return False
    lat = hnf_rows(c.basis, t.dim)
    return lat.rank == s - 1 and lat == span(t)


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def generated_instances(draw, kinds=("a", "b"), max_s=6):
    """(tuple, s): a generated type-A (odd s) or type-B instance in dimension
    s-1 or s, scrambled by a slot permutation and re-centred on one of its
    values, which keeps a zero entry."""
    kind = draw(st.sampled_from(kinds), label="kind")
    if kind == "a":
        s = draw(st.sampled_from([x for x in (3, 5) if x <= max_s]), label="s")
        k, breaks = 0, ()
    else:
        s = draw(st.integers(2, max_s), label="s")
        k = draw(st.integers(0, s - 1), label="k")
        breaks = tuple(sorted(draw(st.sets(st.integers(1, s - 1), min_size=k, max_size=k))))
    seed = draw(st.integers(0, 10**6), label="seed")
    spec = GeneratorSpec(
        kind=kind,
        s=s,
        dim=s - 1 + draw(st.integers(0, 1), label="extra dim"),
        k=k,
        breakpoints=breaks,
        seed=seed,
        unimodular_bound=draw(st.sampled_from((0, 2, 10)), label="bound"),
        permutation_seed=seed + 1,
    )
    t = generate(spec)
    return translate(t, draw(st.sampled_from(t.elements), label="centre")), s


@st.composite
def near_misses(draw, kinds=("a", "b")):
    """A generated instance moved by ``near_miss``, re-centred."""
    t, s = draw(generated_instances(kinds=kinds))
    return near_miss(t, random.Random(draw(st.integers(0, 10**6), label="seed"))), s


@st.composite
def verdict_cases(draw):
    """(tuple, s) with 2 <= s < q <= 2s: generated type-A/B holders and
    their near misses, either scaled by -1 or 10**12, random tuples over a
    few values (so repeats are common) with coordinates up to 2 or 10**12
    in absolute value, and all-zero tuples."""
    kind = draw(st.sampled_from(("holder", "near miss", "random", "zero")), label="kind")
    if kind in ("holder", "near miss"):
        t, s = draw(generated_instances() if kind == "holder" else near_misses())
        m = draw(st.sampled_from((1, -1, BIG)), label="scale")
        return group_tuple([[m * x for x in e] for e in t.elements], dim=t.dim), s
    s = draw(st.integers(2, 6), label="s")
    q = draw(st.integers(s + 1, 2 * s), label="q")
    dim = draw(st.integers(1, 4), label="dim")
    if kind == "zero":
        return group_tuple([(0,) * dim] * q), s
    bound = draw(st.sampled_from((2, BIG)), label="bound")
    coord = st.integers(-bound, bound)
    pool = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=q), label="pool")
    values = st.sampled_from(pool + [(0,) * dim])
    return group_tuple(draw(st.lists(values, min_size=q, max_size=q)), dim=dim), s


def near_miss(t, rng, recentre=True):
    """One coordinate bumped, one element doubled, negated, or replaced by a
    copy of another, then (by default) re-centred on one of the values."""
    elements = [list(e) for e in t.elements]
    i, j = rng.sample(range(len(elements)), 2)
    move = rng.randrange(4)
    if move == 0:
        elements[i][rng.randrange(t.dim)] += rng.choice((-1, 1))
    elif move == 1:
        elements[i] = [2 * x for x in elements[i]]
    elif move == 2:
        elements[i] = [-x for x in elements[i]]
    else:
        elements[i] = list(elements[j])
    out = group_tuple(elements, dim=t.dim)
    return translate(out, rng.choice(out.elements)) if recentre else out


def tampered(t, c, rng):
    """(tuple, certificate) with one change: a basis entry moved by 1, two
    permutation entries swapped, the scaling shifted by a basis member, or
    the last basis member replaced by the sum of the others (zero when it
    is alone) with the tuple rebuilt from the pattern at scaling 0, so that
    the pattern matches a dependent basis.  A type-B certificate may
    instead change its shape: one breakpoint moved by 1, k moved by 1 with
    the breakpoints kept, or the variant relabelled type A with k and the
    breakpoints kept (also when there is no breakpoint to move)."""
    basis = [list(b) for b in c.basis]
    move = rng.randrange(7 if c.variant == VARIANT_TYPE_B else 4)
    if move == 4 and c.breakpoints:
        breaks = list(c.breakpoints)
        breaks[rng.randrange(len(breaks))] += rng.choice((-1, 1))
        return t, dataclasses.replace(c, breakpoints=tuple(breaks))
    if move == 5:
        return t, dataclasses.replace(c, k=c.k + rng.choice((-1, 1)))
    if move >= 4:
        return t, dataclasses.replace(c, variant=VARIANT_TYPE_A)
    if move == 0:
        basis[rng.randrange(len(basis))][rng.randrange(t.dim)] += rng.choice((-1, 1))
        return t, dataclasses.replace(c, basis=tuple(map(tuple, basis)))
    if move == 1:
        perm = list(c.permutation)
        i, j = rng.sample(range(len(perm)), 2)
        perm[i], perm[j] = perm[j], perm[i]
        return t, dataclasses.replace(c, permutation=tuple(perm))
    if move == 2:
        b = rng.choice(c.basis)
        scaling = tuple(x + rng.choice((-1, 1)) * y for x, y in zip(c.scaling, b))
        return t, dataclasses.replace(c, scaling=scaling)
    basis[-1] = [sum(col) for col in zip(*basis[:-1])] or [0] * t.dim
    c = dataclasses.replace(c, scaling=(0,) * t.dim, basis=tuple(map(tuple, basis)))
    pattern = canonical_pattern(
        c.variant, c.s, c.basis, k=c.k or 0, breakpoints=c.breakpoints or ()
    )
    elements = [None] * len(t)
    for p, value in zip(c.permutation, pattern):
        elements[p] = value
    return group_tuple(elements, dim=t.dim), c


def assert_rebases_match(t, c):
    """Every ordered choice of s-1 nonzero positions rebases as the oracle
    does: the same certificate, or the same refusal."""
    zero = zero_vector(t.dim)
    tp = translate(t, c.scaling)
    nonzero = [i for i, e in enumerate(tp.elements) if e != zero]
    for chosen in permutations(nonzero, c.s - 1):
        try:
            expected = oracle_rebase(t, c, chosen)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                rebase_type_b(t, c, chosen)
            assert str(got.value) == str(e)
        else:
            assert rebase_type_b(t, c, chosen) == expected


# ---------------------------------------------------------------------------
# Tests


class TestClassifyAgainstOracle:
    @given(generated_instances())
    @settings(max_examples=150, deadline=None)
    def test_generated_instances(self, case):
        t, s = case
        assert classify(t, s) == oracle_classify(t, s)

    @given(generated_instances(), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_near_misses(self, case, seed):
        t, s = case
        t = near_miss(t, random.Random(seed))
        assert classify(t, s) == oracle_classify(t, s)

    def test_dependent_first_pair(self):
        t = group_tuple(K2_S3)
        c = classify(t, 3)
        assert c.variant == VARIANT_TYPE_B and c.k == 2
        assert c == oracle_classify(t, 3)
        assert_rebases_match(t, c)


class TestVerifyClassificationAgainstOracle:
    @given(generated_instances(), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_generated_and_tampered_verdicts_match(self, case, seed):
        t, s = case
        c = classify(t, s)
        assert verify_classification(t, c) and oracle_verify_classification(t, c)
        t, bad = tampered(t, c, random.Random(seed))
        assert verify_classification(t, bad) == oracle_verify_classification(t, bad)

    @pytest.mark.parametrize(
        "elements, cert", DEPENDENT_CERTIFICATES.values(), ids=DEPENDENT_CERTIFICATES
    )
    def test_dependent_basis_verdicts_match(self, elements, cert):
        t = group_tuple(elements)
        c = classification_from_json_obj(cert)
        assert classify(t, c.s).variant == VARIANT_RANK_BELOW
        assert not verify_classification(t, c)
        assert not oracle_verify_classification(t, c)


class TestRebaseAgainstOracle:
    @given(generated_instances(kinds=("b",), max_s=5))
    @settings(max_examples=40, deadline=None)
    def test_every_ordered_choice(self, case):
        t, s = case
        c = classify(t, s)
        assert c.variant == VARIANT_TYPE_B
        assert_rebases_match(t, c)

    @given(generated_instances(kinds=("b",), max_s=4), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_certificate_of_a_near_miss(self, case, seed):
        # rebase_type_b does not verify its certificate; one issued for a
        # neighbouring tuple drives it into each of its refusals.
        t, s = case
        c = classify(t, s)
        assert_rebases_match(near_miss(t, random.Random(seed), recentre=False), c)


class TestPropertyVerdictAgainstHasProperty:
    @given(verdict_cases())
    @settings(max_examples=400, deadline=None)
    def test_verdict_matches(self, case):
        t, s = case
        assert _property_holds(t, s) == has_property(t, len(t), s).holds

    @pytest.mark.parametrize("s, q", [(2, 3), (3, 6), (6, 12)])
    def test_same_bill_and_refusals(self, monkeypatch, s, q):
        t = group_tuple(G12[:q])
        bill = comb(q, s)
        monkeypatch.setenv("ABTUPLE_BUDGET", str(bill - 1))
        refusals = []
        for check in (lambda: has_property(t, q, s), lambda: _property_holds(t, s)):
            with pytest.raises(BudgetExceeded) as got:
                check()
            refusals.append(str(got.value))
        assert refusals[0] == refusals[1]
        message = f"(P_{{{q},{s}}}) check forms {bill} subset sums"
        assert refusals[0] == f"{message}, budget is {bill - 1}"
        monkeypatch.setenv("ABTUPLE_BUDGET", str(bill))
        assert _property_holds(t, s) == has_property(t, q, s).holds

    @pytest.mark.parametrize("s", [0, 12])
    def test_same_value_errors(self, s):
        t = group_tuple(G12)
        with pytest.raises(ValueError) as expected:
            has_property(t, len(t), s)
        with pytest.raises(ValueError) as got:
            _property_holds(t, s)
        assert str(got.value) == str(expected.value)


def recording(monkeypatch, modules, name):
    """Replace ``name`` in each module by one double that records its calls;
    returns the list of recorded argument tuples."""
    real = getattr(modules[0], name)
    calls = []

    def double(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, double)
    return calls


def generated_holder(kind, s):
    spec = GeneratorSpec(
        kind=kind,
        s=s,
        dim=s,
        k=2 if kind == "b" else 0,
        breakpoints=(1, 3) if kind == "b" else (),
        seed=7,
        unimodular_bound=10,
        permutation_seed=8,
    )
    t = generate(spec)
    return translate(t, t.elements[3])


class TestReorderedBranches:
    @pytest.mark.parametrize(
        "elements, s, variant, kernel",
        REORDERED_BRANCHES.values(),
        ids=REORDERED_BRANCHES,
    )
    def test_matches_oracle(self, monkeypatch, elements, s, variant, kernel):
        t = group_tuple(elements)
        kernel_calls = recording(monkeypatch, [tuples_module], "_decide_packed")
        c = classify(t, s)
        assert c.variant == variant
        assert c == oracle_classify(t, s)
        if kernel is None:
            assert c.property_holds is None
        else:
            packed = _charged_packing(t, len(t), s)
            assert _fails_by_order(packed, len(t), s) == (not kernel)
        # The oracle's own has_property runs the kernel once more.
        assert len(kernel_calls) == (1 if kernel else 0) + (kernel is not None)

    @pytest.mark.parametrize(
        "elements, s, variant, kernel",
        REORDERED_BRANCHES.values(),
        ids=REORDERED_BRANCHES,
    )
    def test_class_key_rank_matches_classify(self, elements, s, variant, kernel):
        t = group_tuple(elements)
        key = _rational_row_basis(zip(*t.elements))
        assert _classify(t, s, len(key)) == classify(t, s)

    @given(st.one_of(generated_instances(), near_misses()))
    @settings(max_examples=200, deadline=None)
    def test_generated_class_key_rank_matches_classify(self, case):
        # exhaustive hands _classify the row count of a holder's class key.
        t, s = case
        key = _rational_row_basis(zip(*t.elements))
        assert _classify(t, s, len(key)) == classify(t, s)

    def test_unclassified_holder_decided_by_the_kernel(self, monkeypatch):
        # No holder of (P_{q,s}) in classify's domain is Unclassified in any
        # enumerated cell, so a refusing block test makes one of a type-B
        # holder; the order statistics never refute a holder, so the kernel
        # decides it, as has_property does.
        t = group_tuple(K2_S3)
        assert has_property(t, 6, 3).holds

        def refuse(*args):
            raise ValueError("refused")

        monkeypatch.setattr(classify_module, "_block_certificate", refuse)
        kernel_calls = recording(monkeypatch, [tuples_module], "_decide_packed")
        c = classify(t, 3)
        assert c == Classification(
            variant=VARIANT_UNCLASSIFIED, s=3, rank=2, property_holds=True
        )
        assert len(kernel_calls) == 1


class TestWorkPinned:
    @pytest.mark.parametrize(
        "t, s, variant",
        [
            (group_tuple(TYPE_A_S3), 3, VARIANT_TYPE_A),
            (generated_holder("a", 5), 5, VARIANT_TYPE_A),
            (group_tuple(K2_S3), 3, VARIANT_TYPE_B),
            (generated_holder("b", 5), 5, VARIANT_TYPE_B),
        ],
        ids=["type_a_s3", "type_a_s5", "type_b_s3", "type_b_s5"],
    )
    def test_one_elimination_per_holder(self, monkeypatch, t, s, variant):
        # The rank is read off the shape's own elimination: no separate
        # ``rank`` in tuples, one ``_rational_row_basis`` in all.
        calls = recording(
            monkeypatch, [classify_module, tuples_module], "_rational_row_basis"
        )
        c = classify(t, s)
        assert c.variant == variant and c.rank == s - 1
        assert len(calls) == 1

    def test_known_rank_is_not_recomputed(self, monkeypatch):
        t = group_tuple(TYPE_A_S3)
        calls = recording(
            monkeypatch, [classify_module, tuples_module], "_rational_row_basis"
        )
        assert _classify(t, 3, 2).variant == VARIANT_TYPE_A
        assert calls == []

    def test_order_statistics_spare_the_kernel_on_g12(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(tuples_module, "_decide_packed", forbidden)
        t = group_tuple(G12)
        assert _property_holds(t, 6) is False
        assert classify(t, 6).property_holds is False
