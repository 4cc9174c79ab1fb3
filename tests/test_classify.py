"""Classification into the two canonical forms, verification, and rebasing."""

import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtuple.classify import (
    VARIANT_RANK_BELOW,
    VARIANT_TYPE_A,
    VARIANT_TYPE_B,
    VARIANT_UNCLASSIFIED,
    canonical_pattern,
    classification_from_json_obj,
    classify,
    rebase_type_b,
    verify_classification,
)
from abtuple.generators import GeneratorSpec, generate
from abtuple.tuples import group_tuple, has_property, translate

TYPE_A_S3 = ((0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (0, 1))
TYPE_B_S3 = ((0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (-1, -1))


class TestCanonicalPattern:
    def test_type_a(self):
        assert canonical_pattern(VARIANT_TYPE_A, 3, [(1, 0), (0, 1)]) == [
            (0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (0, 1),
        ]

    def test_type_b_blocks(self):
        pat = canonical_pattern(
            VARIANT_TYPE_B, 3, [(1, 0), (0, 1)], k=1, breakpoints=(2,)
        )
        assert pat == [(0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (-1, -1)]
        pat = canonical_pattern(
            VARIANT_TYPE_B, 3, [(1, 0), (0, 1)], k=2, breakpoints=(1, 2)
        )
        assert pat == [(0, 0), (0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            canonical_pattern("nope", 3, [(1,)])


class TestConverse:
    def test_every_pattern_up_to_s9_has_the_property(self):
        """Every type-A/B instance with s <= 9 satisfies (P_{2s,s}).

        (P_{r,s}) is invariant under injective group homomorphisms, which
        preserve and reflect equal integer combinations; under permutations
        of positions; and under translations, which add s*c to every s-sum.
        A type-A/B instance is such an image of its canonical pattern over
        the standard basis of Z^{s-1}, so the patterns decide the converse
        for every instance: 2^{s-1} type-B patterns per s, one per
        breakpoint set, plus type A for odd s; 514 patterns for s = 2..9.
        """
        checked = 0
        for s in range(2, 10):
            basis = [tuple(int(i == j) for j in range(s - 1)) for i in range(s - 1)]
            patterns = [
                canonical_pattern(VARIANT_TYPE_B, s, basis, k=k, breakpoints=b)
                for k in range(s)
                for b in combinations(range(1, s), k)
            ]
            if s % 2:
                patterns.append(canonical_pattern(VARIANT_TYPE_A, s, basis))
            for pattern in patterns:
                rep = has_property(group_tuple(pattern, dim=s - 1), 2 * s, s)
                assert rep.holds, (s, pattern, rep.failure_witness)
            checked += len(patterns)
        assert checked == 514

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_scrambled_instances_agree_with_their_pattern(self, data):
        """A generated type-B instance, an injective, permuted and translated
        image of its pattern, holds (P_{2s,s}) exactly when the pattern does."""
        s = data.draw(st.integers(2, 4), label="s")
        breaks = tuple(sorted(data.draw(st.sets(st.integers(1, s - 1)), label="b")))
        dim = s - 1 + data.draw(st.integers(0, 1), label="extra_dim")
        spec = GeneratorSpec(
            kind="b",
            s=s,
            dim=dim,
            k=len(breaks),
            breakpoints=breaks,
            seed=data.draw(st.integers(0, 10**9), label="seed"),
            unimodular_bound=data.draw(st.integers(0, 5), label="bound"),
            translation=data.draw(st.tuples(*[st.integers(-9, 9)] * dim), label="c"),
            permutation_seed=data.draw(st.integers(0, 10**9), label="perm"),
        )
        basis = [tuple(int(i == j) for j in range(s - 1)) for i in range(s - 1)]
        pattern = canonical_pattern(
            VARIANT_TYPE_B, s, basis, k=len(breaks), breakpoints=breaks
        )
        expected = has_property(group_tuple(pattern, dim=s - 1), 2 * s, s)
        assert has_property(generate(spec), 2 * s, s).holds == expected.holds


class TestClassify:
    def test_three_zeros_one_beta(self):
        c = classify(group_tuple([(0,), (0,), (0,), (3,)]), 2)
        assert c.variant == VARIANT_TYPE_B
        assert c.k == 0
        assert c.breakpoints == ()
        assert c.scaling == (0,)
        assert verify_classification(group_tuple([(0,), (0,), (0,), (3,)]), c)

    def test_pair_with_inverse(self):
        t = group_tuple([(0,), (0,), (2,), (-2,)])
        c = classify(t, 2)
        assert c.variant == VARIANT_TYPE_B
        assert c.k == 1
        assert c.breakpoints == (1,)
        assert verify_classification(t, c)

    def test_type_a_s3(self):
        t = group_tuple(TYPE_A_S3)
        c = classify(t, 3)
        assert c.variant == VARIANT_TYPE_A
        assert c.basis == ((1, 0), (0, 1))
        assert c.scaling == (0, 0)
        assert verify_classification(t, c)

    def test_type_b_s3_block_inverse(self):
        t = group_tuple(TYPE_B_S3)
        c = classify(t, 3)
        assert c.variant == VARIANT_TYPE_B
        assert c.k == 1
        assert c.breakpoints == (2,)
        assert verify_classification(t, c)

    def test_rank_below(self):
        c = classify(group_tuple([(0,), (0,), (0,)]), 2)
        assert c.variant == VARIANT_RANK_BELOW
        assert c.rank == 0
        assert c.to_json_obj() == {"variant": "rank_below", "s": 2, "t": 0}
        assert verify_classification(group_tuple([(0,), (0,), (0,)]), c)

    def test_unclassified_without_property(self):
        # Rank 1 = s-1 and q = 2s, but (0,0,1,3) matches neither pattern.
        t = group_tuple([(0,), (0,), (1,), (3,)])
        c = classify(t, 2)
        assert c.variant == VARIANT_UNCLASSIFIED
        assert c.property_holds is False
        assert not verify_classification(t, c)

    def test_unclassified_above_rank(self):
        # Rank 2 > s-1 = 1; the lemma would be violated if the property held.
        t = group_tuple([(0, 0), (1, 0), (0, 1), (1, 1)])
        c = classify(t, 2)
        assert c.variant == VARIANT_UNCLASSIFIED
        assert c.rank == 2
        assert c.property_holds is False

    def test_preconditions(self):
        t = group_tuple([(0,), (0,), (1,), (-1,)])
        with pytest.raises(ValueError):
            classify(t, 1)
        with pytest.raises(ValueError):
            classify(t, 4)
        with pytest.raises(ValueError):
            classify(group_tuple([(1,), (1,), (2,), (-2,)]), 2)

    def test_translated_instance_recovers(self):
        t = translate(group_tuple(TYPE_B_S3), (1, 0))
        c = classify(t, 3)
        assert c.variant == VARIANT_TYPE_B
        assert c.scaling == (-1, 0)
        assert verify_classification(t, c)


class TestVerifyClassification:
    def test_doubled_basis_vector_fails(self):
        t = group_tuple(TYPE_A_S3)
        c = classify(t, 3)
        bad = dataclasses.replace(c, basis=((2, 0), (0, 1)))
        assert not verify_classification(t, bad)

    def test_scaling_off_by_basis_vector_fails(self):
        t = group_tuple(TYPE_B_S3)
        c = classify(t, 3)
        assert c.breakpoints == (2,)
        bad = dataclasses.replace(c, scaling=(1, 0))
        assert not verify_classification(t, bad)

    def test_permutation_must_be_bijection(self):
        t = group_tuple(TYPE_A_S3)
        c = classify(t, 3)
        bad = dataclasses.replace(c, permutation=(0,) * 6)
        assert not verify_classification(t, bad)

    def test_even_s_type_a_fails(self):
        t = group_tuple([(0,), (0,), (1,), (1,)])
        c = dataclasses.replace(
            classify(group_tuple(TYPE_A_S3), 3),
            s=2,
            basis=((1,),),
            scaling=(0,),
            permutation=(0, 1, 2, 3),
        )
        assert not verify_classification(t, c)

    @pytest.mark.parametrize(
        "elements, cert",
        [
            # (a) The pattern matches, but the basis is dependent; classify
            # calls this tuple rank_below.
            (
                [(0,), (0,), (1,), (1,), (1,), (1,)],
                {
                    "variant": "type_a",
                    "s": 3,
                    "scaling": [0],
                    "permutation": [1, 2, 3, 4, 5, 6],
                    "basis": [[1], [1]],
                },
            ),
            # (b) The same dependent basis in a type-B pattern with k = 0.
            (
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
            # (c) s = 1, which classify refuses, with an empty basis.
            (
                [(0,), (0,)],
                {
                    "variant": "type_a",
                    "s": 1,
                    "scaling": [0],
                    "permutation": [1, 2],
                    "basis": [],
                },
            ),
            (
                [(0,), (0,)],
                {
                    "variant": "type_b",
                    "s": 1,
                    "scaling": [0],
                    "permutation": [1, 2],
                    "basis": [],
                    "k": 0,
                    "breakpoints": [],
                },
            ),
        ],
        ids=["dependent_type_a", "dependent_type_b", "s1_type_a", "s1_type_b"],
    )
    def test_dependent_basis_or_s_below_two_fails(self, elements, cert):
        t = group_tuple(elements)
        c = classification_from_json_obj(cert)
        if c.s >= 2:
            assert classify(t, c.s).variant == VARIANT_RANK_BELOW
        assert not verify_classification(t, c)

    @pytest.mark.parametrize(
        "elements, cert",
        [
            # (a) q = 2 <= s and no zero element: rank 1 < s - 1 alone
            # does not certify rank below.
            ([(1,), (2,)], {"variant": "rank_below", "s": 5, "t": 1}),
            # (b) The type-A pattern matches after translation, but the
            # tuple holds no zero element.
            (
                [(1, 0), (1, 0), (2, 0), (2, 0), (1, 1), (1, 1)],
                {
                    "variant": "type_a",
                    "s": 3,
                    "scaling": [1, 0],
                    "permutation": [1, 2, 3, 4, 5, 6],
                    "basis": [[1, 0], [0, 1]],
                },
            ),
        ],
        ids=["rank_below_q_at_most_s", "type_a_without_zero"],
    )
    def test_outside_classify_domain_fails(self, elements, cert):
        t = group_tuple(elements)
        c = classification_from_json_obj(cert)
        with pytest.raises(ValueError):
            classify(t, c.s)
        assert not verify_classification(t, c)

    def test_json_round_trip(self):
        for elements, s in ((TYPE_A_S3, 3), (TYPE_B_S3, 3)):
            t = group_tuple(elements)
            c = classify(t, s)
            back = classification_from_json_obj(c.to_json_obj())
            assert back == c
            assert verify_classification(t, back)


class TestRebase:
    def test_block_inverse_into_basis(self):
        t = group_tuple(TYPE_B_S3)
        c = classify(t, 3)
        # Positions of beta_1 and the block inverse -(beta_1+beta_2).
        rb = rebase_type_b(t, c, (3, 5))
        assert rb.basis == ((1, 0), (-1, -1))
        assert rb.k == 1
        assert rb.breakpoints == (2,)
        assert verify_classification(t, rb)

    def test_identity_rebase(self):
        t = group_tuple(TYPE_B_S3)
        c = classify(t, 3)
        # The classifier's own basis sits at positions 5 ((-1,-1)) and 4 ((0,1)).
        assert c.basis == ((-1, -1), (0, 1))
        rb = rebase_type_b(t, c, (5, 4))
        assert rb == c

    def test_one_dimensional(self):
        t = group_tuple([(0,), (0,), (1,), (-1,)])
        c = classify(t, 2)
        rb = rebase_type_b(t, c, (3,))
        assert rb.basis == ((-1,),)
        assert rb.k == 1
        assert verify_classification(t, rb)

    def test_errors(self):
        t = group_tuple(TYPE_B_S3)
        c = classify(t, 3)
        with pytest.raises(ValueError, match="type-B"):
            rebase_type_b(group_tuple(TYPE_A_S3), classify(group_tuple(TYPE_A_S3), 3), (2, 4))
        with pytest.raises(ValueError, match="distinct positions"):
            rebase_type_b(t, c, (3,))
        with pytest.raises(ValueError, match="zero value"):
            rebase_type_b(t, c, (0, 3))
        for bad in (9, -1, 4.0, True):
            with pytest.raises(ValueError, match=rf"position {bad!r} is not an integer"):
                rebase_type_b(t, c, (bad, 4))

    @pytest.mark.parametrize(
        "chosen, message",
        [
            ((2,), "chosen values do not form an integer basis of the span"),
            ((3,), "remaining value does not reduce to a negated block sum"),
        ],
    )
    def test_refusals_after_independence(self, chosen, message):
        # A certificate issued for 0 0 2 -2 applied to 3 3 5 1, whose span
        # is Z: 5 is independent but generates 5Z; 1 generates Z, but 3
        # reads 3 over it.
        c = classify(group_tuple([(0,), (0,), (2,), (-2,)]), 2)
        t = group_tuple([(3,), (3,), (5,), (1,)])
        with pytest.raises(ValueError) as got:
            rebase_type_b(t, c, chosen)
        assert str(got.value) == message

    def test_dependent_choice_rejected(self):
        # Type B at s=3 with k=2: values beta_1, beta_2, -beta_1, -beta_2.
        t = group_tuple(
            [(0, 0), (0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
        )
        c = classify(t, 3)
        assert c.variant == VARIANT_TYPE_B and c.k == 2
        with pytest.raises(ValueError, match="dependent"):
            rebase_type_b(t, c, (2, 4))  # beta_1 and -beta_1


def scrambled_instance(spec: GeneratorSpec, seed: int):
    """Generated instance followed by a zero-preserving value translation."""
    t0 = generate(spec)
    c = random.Random(seed).choice(t0.elements)
    return translate(t0, c)


class TestRoundTripAndEquivariance:
    @given(st.integers(0, 10**6), st.sampled_from([3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_type_a_round_trip(self, seed, s):
        spec = GeneratorSpec(
            kind="a",
            s=s,
            dim=s - 1,
            seed=seed,
            unimodular_bound=4,
            permutation_seed=seed + 1,
        )
        t = scrambled_instance(spec, seed + 2)
        c = classify(t, s)
        assert c.variant == VARIANT_TYPE_A
        assert verify_classification(t, c)

    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_type_b_round_trip(self, seed, s, data):
        k = data.draw(st.integers(0, s - 1), label="k")
        breaks = tuple(
            sorted(data.draw(st.sets(st.integers(1, s - 1), min_size=k, max_size=k)))
        )
        spec = GeneratorSpec(
            kind="b",
            s=s,
            dim=s - 1,
            k=k,
            breakpoints=breaks,
            seed=seed,
            unimodular_bound=4,
            permutation_seed=seed + 1,
        )
        t = scrambled_instance(spec, seed + 2)
        c = classify(t, s)
        assert c.variant == VARIANT_TYPE_B
        assert c.k == k
        assert verify_classification(t, c)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_variant_kind_is_equivariant(self, seed):
        rng = random.Random(seed)
        base = group_tuple(TYPE_B_S3)
        # Unimodular image, random position shuffle, translation by a value.
        u = [(1, 0), (rng.randint(-3, 3), 1)]
        mixed = [
            tuple(sum(row[i] * e[i] for i in range(2)) for row in u)
            for e in base.elements
        ]
        rng.shuffle(mixed)
        t = group_tuple(mixed)
        t = translate(t, rng.choice(t.elements))
        c = classify(t, 3)
        assert c.variant == VARIANT_TYPE_B
        assert verify_classification(t, c)
