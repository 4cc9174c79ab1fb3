"""Seeded instance factories and the unimodular fuzzing helper."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtuple.generators import (
    GeneratorSpec,
    generate,
    random_unimodular,
)
from abtuple.lattice import det_bareiss
from abtuple.tuples import rank


class TestRandomUnimodular:
    def test_identity_at_bound_zero(self):
        rng = random.Random(0)
        assert random_unimodular(3, rng, 0) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_negative_bound_rejected(self, dim):
        with pytest.raises(ValueError, match="bound must be >= 0"):
            random_unimodular(dim, random.Random(1), -5)

    @given(st.integers(2, 5), st.integers(0, 10**6), st.integers(1, 10))
    @settings(max_examples=120, deadline=None)
    def test_determinant_is_unit(self, dim, seed, bound):
        m = random_unimodular(dim, random.Random(seed), bound)
        assert det_bareiss(m) in (-1, 1)

    def test_deterministic_per_seed(self):
        a = random_unimodular(4, random.Random(99), 5)
        b = random_unimodular(4, random.Random(99), 5)
        assert a == b


class TestGenerate:
    def test_identity_pipeline_type_a(self):
        t = generate(GeneratorSpec(kind="a", s=3, dim=2))
        assert t.elements == ((0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (0, 1))

    def test_identity_pipeline_type_b(self):
        t = generate(GeneratorSpec(kind="b", s=3, dim=2, k=1, breakpoints=(2,)))
        assert t.elements == (
            (0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (-1, -1),
        )

    def test_identity_pipeline_s2_pair(self):
        t = generate(GeneratorSpec(kind="b", s=2, dim=1, k=1, breakpoints=(1,)))
        assert t.elements == ((0,), (0,), (1,), (-1,))

    def test_deterministic(self):
        spec = GeneratorSpec(
            kind="b",
            s=4,
            dim=3,
            k=2,
            breakpoints=(1, 3),
            seed=42,
            unimodular_bound=7,
            permutation_seed=5,
            translation=(1, 2, 3),
        )
        assert generate(spec) == generate(spec)

    def test_rank_is_s_minus_1(self):
        for seed in range(5):
            spec = GeneratorSpec(
                kind="a", s=5, dim=6, seed=seed, unimodular_bound=3
            )
            assert rank(generate(spec)) == 4

    def test_permutation_rearranges_only(self):
        base = generate(GeneratorSpec(kind="a", s=3, dim=2))
        shuffled = generate(
            GeneratorSpec(kind="a", s=3, dim=2, permutation_seed=123)
        )
        assert sorted(base.elements) == sorted(shuffled.elements)

    def test_translation_shifts(self):
        t = generate(
            GeneratorSpec(kind="b", s=2, dim=1, k=0, translation=(10,))
        )
        assert t.elements == ((10,), (10,), (10,), (11,))

    def test_validation(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec(kind="c", s=3, dim=2))
        with pytest.raises(ValueError):
            generate(GeneratorSpec(kind="a", s=4, dim=3))  # even s
        with pytest.raises(ValueError):
            generate(GeneratorSpec(kind="a", s=3, dim=1))  # dim < s-1
        with pytest.raises(ValueError):
            generate(GeneratorSpec(kind="b", s=3, dim=2, k=1, breakpoints=()))
        with pytest.raises(ValueError):
            generate(
                GeneratorSpec(kind="b", s=3, dim=2, k=2, breakpoints=(2, 1))
            )
        with pytest.raises(ValueError):
            generate(
                GeneratorSpec(kind="b", s=3, dim=2, k=1, breakpoints=(3,))
            )
        with pytest.raises(ValueError):
            generate(GeneratorSpec(kind="a", s=3, dim=2, translation=(1,)))
        with pytest.raises(ValueError, match="unimodular_bound"):
            generate(GeneratorSpec(kind="a", s=3, dim=2, unimodular_bound=-1))
        with pytest.raises(ValueError, match="seed must be >= 0"):
            generate(GeneratorSpec(kind="b", s=3, dim=2, seed=-7))
        with pytest.raises(ValueError, match="permutation_seed must be >= 0"):
            generate(GeneratorSpec(kind="b", s=3, dim=2, permutation_seed=-1))
