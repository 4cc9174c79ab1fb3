"""Exact lattice algebra: canonical HNF, membership, index, primitivity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtuple import lattice
from abtuple.lattice import (
    Lattice,
    contains,
    det_bareiss,
    full_lattice,
    hnf_rows,
    primitive_representative,
    solve_coordinates,
    solve_rational_combination,
    sublattice_index,
    zero_vector,
)


def random_unimodular_matrix(rng, n, steps=12, bound=5):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        move = rng.randrange(3)
        if move == 0 and i != j:
            c = rng.choice([-1, 1]) * rng.randint(1, bound)
            m[i] = [u + c * v for u, v in zip(m[i], m[j])]
        elif move == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-u for u in m[i]]
    return m


def mat_mul(a, b):
    n, k, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(p)]
        for i in range(n)
    ]


class TestHnf:
    def test_known_small(self):
        lat = hnf_rows([(2, 4), (1, 1)], 2)
        assert lat.basis == ((1, 1), (0, 2))
        assert lat.pivots() == (0, 1)

    def test_zero_rows_dropped(self):
        lat = hnf_rows([(0, 0), (3, 0), (0, 0)], 2)
        assert lat.basis == ((3, 0),)
        assert lat.rank == 1

    def test_empty(self):
        lat = hnf_rows([], 3)
        assert lat.rank == 0
        assert lat.basis == ()

    def test_row_order_irrelevant(self):
        rows = [(5, 3, 1), (2, 0, 4), (1, 1, 1)]
        lat = hnf_rows(rows, 3)
        assert hnf_rows(rows[::-1], 3) == lat
        assert hnf_rows(rows + rows, 3) == lat

    def test_pivots_positive_and_reduced(self):
        lat = hnf_rows([(4, 7), (0, 3)], 2)
        for j, row in enumerate(lat.basis):
            p = lat.pivots()[j]
            assert row[p] > 0
            for i in range(j):
                assert 0 <= lat.basis[i][p] < row[p]

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            hnf_rows([(1, 2, 3)], 2)

    def test_full_lattice(self):
        lat = full_lattice(3)
        assert lat.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_unimodular_invariance(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        dim = data.draw(st.integers(n, 5), label="dim")
        rows = data.draw(
            st.lists(
                st.tuples(*[st.integers(-9, 9)] * dim), min_size=n, max_size=n
            ),
            label="rows",
        )
        seed = data.draw(st.integers(0, 10**6), label="seed")
        u = random_unimodular_matrix(random.Random(seed), n)
        mixed = mat_mul(u, [list(r) for r in rows])
        assert hnf_rows(mixed, dim) == hnf_rows(rows, dim)


class TestSolveContains:
    def test_membership(self):
        lat = hnf_rows([(2, 0), (0, 3)], 2)
        assert contains(lat, (4, 3))
        assert solve_coordinates(lat, (4, 3)) == (2, 1)
        assert not contains(lat, (1, 0))
        assert not contains(lat, (0, 1))

    def test_zero_always_member(self):
        lat = hnf_rows([(7, 11)], 2)
        assert solve_coordinates(lat, (0, 0)) == (0,)

    def test_off_span(self):
        lat = hnf_rows([(1, 0, 0)], 3)
        assert not contains(lat, (0, 1, 0))

    def test_dim_check(self):
        with pytest.raises(ValueError):
            solve_coordinates(full_lattice(2), (1, 2, 3))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, data):
        dim = data.draw(st.integers(1, 4), label="dim")
        rows = data.draw(
            st.lists(
                st.tuples(*[st.integers(-9, 9)] * dim), min_size=1, max_size=4
            ),
            label="rows",
        )
        lat = hnf_rows(rows, dim)
        coeffs = data.draw(
            st.lists(
                st.integers(-6, 6), min_size=lat.rank, max_size=lat.rank
            ),
            label="coeffs",
        )
        v = [0] * dim
        for c, row in zip(coeffs, lat.basis):
            v = [u + c * x for u, x in zip(v, row)]
        got = solve_coordinates(lat, tuple(v))
        assert got == tuple(coeffs)


class TestDeterminant:
    def test_known(self):
        assert det_bareiss([[1, 2], [3, 4]]) == -2
        assert det_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
        assert det_bareiss([]) == 1
        assert det_bareiss([[0, 1], [0, 2]]) == 0

    def test_row_swap_sign(self):
        assert det_bareiss([[0, 1], [1, 0]]) == -1

    @given(
        st.integers(1, 4),
        st.integers(0, 10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_multiplicative_on_unimodular(self, n, seed):
        rng = random.Random(seed)
        u = random_unimodular_matrix(rng, n)
        assert det_bareiss(u) in (-1, 1)


class TestIndex:
    def test_simple(self):
        sub = hnf_rows([(2, 0), (0, 3)], 2)
        assert sublattice_index(sub, full_lattice(2)) == 6

    def test_self_index_one(self):
        lat = hnf_rows([(3, 1), (0, 4)], 2)
        assert sublattice_index(lat, lat) == 1

    def test_infinite(self):
        sub = hnf_rows([(1, 0)], 2)
        assert sublattice_index(sub, full_lattice(2)) is None

    def test_not_nested(self):
        sub = hnf_rows([(1, 0)], 2)
        amb = hnf_rows([(2, 0)], 2)
        with pytest.raises(ValueError):
            sublattice_index(sub, amb)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            sublattice_index(full_lattice(2), full_lattice(3))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_multiplicative_in_chains(self, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        outer = full_lattice(dim)
        scale1 = data.draw(
            st.lists(st.integers(1, 4), min_size=dim, max_size=dim), label="s1"
        )
        mid = hnf_rows(
            [tuple(c * x for x in row) for c, row in zip(scale1, outer.basis)], dim
        )
        scale2 = data.draw(
            st.lists(st.integers(1, 4), min_size=dim, max_size=dim), label="s2"
        )
        inner = hnf_rows(
            [tuple(c * x for x in row) for c, row in zip(scale2, mid.basis)], dim
        )
        a = sublattice_index(mid, outer)
        b = sublattice_index(inner, mid)
        c = sublattice_index(inner, outer)
        assert a is not None and b is not None and c is not None
        assert c == a * b


class TestPrimitive:
    def test_in_full_lattice(self):
        p, d = primitive_representative(full_lattice(2), (4, 6))
        assert p == (2, 3)
        assert d == 2

    def test_sign_carried_by_cofactor(self):
        p, d = primitive_representative(full_lattice(2), (-4, -6))
        assert p == (2, 3)
        assert d == -2

    def test_respects_lattice(self):
        lat = hnf_rows([(2, 0), (0, 3)], 2)
        p, d = primitive_representative(lat, (4, 0))
        assert p == (2, 0)
        assert d == 2

    def test_already_primitive(self):
        lat = hnf_rows([(2, 0), (0, 3)], 2)
        p, d = primitive_representative(lat, (2, 3))
        assert (p, d) == ((2, 3), 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            primitive_representative(full_lattice(2), (0, 0))
        with pytest.raises(ValueError):
            primitive_representative(hnf_rows([(2, 0)], 2), (1, 0))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_decomposition_exact(self, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        v = data.draw(
            st.tuples(*[st.integers(-9, 9)] * dim).filter(lambda w: any(w)),
            label="v",
        )
        p, d = primitive_representative(full_lattice(dim), v)
        assert tuple(d * x for x in p) == v
        assert contains(full_lattice(dim), p)
        lead = next(x for x in p if x)
        assert lead > 0


class TestRationalSolve:
    def test_unique(self):
        x = solve_rational_combination([(2, 0), (0, 3)], (1, 1))
        assert x == (Fraction(1, 2), Fraction(1, 3))

    def test_none(self):
        assert solve_rational_combination([(1, 0)], (0, 1)) is None

    def test_dependent_rows_still_verified(self):
        x = solve_rational_combination([(1, 0), (2, 0)], (3, 0))
        assert x is not None
        assert x[0] * 1 + x[1] * 2 == 3

    def test_integral_and_fractional_solutions(self):
        assert solve_rational_combination([(2, 0), (0, 3)], (1, 1)) == (
            Fraction(1, 2),
            Fraction(1, 3),
        )
        assert solve_rational_combination([(2, 0), (0, 3)], (4, 3)) == (2, 1)
        assert solve_rational_combination([(1, 0)], (0, 1)) is None

    @pytest.mark.parametrize(
        "rows, target",
        [
            # Extra coordinates must not be ignored: 1 * (1, 0, 5) != (1, 0).
            ([(1, 0, 5)], (1, 0)),
            ([(1, 0), (1,)], (1, 0)),
        ],
    )
    def test_row_length_mismatch_raises(self, rows, target):
        with pytest.raises(ValueError):
            solve_rational_combination(rows, target)

    def test_wrong_elimination_raises(self, monkeypatch):
        # One wrong entry of the row echelon form must fail the integer
        # re-check, not come back as coefficients.
        real = lattice._rational_row_basis

        def perturbed(rows):
            first, *rest = real(rows)
            return (first[:-1] + (first[-1] + 1,), *rest)

        monkeypatch.setattr(lattice, "_rational_row_basis", perturbed)
        with pytest.raises(RuntimeError):
            solve_rational_combination([(2, 0), (0, 3)], (1, 1))

    def test_wrong_elimination_in_last_coordinate_raises(self, monkeypatch):
        # The first pivot row is (0, 3), so a wrong coefficient for it moves
        # only the last coordinate of the recombination: (1, 2), not (1, 1).
        real = lattice._rational_row_basis

        def perturbed(rows):
            first, *rest = real(rows)
            return (first[:-1] + (first[-1] + 1,), *rest)

        monkeypatch.setattr(lattice, "_rational_row_basis", perturbed)
        with pytest.raises(RuntimeError):
            solve_rational_combination([(0, 3), (2, 0)], (1, 1))


class TestLatticeValue:
    def test_equality_is_span_equality(self):
        a = hnf_rows([(1, 2), (0, 5)], 2)
        b = hnf_rows([(1, 7), (1, 2)], 2)
        assert a == b

    def test_zero_vector(self):
        assert zero_vector(3) == (0, 0, 0)

    def test_rank_property(self):
        assert Lattice(dim=2, basis=((1, 0),)).rank == 1
