"""Rational basis certificates, partitions, adequate bases, and the auditor."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtuple import lattice, structure
from abtuple.lattice import contains, hnf_rows, sublattice_index
from abtuple.structure import (
    adequate_basis_decide,
    audit_claims,
    m_partition,
    q_basis_certificate,
    sign_partition,
    verify_certificate,
)
from abtuple.tuples import BudgetExceeded, group_tuple, has_property, rank, span

EXAMPLE_FULL_RANK = ((1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 2, 5))
TYPE_A_S3 = ((0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (0, 1))
TYPE_B_S3 = ((0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (-1, -1))
# A holder of the s=5 q=10 dim=3 bound=1 enumeration cell, of rank 3 < s-1,
# whose audit fails: every value occurs twice, so (P_{10,5}) holds.
AUDIT_FAILURE_S5 = (
    (0, 0, 0),
    (-1, -1, -1),
    (-1, -1, -1),
    (-1, -1, 0),
    (-1, -1, 0),
    (-1, -1, 1),
    (-1, -1, 1),
    (-1, 0, -1),
    (-1, 0, -1),
    (0, 0, 0),
)


def small_tuples(max_dim=3, max_len=6, bound=4):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-bound, bound)] * d),
            min_size=1,
            max_size=max_len,
        ).map(lambda rows: group_tuple(rows, dim=d))
    )


class TestQBasisCertificate:
    def test_denominator_clearing(self):
        t = group_tuple([(0, 0), (2, 0), (0, 3), (1, 1)])
        cert = q_basis_certificate(t)
        assert cert.indices == (1, 2)
        assert cert.multipliers == (2, 3)
        assert cert.eta_num == ((1, 0), (0, 1))
        assert cert.eta_den == (1, 1)
        assert cert.exponents == ((0, 0), (2, 0), (0, 3), (1, 1))
        assert verify_certificate(t, cert)
        assert cert.to_json_obj()["indices"] == [2, 3]

    def test_single_generator(self):
        t = group_tuple([(0,), (5,)])
        cert = q_basis_certificate(t)
        assert cert.indices == (1,)
        assert cert.multipliers == (1,)
        assert cert.eta_num == ((5,),)
        assert cert.eta_den == (1,)
        assert cert.exponents == ((0,), (1,))
        assert verify_certificate(t, cert)

    def test_full_rank_with_denominators(self):
        t = group_tuple(EXAMPLE_FULL_RANK)
        cert = q_basis_certificate(t)
        assert cert.indices == (0, 1, 2)
        assert cert.multipliers == (2, 1, 2)
        assert cert.exponents[3] == (3, -3, 5)
        assert cert.eta_num == ((1, 0, 0), (1, 1, 0), (1, 2, 2))
        assert cert.eta_den == (2, 1, 2)
        assert verify_certificate(t, cert)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            q_basis_certificate(group_tuple([(0, 0), (0, 0)]))

    def test_wrong_elimination_raises(self, monkeypatch):
        # One wrong entry of the row echelon form must fail the integer
        # re-check, not leave the library as a certificate.
        real = structure._rational_row_basis

        def perturbed(rows):
            first, *rest = real(rows)
            return (first[:-1] + (first[-1] + 1,), *rest)

        monkeypatch.setattr(structure, "_rational_row_basis", perturbed)
        with pytest.raises(RuntimeError):
            q_basis_certificate(group_tuple([(0, 0), (2, 0), (0, 3), (1, 1)]))

    def test_wrong_elimination_in_last_coordinate_raises(self, monkeypatch):
        # The first pivot is (0, 3), so a wrong exponent on its axis moves
        # only the last coordinate of the recombination; the re-check must
        # read every coordinate.
        real = structure._rational_row_basis

        def perturbed(rows):
            first, *rest = real(rows)
            return (first[:-1] + (first[-1] + 1,), *rest)

        monkeypatch.setattr(structure, "_rational_row_basis", perturbed)
        with pytest.raises(RuntimeError):
            q_basis_certificate(group_tuple([(0, 0), (0, 3), (2, 0), (1, 1)]))

    def test_verify_rejects_tampering(self):
        t = group_tuple([(0, 0), (2, 0), (0, 3), (1, 1)])
        cert = q_basis_certificate(t)
        bad = dataclasses.replace(cert, multipliers=(2, 4))
        assert not verify_certificate(t, bad)
        bad = dataclasses.replace(cert, indices=(1, 1))
        assert not verify_certificate(t, bad)
        bad = dataclasses.replace(cert, eta_num=((2, 0), (0, 1)), eta_den=(2, 1))
        assert not verify_certificate(t, bad)  # not lowest terms
        rows = list(cert.exponents)
        rows[3] = (1, 2)
        bad = dataclasses.replace(cert, exponents=tuple(rows))
        assert not verify_certificate(t, bad)

    @given(small_tuples())
    @settings(max_examples=120, deadline=None)
    def test_construction_always_verifies(self, t):
        if rank(t) == 0:
            return
        cert = q_basis_certificate(t)
        assert verify_certificate(t, cert)
        assert cert.indices == tuple(sorted(cert.indices))


class TestMPartition:
    def test_type_a_pattern(self):
        t = group_tuple(TYPE_A_S3)
        part = m_partition(t, q_basis_certificate(t))
        assert part.classes == ((0, 1), (2, 3), (4, 5))
        assert part.multiplicities == (2, 2, 2)
        assert part.to_json_obj()["classes"] == [[1, 2], [3, 4], [5, 6]]

    def test_three_zeros_pattern(self):
        t = group_tuple([(0,), (0,), (0,), (3,)])
        part = m_partition(t, q_basis_certificate(t))
        assert part.classes == ((0, 1, 2), (3,))
        assert part.multiplicities == (3, 1)

    def test_negative_leading_exponent_rejected(self):
        t = group_tuple([(0,), (1,), (-1,)])
        cert = q_basis_certificate(t)
        with pytest.raises(ValueError, match="negative leading exponent"):
            m_partition(t, cert)

    def test_length_mismatch_rejected(self):
        t = group_tuple([(0,), (5,)])
        other = group_tuple([(0,), (5,), (5,)])
        with pytest.raises(ValueError):
            m_partition(other, q_basis_certificate(t))

    @given(small_tuples(bound=3))
    @settings(max_examples=120, deadline=None)
    def test_partition_covers_when_defined(self, t):
        if rank(t) == 0:
            return
        cert = q_basis_certificate(t)
        try:
            part = m_partition(t, cert)
        except ValueError:
            return
        flat = sorted(i for c in part.classes for i in c)
        assert flat == list(range(len(t)))
        assert sum(part.multiplicities) == len(t)
        # The certificate position for axis tau lands in class tau.
        for tau, i in enumerate(cert.indices):
            assert i in part.classes[tau + 1]


class TestSignPartition:
    def test_type_b_last_axis(self):
        t = group_tuple(TYPE_B_S3)
        cert = q_basis_certificate(t)
        sp = sign_partition(t, cert, 2)
        assert sp.plus == (4,)
        assert sp.zero == (0, 1, 2, 3)
        assert sp.minus == (5,)
        assert sp.counts == (1, 4, 1)
        assert sp.n_tilde == 1
        assert sp.to_json_obj() == {
            "axis": 2,
            "plus": [5],
            "zero": [1, 2, 3, 4],
            "minus": [6],
        }

    def test_type_a_has_no_negatives(self):
        t = group_tuple(TYPE_A_S3)
        cert = q_basis_certificate(t)
        sp = sign_partition(t, cert, cert.rank)
        assert sp.minus == ()

    def test_axis_range(self):
        t = group_tuple([(0,), (5,)])
        cert = q_basis_certificate(t)
        with pytest.raises(ValueError):
            sign_partition(t, cert, 0)
        with pytest.raises(ValueError):
            sign_partition(t, cert, 2)

    @given(small_tuples(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_counts_cover(self, t, data):
        if rank(t) == 0:
            return
        cert = q_basis_certificate(t)
        axis = data.draw(st.integers(1, cert.rank), label="axis")
        sp = sign_partition(t, cert, axis)
        assert sum(sp.counts) == len(t)
        assert sorted(sp.plus + sp.zero + sp.minus) == list(range(len(t)))


class TestAdequateBasis:
    def test_nonexistence_with_full_refutation(self):
        t = group_tuple(EXAMPLE_FULL_RANK)
        assert span(t) == hnf_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        dec = adequate_basis_decide(t)
        assert not dec.exists
        assert dec.refutation == (
            ((0, 1, 2), 2),
            ((0, 1, 3), 5),
            ((0, 2, 3), 6),
            ((1, 2, 3), 3),
        )
        obj = dec.to_json_obj()
        assert obj["exists"] is False
        assert obj["refutation"][0] == {"indices": [1, 2, 3], "index": 2}

    def test_standard_basis_present(self):
        t = group_tuple([(1, 0), (0, 1), (2, 3)])
        dec = adequate_basis_decide(t)
        assert dec.exists
        assert dec.witness.indices == (0, 1)
        assert dec.witness.multipliers == (1, 1)

    def test_span_generators_are_a_basis(self):
        t = group_tuple([(2, 0), (0, 3)])
        dec = adequate_basis_decide(t)
        assert dec.exists
        assert dec.witness.indices == (0, 1)
        assert dec.witness.multipliers == (1, 1)
        assert dec.witness.basis == ((2, 0), (0, 3))

    def test_signed_multipliers(self):
        t = group_tuple([(-2,), (3,)])
        dec = adequate_basis_decide(t)
        assert dec.exists
        # Span is Z; the first element is -2 times the primitive (1).
        assert dec.witness.indices == (0,)
        assert dec.witness.basis == ((1,),)
        assert dec.witness.multipliers == (-2,)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            adequate_basis_decide(group_tuple([(0,), (0,)]))

    def test_representatives_computed_once(self, monkeypatch):
        # A refuting scan reads every representative off its element's one
        # solve over the span basis; only a witness's members are solved
        # again, by primitive_representative in ``lattice``.
        calls = []
        real = lattice.solve_coordinates

        def counting(lat, v):
            calls.append(v)
            return real(lat, v)

        monkeypatch.setattr(structure, "solve_coordinates", counting)
        monkeypatch.setattr(lattice, "solve_coordinates", counting)
        for elements in (EXAMPLE_FULL_RANK, ((0, 0, 0),) + EXAMPLE_FULL_RANK):
            t = group_tuple(elements)
            calls.clear()
            dec = adequate_basis_decide(t)
            assert dec.refutation  # several independent subsets were scanned
            assert len(calls) <= len(t)

    def test_budget_bills_nonzero_subsets(self, monkeypatch):
        # Six positions, four of them nonzero, rank 3: the scan bills
        # C(4, 3) = 4 subsets, not C(6, 3) = 20.
        t = group_tuple(((0, 0, 0),) + EXAMPLE_FULL_RANK + ((0, 0, 0),))
        monkeypatch.setenv("ABTUPLE_BUDGET", "4")
        assert len(adequate_basis_decide(t).refutation) == 4
        monkeypatch.setenv("ABTUPLE_BUDGET", "3")
        with pytest.raises(BudgetExceeded, match="tests 4 subsets, budget is 3"):
            adequate_basis_decide(t)
        monkeypatch.setenv("ABTUPLE_BUDGET", "many")
        with pytest.raises(BudgetExceeded, match="not an integer"):
            adequate_basis_decide(t)

    @given(small_tuples(max_dim=3, max_len=5, bound=3))
    @settings(max_examples=100, deadline=None)
    def test_decision_soundness(self, t):
        if rank(t) == 0:
            return
        lat = span(t)
        dec = adequate_basis_decide(t)
        if dec.exists:
            w = dec.witness
            for i, d, row in zip(w.indices, w.multipliers, w.basis):
                assert d != 0
                assert contains(lat, row)
                assert tuple(d * x for x in row) == t.elements[i]
            assert sublattice_index(hnf_rows(w.basis, t.dim), lat) == 1
        else:
            assert dec.refutation
            for _, idx in dec.refutation:
                assert idx >= 2


class TestAuditClaims:
    def test_type_a_pattern_b(self):
        rep = audit_claims(group_tuple(TYPE_A_S3), 3)
        assert rep.case == "alpha"
        assert rep.translation is None
        assert rep.all_pass
        by_name = {c.name: c for c in rep.claims}
        assert by_name["multiplicity_sums_avoid_s"].status == "pass"
        claim2 = by_name["multiplicity_pattern"]
        assert claim2.status == "pass"
        assert claim2.witness == {"multiplicities": [2, 2, 2], "pattern": "b"}
        assert by_name["zero_axis_property"].status == "skip"

    def test_three_zeros_pattern_a(self):
        rep = audit_claims(group_tuple([(0,), (0,), (0,), (3,)]), 2)
        assert rep.case == "alpha"
        assert rep.all_pass
        by_name = {c.name: c for c in rep.claims}
        claim2 = by_name["multiplicity_pattern"]
        assert claim2.status == "pass"
        assert claim2.witness == {"multiplicities": [3, 1], "pattern": "a"}

    def test_type_b_case_beta_both_axes(self):
        rep = audit_claims(group_tuple(TYPE_B_S3), 3)
        assert rep.case == "beta"
        assert rep.all_pass
        names = [c.name for c in rep.claims]
        # Two skipped multiplicity claims, then three claims per negative axis.
        assert names[:2] == ["multiplicity_sums_avoid_s", "multiplicity_pattern"]
        assert names[2:] == [
            "zero_axis_property",
            "zero_axis_rank_drop",
            "zero_axis_not_type_a",
        ] * 2
        axis2 = [c for c in rep.claims if (c.witness or {}).get("axis") == 2]
        prop_claim = next(c for c in axis2 if c.name == "zero_axis_property")
        assert prop_claim.status == "pass"
        assert prop_claim.witness["counts"] == {"plus": 1, "zero": 4, "minus": 1}
        assert prop_claim.witness["r"] == 4
        assert prop_claim.witness["s"] == 2
        drop_claim = next(c for c in axis2 if c.name == "zero_axis_rank_drop")
        assert drop_claim.status == "pass"
        assert drop_claim.witness["rank"] == 1

    def test_s5_holder_below_maximal_rank_fails_zero_axis_not_type_a(self):
        # The status quo on the s=5 cell: the zero part of axis 1, of rank 2,
        # is type A, and no zero-axis claim is skipped below rank s-1.
        t = group_tuple(AUDIT_FAILURE_S5)
        assert has_property(t, 10, 5).holds
        rep = audit_claims(t, 5)
        assert rep.case == "beta"
        [failure] = rep.failures
        assert failure.name == "zero_axis_not_type_a"
        assert failure.witness["axis"] == 1
        assert failure.witness["variant"] == "type_a"

    @pytest.mark.parametrize(
        "elements, s, name, witness",
        [
            (
                ((0,), (0,), (-2,)),
                2,
                "multiplicity_sums_avoid_s",
                {"multiplicities": [2, 1], "subset_axes": [0]},
            ),
            (
                ((0, 0), (0, 0), (-1, -1), (-1, 0), (-1, 1)),
                3,
                "zero_axis_property",
                {
                    "axis": 1,
                    "zero_positions": [1, 2, 4],
                    "counts": {"plus": 1, "zero": 3, "minus": 1},
                    "r": 3,
                    "s": 2,
                    "failure_witness": {"window": [1, 2, 4], "selection": [1, 2]},
                },
            ),
        ],
        ids=["subset_axes", "zero_axis_failure_witness"],
    )
    def test_failed_claim_witness_format(self, elements, s, name, witness):
        # Neither tuple has (P_{q,s}), so audit_claims refuses both; calling
        # _audit_holder directly pins how a failed claim quotes its witness,
        # and says nothing about the claims on property holders.
        t = group_tuple(elements)
        assert not has_property(t, len(t), s).holds
        claim = next(c for c in structure._audit_holder(t, s).claims if c.name == name)
        assert claim.status == "fail"
        assert claim.witness == witness

    def test_normalization_translates_to_double_zero(self):
        rep = audit_claims(group_tuple([(0,), (1,), (1,), (2,)]), 2)
        assert rep.translation == (1,)
        assert rep.case == "beta"
        assert rep.all_pass
        by_name = {c.name: c for c in rep.claims}
        assert by_name["zero_axis_not_type_a"].status == "skip"

    def test_all_zero_rank_zero(self):
        rep = audit_claims(group_tuple([(0,), (0,), (0,)]), 2)
        assert rep.case == "alpha"
        assert rep.all_pass
        by_name = {c.name: c for c in rep.claims}
        assert by_name["multiplicity_sums_avoid_s"].witness == {
            "multiplicities": [3]
        }
        assert by_name["multiplicity_pattern"].status == "skip"

    def test_precondition_errors(self):
        t = group_tuple([(0,), (1,), (2,)])
        with pytest.raises(ValueError, match="window"):
            audit_claims(t, 2)  # property fails, witness quoted
        with pytest.raises(ValueError, match="2 <= s"):
            audit_claims(group_tuple([(0,), (0,), (0,)]), 1)
        with pytest.raises(ValueError, match="2 <= s"):
            audit_claims(group_tuple([(0,), (0,), (0,)]), 3)
        with pytest.raises(ValueError, match="zero element"):
            audit_claims(group_tuple([(1,), (1,), (1,)]), 2)

    @pytest.mark.parametrize(
        "elements, s, message",
        [
            ([(0,), (0,)], 1, "audit requires 2 <= s < q <= 2s, got s=1, q=2"),
            (
                [(1,), (2,), (3,)],
                2,
                "audit requires the zero element to occur in the tuple",
            ),
        ],
        ids=["sizes", "no_zero"],
    )
    def test_domain_refusal_texts(self, elements, s, message):
        # classify's domain, stated once, under the audit's own name.
        with pytest.raises(ValueError) as refusal:
            audit_claims(group_tuple(elements), s)
        assert str(refusal.value) == message

    def test_json_shape(self):
        rep = audit_claims(group_tuple(TYPE_A_S3), 3)
        obj = rep.to_json_obj()
        assert obj["s"] == 3 and obj["q"] == 6
        assert obj["case"] == "alpha"
        for claim in obj["claims"]:
            assert set(claim) == {"name", "pass", "status", "witness", "reason"}
            assert claim["pass"] is True
