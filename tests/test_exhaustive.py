"""Enumeration harness: canonicalization soundness, determinism, budget."""

import json
from itertools import product

import pytest

from abtuple.exhaustive import (
    EnumerationJob,
    nominal_bill,
    run_enumeration,
    universe_size,
    value_grid,
)
from abtuple.tuples import BudgetExceeded, group_tuple, has_property, rank


def reference_property_multisets(job):
    """Non-deduplicating scan: every ordered tuple over the grid, reduced to
    sorted-multiset form at the end.  Slow; tiny scales only."""
    grid = value_grid(job.dim, job.bound)
    found = set()
    for combo in product(grid, repeat=job.q):
        if job.require_zero and (0,) * job.dim not in combo:
            continue
        t = group_tuple(combo, dim=job.dim)
        if has_property(t, job.q, job.s).holds:
            found.add(tuple(sorted(combo)))
    return found


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

    def test_reference_agrees_without_zero_pin(self):
        job = EnumerationJob(s=2, q=3, dim=1, bound=1, require_zero=False)
        rep = run_enumeration(job)
        ref = reference_property_multisets(job)
        assert rep["tuples"] == 10  # multichoose(3, 3)
        assert rep["with_property"] == len(ref)

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

    def test_budget_guard(self):
        job = EnumerationJob(s=2, q=4, dim=2, bound=2, budget=10)
        assert nominal_bill(job) > 10
        with pytest.raises(BudgetExceeded):
            run_enumeration(job)

    def test_nested_checks_use_job_budget(self, monkeypatch):
        # classify and audit_claims re-check the property on holders; those
        # checks must use the job's limit, not ABTUPLE_BUDGET.
        job = EnumerationJob(s=2, q=4, dim=1, bound=2, budget=10**9)
        expected = run_enumeration(job)
        monkeypatch.setenv("ABTUPLE_BUDGET", "5")
        assert run_enumeration(job) == expected

    def test_without_zero_tracking(self):
        # (1,1,1) holds (P_{3,2}) but contains no zero: counted, not classified.
        rep = run_enumeration(
            EnumerationJob(s=2, q=3, dim=1, bound=1, require_zero=False)
        )
        constant_tuples = 3  # (-1,-1,-1), (0,0,0), (1,1,1)
        assert rep["with_property"] == constant_tuples
        assert rep["without_zero"] == 2
        assert rep["variants"] == {"rank_below": 1}
