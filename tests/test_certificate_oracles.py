"""Differential tests of the fraction-free certificate paths against the
per-element ``Fraction`` Gauss-Jordan code they replaced, and of the
shared-prefix adequate-basis scan against the scans it replaced.

The oracles below are the slow reference implementations: a ``Fraction``
elimination per target vector, a greedy ``hnf_rows`` rank probe per element
to pick the basis positions, a ``Fraction`` re-check of the certificate, an
adequate-basis scan over all positions that probes each subset's rank with
``hnf_rows`` and measures its representatives with ``sublattice_index``,
one that takes a separate ``det_bareiss`` of every rank-sized subset of the
nonzero positions, and the shared-prefix scan that solved every nonzero
element twice, once for its primitive representative and once for that
representative's coordinates; ``oracle_minors`` checks the scan's own
(subset, |det|) sequence with one ``det_bareiss`` per subset;
``oracle_failed_recombination`` is the integer recombination re-check that
summed a generator expression per coordinate.  The library must agree with
them on every result, ``None`` included, and on every verdict, tampered
certificates included.  An adequate witness's members must also be what
``primitive_representative`` returns for them.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtuple.lattice import (
    _failed_recombination,
    det_bareiss,
    hnf_rows,
    is_zero,
    primitive_representative,
    solve_coordinates,
    solve_rational_combination,
    sublattice_index,
)
from abtuple.structure import (
    AdequateBasisDecision,
    AdequateBasisWitness,
    QBasisCertificate,
    _nonzero_minors,
    adequate_basis_decide,
    audit_claims,
    q_basis_certificate,
    verify_certificate,
)
from abtuple.tuples import group_tuple, rank, span

BIG = 10**12


# ---------------------------------------------------------------------------
# Oracles


def oracle_solve(rows, target):
    k = len(rows)
    dim = len(target)
    aug = [
        [Fraction(rows[i][c]) for i in range(k)] + [Fraction(target[c])]
        for c in range(dim)
    ]
    pivot_cols = []
    r = 0
    for c in range(k):
        sel = next((i for i in range(r, dim) if aug[i][c] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(dim):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
    for i in range(r, dim):
        if aug[i][k] != 0:
            return None
    x = [Fraction(0)] * k
    for j, c in enumerate(pivot_cols):
        x[c] = aug[j][k]
    for c in range(dim):
        if sum(x[i] * rows[i][c] for i in range(k)) != target[c]:
            return None
    return tuple(x)


def oracle_q_basis(t):
    tr = rank(t)
    if tr == 0:
        raise ValueError("rank-0 tuple admits no basis certificate")
    chosen = []
    for i, e in enumerate(t.elements):
        if is_zero(e):
            continue
        cand = hnf_rows([t.elements[j] for j in chosen] + [list(e)], t.dim)
        if cand.rank > len(chosen):
            chosen.append(i)
            if len(chosen) == tr:
                break
    base = [t.elements[i] for i in chosen]
    coords = [oracle_solve(base, e) for e in t.elements]
    mult = []
    for tau in range(tr):
        m = 1
        for row in coords:
            m = lcm(m, row[tau].denominator)
        mult.append(m)
    exponents = tuple(
        tuple(int(row[tau] * mult[tau]) for tau in range(tr)) for row in coords
    )
    eta_num = []
    eta_den = []
    for tau in range(tr):
        g = mult[tau]
        for x in base[tau]:
            g = gcd(g, x)
        eta_num.append(tuple(x // g for x in base[tau]))
        eta_den.append(mult[tau] // g)
    return QBasisCertificate(
        indices=tuple(chosen),
        multipliers=tuple(mult),
        eta_num=tuple(eta_num),
        eta_den=tuple(eta_den),
        exponents=exponents,
    )


def oracle_verify(t, cert):
    tr = cert.rank
    q = len(t)
    if not (
        len(cert.multipliers) == tr
        and len(cert.eta_num) == tr
        and len(cert.eta_den) == tr
        and len(cert.exponents) == q
        and all(len(row) == tr for row in cert.exponents)
        and all(len(r) == t.dim for r in cert.eta_num)
    ):
        return False
    if len(set(cert.indices)) != tr or not all(0 <= i < q for i in cert.indices):
        return False
    if any(l <= 0 for l in cert.multipliers) or any(d <= 0 for d in cert.eta_den):
        return False
    for num, den in zip(cert.eta_num, cert.eta_den):
        g = den
        for x in num:
            g = gcd(g, x)
        if g != 1:
            return False
    if hnf_rows(cert.eta_num, t.dim).rank != tr:
        return False
    etas = [cert.eta_row(tau) for tau in range(tr)]
    for tau, (i, l) in enumerate(zip(cert.indices, cert.multipliers)):
        if any(Fraction(x) != l * y for x, y in zip(t.elements[i], etas[tau])):
            return False
        expected = tuple(l if u == tau else 0 for u in range(tr))
        if cert.exponents[i] != expected:
            return False
    for i in range(q):
        row = cert.exponents[i]
        for c in range(t.dim):
            if Fraction(t.elements[i][c]) != sum(
                row[tau] * etas[tau][c] for tau in range(tr)
            ):
                return False
    return True


def oracle_failed_recombination(elements, exponents, gens, dens):
    big = lcm(*dens)
    base = [[x * (big // d) for x in g] for g, d in zip(gens, dens)]
    for j, (e, row) in enumerate(zip(elements, exponents)):
        for c, x in enumerate(e):
            if big * x != sum(n * b[c] for n, b in zip(row, base)):
                return j
    return None


def oracle_adequate_basis(t):
    lat = span(t)
    tr = lat.rank
    if tr == 0:
        raise ValueError("rank-0 tuple: adequate basis undefined")
    reps = [primitive_representative(lat, e) if any(e) else None for e in t.elements]
    refutation = []
    for subset in combinations(range(len(t)), tr):
        rows = [t.elements[i] for i in subset]
        if hnf_rows(rows, t.dim).rank < tr:
            continue
        prims, mults = zip(*(reps[i] for i in subset))
        idx = sublattice_index(hnf_rows(prims, t.dim), lat)
        if idx == 1:
            return AdequateBasisDecision(
                exists=True,
                witness=AdequateBasisWitness(
                    indices=subset, multipliers=mults, basis=prims
                ),
                refutation=None,
            )
        refutation.append((subset, idx))
    return AdequateBasisDecision(
        exists=False, witness=None, refutation=tuple(refutation)
    )


def oracle_adequate_basis_dets(t):
    lat = span(t)
    tr = lat.rank
    if tr == 0:
        raise ValueError("rank-0 tuple: adequate basis undefined")
    nonzero = [i for i, e in enumerate(t.elements) if any(e)]
    reps = {i: primitive_representative(lat, t.elements[i]) for i in nonzero}
    coords = {i: solve_coordinates(lat, p) for i, (p, _) in reps.items()}
    refutation = []
    for subset in combinations(nonzero, tr):
        idx = abs(det_bareiss([coords[i] for i in subset]))
        if idx == 0:
            continue
        if idx == 1:
            prims, mults = zip(*(reps[i] for i in subset))
            return AdequateBasisDecision(
                exists=True,
                witness=AdequateBasisWitness(
                    indices=subset, multipliers=mults, basis=prims
                ),
                refutation=None,
            )
        refutation.append((subset, idx))
    return AdequateBasisDecision(
        exists=False, witness=None, refutation=tuple(refutation)
    )


def oracle_minors(cands, size):
    """``_nonzero_minors`` by one ``det_bareiss`` per subset: (the first
    subset of |det| 1 or None, the (subset, |det|) pairs of |det| >= 2
    before it)."""
    out = []
    for chosen in combinations(cands, size):
        idx = abs(det_bareiss([row for _, row in chosen]))
        subset = tuple(i for i, _ in chosen)
        if idx == 1:
            return subset, out
        if idx:
            out.append((subset, idx))
    return None, out


def oracle_adequate_basis_two_solve(t):
    lat = span(t)
    tr = lat.rank
    if tr == 0:
        raise ValueError("rank-0 tuple: adequate basis undefined")
    nonzero = [i for i, e in enumerate(t.elements) if any(e)]
    reps = {i: primitive_representative(lat, t.elements[i]) for i in nonzero}
    coords = [(i, solve_coordinates(lat, p)) for i, (p, _) in reps.items()]
    refutation = []
    subset = _nonzero_minors(coords, tr, refutation)
    if subset is None:
        return AdequateBasisDecision(
            exists=False, witness=None, refutation=tuple(refutation)
        )
    prims, mults = zip(*(reps[i] for i in subset))
    return AdequateBasisDecision(
        exists=True,
        witness=AdequateBasisWitness(indices=subset, multipliers=mults, basis=prims),
        refutation=None,
    )


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def vector_lists(draw, min_size=1, max_size=8):
    """(dim, rows) with dim 1..7: rows are small combinations of a few
    generators (so the list is usually rank-deficient), raw coordinates up
    to 10**12 in absolute value, or zero rows; leading zero rows are common,
    and the combinations are scaled by 1, 3 or 10**12."""
    dim = draw(st.integers(1, 7), label="dim")
    small = st.tuples(*[st.integers(-5, 5)] * dim)
    gens = draw(st.lists(small, min_size=1, max_size=dim), label="gens")
    scale = draw(st.sampled_from((1, 3, BIG)), label="scale")
    rows = [(0,) * dim] * draw(st.integers(0, 2), label="leading zeros")
    n = draw(st.integers(min_size, max_size), label="n")
    for _ in range(n):
        kind = draw(st.sampled_from(("combo", "combo", "raw", "zero")))
        if kind == "combo":
            cs = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
            row = tuple(scale * sum(c * g[j] for c, g in zip(cs, gens)) for j in range(dim))
        elif kind == "raw":
            row = draw(st.tuples(*[st.integers(-BIG, BIG)] * dim))
        else:
            row = (0,) * dim
        rows.append(row)
    return dim, rows


@st.composite
def adequate_cases(draw):
    """(dim, rows) with dim 1..5 and up to 8 rows: small combinations of a
    few generators scaled by 1, 3 or 10**12, multiples of one generator,
    raw coordinates up to 10**12, zero rows and repeats of earlier rows."""
    dim = draw(st.integers(1, 5), label="dim")
    small = st.tuples(*[st.integers(-5, 5)] * dim)
    gens = draw(st.lists(small, min_size=1, max_size=dim), label="gens")
    scale = draw(st.sampled_from((1, 3, BIG)), label="scale")
    rows = []
    for _ in range(draw(st.integers(1, 8), label="n")):
        kind = draw(st.sampled_from(("combo", "combo", "multiple", "raw", "zero", "repeat")))
        if kind == "combo":
            cs = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
            row = tuple(scale * sum(c * g[j] for c, g in zip(cs, gens)) for j in range(dim))
        elif kind == "multiple":
            g = draw(st.sampled_from(gens))
            m = draw(st.sampled_from((-BIG, -2, -1, 1, 2, 3, BIG)))
            row = tuple(m * x for x in g)
        elif kind == "raw":
            row = draw(st.tuples(*[st.integers(-BIG, BIG)] * dim))
        elif kind == "repeat" and rows:
            row = draw(st.sampled_from(rows))
        else:
            row = (0,) * dim
        rows.append(row)
    return dim, rows


@st.composite
def prefix_scan_cases(draw):
    """(dim, rows): 9 to 12 rows of rank at most 3..6, in dim rank..rank+1.

    Rows are combinations, with coefficients up to 2 or 9, of ``rank``
    independent generators whose entries are up to 5, 10**3 or 10**12 in
    absolute value.  After the first row, the next one to four rows are
    mostly zero rows, repeats, multiples and two-row combinations of earlier
    rows, so the scan meets dependent prefixes at its first levels; later
    rows are mostly fresh combinations."""
    r = draw(st.integers(3, 6), label="rank")
    dim = draw(st.integers(r, r + 1), label="dim")
    bound = draw(st.sampled_from((5, 10**3, BIG)), label="entry bound")
    entry = st.integers(-bound, bound)
    lead = st.integers(1, bound).flatmap(lambda x: st.sampled_from((x, -x)))
    gens = []  # echelon form, so the generators are independent
    for k in range(r):
        tail = draw(st.tuples(*[entry] * (dim - k - 1)), label="gen tail")
        gens.append((0,) * k + (draw(lead, label="gen lead"),) + tail)
    coeff = st.integers(*draw(st.sampled_from(((-2, 2), (-9, 9))), label="coeffs"))
    early = draw(st.integers(1, 4), label="early")
    rows = []
    for k in range(draw(st.integers(9, 12), label="n")):
        kinds = ("combo", "repeat", "multiple", "pair", "zero")
        if k > early:
            kinds = ("combo",) * 5 + kinds
        kind = draw(st.sampled_from(kinds))
        if kind == "combo" or not rows:
            cs = draw(st.lists(coeff, min_size=r, max_size=r))
            row = tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(dim))
        elif kind == "zero":
            row = (0,) * dim
        elif kind == "repeat":
            row = draw(st.sampled_from(rows))
        elif kind == "multiple":
            m = draw(st.sampled_from((-3, -2, -1, 2, 3)))
            row = tuple(m * x for x in draw(st.sampled_from(rows)))
        else:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            row = tuple(a * u + b * v for u, v in zip(x, y))
        rows.append(row)
    return dim, rows


# Explicit tuples for the scan's closed-form tail, which dots each pair's
# cross product with every later coordinate row and divides by the square of
# the last prefix pivot.  Linear relations among the rows hold among their
# coordinate rows too.
TAIL_CASES = {
    # Rank 3: the tail runs at the top, with pivot 1.  Rows 0 and 2 are
    # parallel, so pair (0, 2) has a zero cross product.
    "rank-3-at-the-top": [
        (2, 1, 0), (0, 3, 1), (4, 2, 0), (1, 0, 2), (1, 1, 1), (3, 4, 3), (2, -1, 5),
    ],
    # Rank 5: the rows span Z^5 and are primitive, so they are their own
    # coordinate rows.  The prefix (0, 1) pivots on 2 and then on
    # 2*3 - 0*3 = 6, so its tail divides by 36.
    "rank-5-pivots-2-and-6": [
        (2, 3, 0, 0, 1), (0, 3, 1, 0, 0), (1, 0, 2, 1, 0), (0, 1, 0, 3, 1),
        (1, 1, 1, 1, 2), (3, 0, 1, 2, 1), (2, 2, 0, 1, 3), (1, 2, 3, 0, 2),
    ],
    # The rows above with row 4 = row 0 + row 2, a zero cross product in
    # pair (2, 4) of prefix (0, 1)'s tail, and row 5 = row 2 + row 3, a
    # dependent triple (2, 3, 5) in it.  No subset has index 1.
    "rank-5-dependent-pair-and-triple": [
        (2, 3, 0, 0, 1), (0, 3, 1, 0, 0), (1, 0, 2, 1, 0), (0, 1, 0, 3, 1),
        (3, 3, 2, 1, 1), (1, 1, 2, 4, 1), (1, 1, 1, 1, 2), (3, 0, 1, 2, 1),
    ],
    "rank-5-entries-near-10**12": [
        (BIG - 1, 2, -BIG + 3, 5, 7),
        (3, BIG + 1, 1, -BIG, 2),
        (BIG, -3, BIG - 7, 1, 1),
        (1, BIG - 5, 2, 3, BIG + 2),
        (-BIG + 2, 1, 1, BIG, 3),
        (5, -BIG, BIG + 1, 2, -1),
        (BIG + 3, 7, -2, -BIG + 1, BIG),
    ],
}


# Explicit coordinate rows, keyed by position, for spans of rank 1 and 2.
# A rank-2 scan takes one shared elimination step and reads each pair's
# minor off the one-entry row left at the floor.
LOW_RANK_CASES = {
    "rank-1-witness-after-two-refutations": [
        (2, (3,)), (5, (-2,)), (6, (1,)), (9, (4,)),
    ],
    "rank-1-all-refuted": [(0, (2,)), (3, (-3,)), (4, (4,))],
    # (1, 2) is a dependent pair; (4, 7) is the witness, the last pair.
    "rank-2-dependent-pair-late-witness": [
        (1, (2, 0)), (2, (4, 0)), (4, (1, 3)), (7, (0, 1)),
    ],
    # The first row pivots at its second column, so the floor holds
    # minus the minor.
    "rank-2-all-refuted": [(0, (0, 2)), (2, (3, 1)), (3, (1, 1)), (5, (-1, 3))],
    "rank-2-witness-after-pivot-in-second-column": [
        (1, (0, 3)), (2, (2, -1)), (3, (1, 0)), (6, (5, 5)),
    ],
}


# ---------------------------------------------------------------------------
# Tests


class TestSolverAgainstOracle:
    @given(vector_lists(min_size=0, max_size=7), st.data())
    @settings(max_examples=250, deadline=None)
    def test_rational_solution_matches(self, case, data):
        dim, vecs = case
        if not vecs:
            return
        target = data.draw(st.sampled_from(vecs), label="target")
        rows = vecs[: data.draw(st.integers(0, len(vecs)), label="k")]
        expected = oracle_solve(rows, target)
        assert solve_rational_combination(rows, target) == expected


class TestQBasisAgainstOracle:
    @given(vector_lists())
    @settings(max_examples=250, deadline=None)
    def test_certificate_matches(self, case):
        dim, rows = case
        t = group_tuple(rows, dim=dim)
        if rank(t) == 0:
            with pytest.raises(ValueError):
                q_basis_certificate(t)
            return
        cert = q_basis_certificate(t)
        assert cert == oracle_q_basis(t)
        assert verify_certificate(t, cert) and oracle_verify(t, cert)


class TestVerifyAgainstOracle:
    @given(vector_lists(), st.data())
    @settings(max_examples=250, deadline=None)
    def test_tampered_verdicts_match(self, case, data):
        dim, rows = case
        t = group_tuple(rows, dim=dim)
        if rank(t) == 0:
            return
        cert = q_basis_certificate(t)
        tr = cert.rank
        field = data.draw(
            st.sampled_from(("multipliers", "eta_num", "eta_den", "exponents")),
            label="field",
        )
        delta = data.draw(st.sampled_from((-1, 1)), label="delta")
        tau = data.draw(st.integers(0, tr - 1), label="tau")
        if field == "multipliers" or field == "eta_den":
            values = list(getattr(cert, field))
            values[tau] += delta
            bad = dataclasses.replace(cert, **{field: tuple(values)})
        elif field == "eta_num":
            c = data.draw(st.integers(0, dim - 1), label="coordinate")
            nums = [list(r) for r in cert.eta_num]
            nums[tau][c] += delta
            bad = dataclasses.replace(cert, eta_num=tuple(map(tuple, nums)))
        else:
            i = data.draw(st.integers(0, len(t) - 1), label="position")
            exps = [list(r) for r in cert.exponents]
            exps[i][tau] += delta
            bad = dataclasses.replace(cert, exponents=tuple(map(tuple, exps)))
        assert verify_certificate(t, bad) == oracle_verify(t, bad)

    def test_dependent_eta_rows(self):
        # Two equal elements chosen as two indices: every other invariant
        # holds, so only the independence check refuses the certificate.
        t = group_tuple([(0, 0), (1, 0), (1, 0)])
        cert = QBasisCertificate(
            indices=(1, 2),
            multipliers=(1, 1),
            eta_num=((1, 0), (1, 0)),
            eta_den=(1, 1),
            exponents=((0, 0), (1, 0), (0, 1)),
        )
        assert not verify_certificate(t, cert)
        assert not oracle_verify(t, cert)


class TestAdequateBasisAgainstOracle:
    @given(adequate_cases())
    @settings(max_examples=300, deadline=None)
    def test_decision_matches(self, case):
        dim, rows = case
        t = group_tuple(rows, dim=dim)
        if rank(t) == 0:
            with pytest.raises(ValueError):
                adequate_basis_decide(t)
            return
        assert adequate_basis_decide(t) == oracle_adequate_basis(t)

    @given(prefix_scan_cases())
    @settings(max_examples=150, deadline=None)
    def test_prefix_scan_matches_determinant_oracle(self, case):
        dim, rows = case
        t = group_tuple(rows, dim=dim)
        if rank(t) == 0:
            return
        assert adequate_basis_decide(t) == oracle_adequate_basis_dets(t)

    @given(st.one_of(adequate_cases(), prefix_scan_cases()))
    @settings(max_examples=300, deadline=None)
    def test_one_solve_per_element_matches_two_solve_scan(self, case):
        # Coordinates divided by their gcd differ from the representative's
        # by a sign at most, so every |det|, and the decision, is unchanged.
        dim, rows = case
        t = group_tuple(rows, dim=dim)
        if rank(t) == 0:
            return
        assert adequate_basis_decide(t) == oracle_adequate_basis_two_solve(t)

    @pytest.mark.parametrize("rows", TAIL_CASES.values(), ids=TAIL_CASES)
    def test_tail_matches_determinant_oracle(self, rows):
        t = group_tuple(rows)
        assert adequate_basis_decide(t) == oracle_adequate_basis_dets(t)

    @pytest.mark.parametrize("cands", LOW_RANK_CASES.values(), ids=LOW_RANK_CASES)
    def test_low_rank_scan_matches_determinant_oracle(self, cands):
        out = []
        found = _nonzero_minors(cands, len(cands[0][1]), out)
        assert (found, out) == oracle_minors(cands, len(cands[0][1]))

    @pytest.mark.parametrize(
        "s, q", [(s, q) for s in range(2, 6) for q in range(s + 1, 2 * s + 1)]
    )
    def test_all_zero_audit_report(self, s, q):
        skip = {"pass": True, "status": "skip", "witness": None}
        expected = {
            "s": s,
            "q": q,
            "case": "alpha",
            "translation": None,
            "claims": [
                {
                    "name": "multiplicity_sums_avoid_s",
                    "pass": True,
                    "status": "pass",
                    "witness": {"multiplicities": [q]},
                    "reason": None,
                },
                dict(skip, name="multiplicity_pattern", reason=f"rank 0 != s-1 = {s - 1}"),
            ]
            + [
                dict(skip, name=name, reason="no negative exponents")
                for name in (
                    "zero_axis_property",
                    "zero_axis_rank_drop",
                    "zero_axis_not_type_a",
                )
            ],
        }
        for dim in (1, 3):
            t = group_tuple([(0,) * dim] * q)
            assert audit_claims(t, s).to_json_obj() == expected


class TestRecombinationAgainstOracle:
    @given(vector_lists(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_first_failing_position_matches(self, case, data):
        # The re-check in q_basis_certificate's form (the chosen elements
        # over their multipliers) or verify_certificate's (the etas over
        # their denominators), with up to three entries perturbed.
        dim, rows = case
        t = group_tuple(rows, dim=dim)
        if rank(t) == 0:
            return
        cert = q_basis_certificate(t)
        if data.draw(st.booleans(), label="eta form"):
            gens, dens = cert.eta_num, cert.eta_den
        else:
            gens, dens = [t.elements[i] for i in cert.indices], cert.multipliers
        exps = [list(r) for r in cert.exponents]
        gens = [list(g) for g in gens]
        dens = list(dens)
        tr = cert.rank
        for _ in range(data.draw(st.integers(0, 3), label="perturbations")):
            field = data.draw(st.sampled_from(("exponent", "generator", "denominator")))
            tau = data.draw(st.integers(0, tr - 1), label="tau")
            if field == "exponent":
                j = data.draw(st.integers(0, len(t) - 1), label="position")
                exps[j][tau] += data.draw(st.sampled_from((-1, 1, BIG)), label="delta")
            elif field == "generator":
                c = data.draw(st.integers(0, dim - 1), label="coordinate")
                gens[tau][c] += data.draw(st.sampled_from((-1, 1, BIG)), label="delta")
            else:
                dens[tau] = data.draw(
                    st.sampled_from((dens[tau] + 1, 2 * dens[tau], BIG)), label="den"
                )
        args = (t.elements, exps, gens, dens)
        assert _failed_recombination(*args) == oracle_failed_recombination(*args)

    @pytest.mark.parametrize(
        "rows", [[(0, 0), (0, 0)], [(0, 0), (0, 3), (1, 0)]], ids=["zero", "nonzero"]
    )
    def test_no_generators(self, rows):
        # With no generator every recombination is zero: the first nonzero
        # element fails.
        args = (rows, [()] * len(rows), [], [])
        assert _failed_recombination(*args) == oracle_failed_recombination(*args)


class TestAdequateWitnessAgainstPrimitiveRepresentative:
    @given(st.one_of(adequate_cases(), prefix_scan_cases()))
    @settings(max_examples=300, deadline=None)
    def test_members_match(self, case):
        dim, rows = case
        t = group_tuple(rows, dim=dim)
        if rank(t) == 0:
            return
        dec = adequate_basis_decide(t)
        if not dec.exists:
            return
        lat = span(t)
        w = dec.witness
        for i, d, b in zip(w.indices, w.multipliers, w.basis):
            assert (b, d) == primitive_representative(lat, t.elements[i])
