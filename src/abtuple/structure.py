"""Rational basis certificates, partitions, and the claim auditor.

The objects here formalize the analysis that makes the classification work.
A *rational basis certificate* for a tuple picks greedy independent positions
i_1 < ... < i_t, scales each picked element down by the least positive
multiplier l_tau clearing all denominators column-wise, and records the full
q-by-t integer exponent matrix l(i, tau) so that

    a_i = sum_tau l(i, tau) * eta_tau,      eta_tau = a_{i_tau} / l_tau

holds exactly over the rationals.  All of it is read off one primitive
reduced row echelon form of the d-by-q coordinate matrix
(``lattice._rational_row_basis``): the positions are its pivot columns,
l_tau is the pivot of row tau, and the exponent matrix is the form itself,
transposed.

An *adequate basis*, by contrast, lives in the span itself: a basis
eta_1..eta_t of span(t) with t tuple elements being integer multiples of
distinct basis elements.  Such a basis need not exist;
``adequate_basis_decide`` settles the question with a witness or a complete
refutation, using the fact that a basis element is primitive in the span and
the primitive element parallel to a given direction is unique up to sign.
With every representative written in coordinates over the span's HNF basis,
a rank-sized subset's |determinant| is 0 for a dependent subset, 1 for a basis
of the span, and otherwise the index of the sublattice the representatives
generate.  The subsets are scanned depth first in lexicographic order:
subsets with a common prefix share that prefix's fraction-free elimination,
and in spans of rank 3 or more the last three members are chosen in closed
form, each pair's cross product dotted with every later row.

``audit_claims`` checks, on a concrete property-(P_{q,s}) instance, the
structural assertions that drive the classification: the exponent matrix is
either entirely non-negative ("case alpha") or has a negative entry ("case
beta"); in case alpha the leading-axis class sizes avoid subset-sum s and, at
rank s-1, match one of two multiplicity patterns; in case beta, splitting the
positions by sign on a negative axis leaves a zero part that inherits a
smaller property, drops rank by exactly one, and never classifies as type A.
Each claim carries pass/fail/skip status with witness data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import TYPE_CHECKING

from .classify import VARIANT_TYPE_A, _classify, _outside_domain
from .lattice import (
    Vector,
    _failed_recombination,
    _leading_index,
    _rational_row_basis,
    primitive_representative,
    solve_coordinates,
    zero_vector,
)
from .tuples import (
    GroupTuple,
    _charge,
    equal_pair,
    has_property,
    rank,
    span,
    translate,
)

if TYPE_CHECKING:
    from fractions import Fraction


# ---------------------------------------------------------------------------
# Rational basis certificates


@dataclass(frozen=True)
class QBasisCertificate:
    """Exact rational-basis data for a tuple (0-based indices).

    eta_tau is stored as an integer numerator vector with a positive
    denominator, in lowest terms (no integer > 1 divides all numerator entries
    and the denominator).
    """

    indices: tuple[int, ...]
    multipliers: tuple[int, ...]
    eta_num: tuple[Vector, ...]
    eta_den: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.indices)

    def eta_row(self, tau: int) -> tuple[Fraction, ...]:
        from fractions import Fraction  # imported here to keep package import light

        den = self.eta_den[tau]
        return tuple(Fraction(x, den) for x in self.eta_num[tau])

    def to_json_obj(self) -> dict:
        return {
            "indices": [i + 1 for i in self.indices],
            "multipliers": list(self.multipliers),
            "eta_num": [list(r) for r in self.eta_num],
            "eta_den": list(self.eta_den),
            "exponents": [list(r) for r in self.exponents],
        }


def q_basis_certificate(t: GroupTuple) -> QBasisCertificate:
    """Deterministic rational basis certificate (greedy indices, LCM scaling).

    One primitive RREF (``_rational_row_basis``) of the d-by-q matrix whose
    columns are the elements gives the positions and the exponents.  Its
    pivot columns are the greedy independent positions i_tau.  Row r_tau
    has coprime entries and a positive pivot p_tau at column i_tau, and
    coordinate tau of element j over the chosen elements is r_tau[j] / p_tau.
    The least multiplier clearing these denominators is
    l_tau = lcm_j p_tau / gcd(p_tau, r_tau[j])
          = p_tau / gcd(p_tau, r_tau[0], ..., r_tau[q-1]),
    which is p_tau because the row is primitive; so the exponent l(j, tau)
    is r_tau[j] itself.
    Every element is re-checked in integers against its recombination,
    L a_j == sum_tau r_tau[j] (L / p_tau) a_{i_tau} with L = lcm(p_tau); a
    failure raises RuntimeError.  Raises ValueError on a rank-0 tuple.
    """
    rows = _rational_row_basis(zip(*t.elements))
    if not rows:
        raise ValueError("rank-0 tuple admits no basis certificate")
    chosen = [_leading_index(r) for r in rows]
    mult = [r[i] for r, i in zip(rows, chosen)]
    exponents = tuple(zip(*rows))
    gens = [t.elements[i] for i in chosen]
    j = _failed_recombination(t.elements, exponents, gens, mult)
    if j is not None:
        raise RuntimeError(f"element {j} fails its integer recombination")
    eta_num = []
    eta_den = []
    for i, m in zip(chosen, mult):
        g = gcd(m, *t.elements[i])
        eta_num.append(tuple(x // g for x in t.elements[i]))
        eta_den.append(m // g)
    return QBasisCertificate(
        indices=tuple(chosen),
        multipliers=tuple(mult),
        eta_num=tuple(eta_num),
        eta_den=tuple(eta_den),
        exponents=exponents,
    )


def verify_certificate(t: GroupTuple, cert: QBasisCertificate) -> bool:
    """Exact re-check of every certificate invariant, in integers.  Pure; no
    search.  The etas are independent when one primitive row echelon form of
    their numerators has rank-many rows.  Position i_tau's exponent row must
    be l_tau times the unit row tau, and one integer recombination, every
    eta scaled to the lcm of the denominators, checks every element; at
    i_tau it reads den_tau * a_{i_tau} == l_tau * eta_num_tau, so it also
    ties each chosen element to its eta."""
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
    if any(gcd(den, *num) != 1 for num, den in zip(cert.eta_num, cert.eta_den)):
        return False
    if len(_rational_row_basis(cert.eta_num)) != tr:
        return False
    for tau, (i, l) in enumerate(zip(cert.indices, cert.multipliers)):
        if cert.exponents[i] != tuple(l if u == tau else 0 for u in range(tr)):
            return False
    return (
        _failed_recombination(t.elements, cert.exponents, cert.eta_num, cert.eta_den)
        is None
    )


# ---------------------------------------------------------------------------
# Partitions of positions


@dataclass(frozen=True)
class MPartition:
    """Leading-axis classes M_0..M_t (0-based positions).

    classes[0] holds the zero elements; for tau >= 1, classes[tau] holds the
    positions whose last nonzero exponent sits at axis tau (and is positive).
    """

    classes: tuple[tuple[int, ...], ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def to_json_obj(self) -> dict:
        return {
            "classes": [[i + 1 for i in c] for c in self.classes],
            "multiplicities": list(self.multiplicities),
        }


def m_partition(t: GroupTuple, cert: QBasisCertificate) -> MPartition:
    """Partition positions by leading exponent axis.

    Raises ValueError when some position has a negative leading exponent (the
    classes then fail to cover it) or when the certificate does not match the
    tuple's length.
    """
    if len(cert.exponents) != len(t):
        raise ValueError("certificate does not match tuple length")
    tr = cert.rank
    classes: list[list[int]] = [[] for _ in range(tr + 1)]
    for i, row in enumerate(cert.exponents):
        lead = None
        for tau in range(tr - 1, -1, -1):
            if row[tau]:
                lead = tau
                break
        if lead is None:
            classes[0].append(i)
        elif row[lead] > 0:
            classes[lead + 1].append(i)
        else:
            raise ValueError(
                f"position {i + 1} has negative leading exponent on axis "
                f"{lead + 1}; leading-axis classes do not partition the tuple"
            )
    return MPartition(classes=tuple(tuple(c) for c in classes))


@dataclass(frozen=True)
class SignPartition:
    """Positions split by the sign of their exponent on one axis (0-based)."""

    axis: int  # 1-based, as given by the caller
    plus: tuple[int, ...]
    zero: tuple[int, ...]
    minus: tuple[int, ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.plus), len(self.zero), len(self.minus))

    @property
    def n_tilde(self) -> int:
        return min(len(self.plus), len(self.minus))

    def to_json_obj(self) -> dict:
        return {
            "axis": self.axis,
            "plus": [i + 1 for i in self.plus],
            "zero": [i + 1 for i in self.zero],
            "minus": [i + 1 for i in self.minus],
        }


def sign_partition(t: GroupTuple, cert: QBasisCertificate, axis: int) -> SignPartition:
    """Split positions by sign of the exponent on ``axis`` (1-based)."""
    if not (1 <= axis <= cert.rank):
        raise ValueError(f"axis {axis} out of range 1..{cert.rank}")
    if len(cert.exponents) != len(t):
        raise ValueError("certificate does not match tuple length")
    col = axis - 1
    plus, zero, minus = [], [], []
    for i, row in enumerate(cert.exponents):
        (plus if row[col] > 0 else minus if row[col] < 0 else zero).append(i)
    return SignPartition(
        axis=axis, plus=tuple(plus), zero=tuple(zero), minus=tuple(minus)
    )


# ---------------------------------------------------------------------------
# Adequate basis decision


@dataclass(frozen=True)
class AdequateBasisWitness:
    """t positions whose primitive representatives form a basis of the span.

    multipliers are the signed nonzero integers d_tau with
    element = d_tau * basis_tau (the basis rows are sign-normalized, so the
    multiplier carries the sign).
    """

    indices: tuple[int, ...]
    multipliers: tuple[int, ...]
    basis: tuple[Vector, ...]

    def to_json_obj(self) -> dict:
        return {
            "indices": [i + 1 for i in self.indices],
            "multipliers": list(self.multipliers),
            "basis": [list(r) for r in self.basis],
        }


@dataclass(frozen=True)
class AdequateBasisDecision:
    exists: bool
    witness: AdequateBasisWitness | None
    refutation: tuple[tuple[tuple[int, ...], int], ...] | None

    def to_json_obj(self) -> dict:
        obj: dict = {"exists": self.exists}
        if self.witness is not None:
            obj["witness"] = self.witness.to_json_obj()
        if self.refutation is not None:
            obj["refutation"] = [
                {"indices": [i + 1 for i in subset], "index": idx}
                for subset, idx in self.refutation
            ]
        return obj


def _nonzero_minors(cands, size, out, prefix=(), prev=1):
    """Scan every independent choice of ``size`` more rows from ``cands`` in
    lexicographic order: append (subset, |det|) to ``out`` for each subset of
    |det| >= 2, and return the first subset of |det| 1 as soon as it is met,
    or None when there is none.

    ``cands`` holds (position, row) pairs whose rows have ``size`` entries:
    the coordinate rows still to choose from, reduced by fraction-free
    (Bareiss) elimination against the pivot rows of ``prefix``, whose last
    pivot is ``prev``.  Choosing row x with pivot x[c] = p updates every
    later row y to (p*y - y[c]*x) // prev without column c; the division is
    exact by Sylvester's identity (each entry is a minor of the input).  The
    same identity closes the scan with three rows left to choose: after k
    pivots, the m-by-m determinant of reduced rows is prev**(m-1) times the
    (k+m)-by-(k+m) minor of the input, so for m = 3 the determinant of
    reduced rows x, y, z divided by prev**2 is +-det of the subset,
    whichever columns pivoted.  Each pair's cross product x cross y is taken
    once and dotted with every later z.  A dependent prefix skips all its
    extensions: a row reduced to zero above the tail, a pair with a zero
    cross product in it.  Spans of rank 1 and 2 never reach the tail; at
    the one-entry floor m = 1, so each entry is the minor itself.
    """
    if size == 1:
        for i, (v,) in cands:
            v = abs(v)
            if v > 1:
                out.append((prefix + (i,), v))
            elif v:
                return prefix + (i,)
        return None
    if size == 3:
        pp = prev * prev
        for a, (i, (x0, x1, x2)) in enumerate(cands):
            for b in range(a + 1, len(cands) - 1):
                j, (y0, y1, y2) = cands[b]
                c0 = x1 * y2 - x2 * y1
                c1 = x2 * y0 - x0 * y2
                c2 = x0 * y1 - x1 * y0
                if not (c0 or c1 or c2):
                    continue
                ij = prefix + (i, j)
                for k, (z0, z1, z2) in cands[b + 1 :]:
                    v = abs(c0 * z0 + c1 * z1 + c2 * z2) // pp
                    if v > 1:
                        out.append((ij + (k,), v))
                    elif v:
                        return ij + (k,)
        return None
    for a in range(len(cands) - size + 1):
        i, x = cands[a]
        c = next((k for k, v in enumerate(x) if v), None)
        if c is None:
            continue
        p = x[c]
        rest = []
        for j, y in cands[a + 1 :]:
            f = y[c]
            row = [(p * u - f * w) // prev for u, w in zip(y, x)]
            del row[c]
            rest.append((j, row))
        found = _nonzero_minors(rest, size - 1, out, prefix + (i,), p)
        if found:
            return found
    return None


def adequate_basis_decide(t: GroupTuple) -> AdequateBasisDecision:
    """Does some reordering admit a basis of span(t) with t elements as
    integer multiples of distinct basis members?

    Reduction: any such basis element is parallel to a tuple element and lies
    in the span, so it is the (unique up to sign) primitive representative of
    that element.  It therefore suffices to scan rank-sized subsets of the
    nonzero positions (a zero element is in no independent subset) in
    lexicographic order.  The scan solves each nonzero element once over the
    HNF basis of the span, and its coordinates divided by their gcd are
    those of its representative up to sign, which no |det| sees.  A
    witness's representatives and signed multipliers come from
    ``primitive_representative``.  A subset's index is |det| of its
    representatives' coordinate rows: 0 when the subset is dependent
    (skipped), 1 when the representatives generate the span (the witness),
    and otherwise the sublattice index they generate, recorded in the
    refutation (each entry is >= 2).  The scan (``_nonzero_minors``) is
    depth first: subsets sharing a prefix share its elimination, the last
    three members are chosen in closed form, a dependent prefix skips all
    its extensions, and the first witness ends the scan.

    Raises BudgetExceeded before the scan when the C(#nonzero, rank) subsets
    it may test exceed the budget (ABTUPLE_BUDGET, else 10**9).
    """
    lat = span(t)
    tr = lat.rank
    if tr == 0:
        raise ValueError("rank-0 tuple: adequate basis undefined")
    nonzero = [i for i, e in enumerate(t.elements) if any(e)]
    work = comb(len(nonzero), tr)
    _charge(work, f"adequate-basis scan tests {work} subsets")
    rows = []
    for i in nonzero:
        c = solve_coordinates(lat, t.elements[i])
        g = gcd(*c)
        rows.append((i, [x // g for x in c]))
    refutation = []
    subset = _nonzero_minors(rows, tr, refutation)
    if subset is None:
        return AdequateBasisDecision(
            exists=False, witness=None, refutation=tuple(refutation)
        )
    prims, mults = zip(*(primitive_representative(lat, t.elements[i]) for i in subset))
    return AdequateBasisDecision(
        exists=True,
        witness=AdequateBasisWitness(indices=subset, multipliers=mults, basis=prims),
        refutation=None,
    )


# ---------------------------------------------------------------------------
# Claim auditor


@dataclass(frozen=True)
class AuditClaim:
    name: str
    status: str  # "pass" | "fail" | "skip"
    witness: dict | None = None
    reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "status": self.status,
            "witness": self.witness,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class AuditReport:
    s: int
    q: int
    case: str  # "alpha" | "beta"
    translation: Vector | None  # value subtracted during normalization
    claims: tuple[AuditClaim, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.claims)

    @property
    def failures(self) -> tuple[AuditClaim, ...]:
        return tuple(c for c in self.claims if not c.passed)

    def to_json_obj(self) -> dict:
        return {
            "s": self.s,
            "q": self.q,
            "case": self.case,
            "translation": None if self.translation is None else list(self.translation),
            "claims": [c.to_json_obj() for c in self.claims],
        }


_CLAIM_NAMES = (
    "multiplicity_sums_avoid_s",
    "multiplicity_pattern",
    "zero_axis_property",
    "zero_axis_rank_drop",
    "zero_axis_not_type_a",
)


def _verdict(name: str, ok: bool, witness: dict) -> AuditClaim:
    return AuditClaim(name=name, status="pass" if ok else "fail", witness=witness)


def _skip(name: str, reason: str, witness: dict | None = None) -> AuditClaim:
    return AuditClaim(name=name, status="skip", witness=witness, reason=reason)


def _one_based(indices) -> list[int]:
    return [i + 1 for i in indices]


def audit_claims(t: GroupTuple, s: int) -> AuditReport:
    """Audit the structural claims on a (P_{q,s}) instance containing zero.

    Preconditions (violations raise ValueError): ``classify``'s domain,
    2 <= s < q <= 2s and the zero element occurs in t, and t has property
    (P_{q,s}) — the last is verified here by exhaustive search.  That check
    and every nested property check and ``classify`` call read the budget
    (ABTUPLE_BUDGET, else 10**9).

    The tuple is first normalized so the zero value occurs at least twice:
    when it does not, every element is translated by the first duplicated
    value (one exists, by the equal-pair consequence of the property).  All
    claims refer to the normalized tuple; the report records the translation.
    The claims themselves are ``_audit_holder``'s, which ``run_enumeration``
    calls directly on tuples it has already checked.

    Only ``multiplicity_pattern`` skips at rank != s-1; the other claims run
    at every rank within their case.  Whether the zero-axis claims should
    cover holders below rank s-1 is open.
    """
    refusal = _outside_domain(t, s)
    if refusal is not None:
        raise ValueError(f"audit requires {refusal}")
    q = len(t)
    prop = has_property(t, q, s)
    if not prop.holds:
        raise ValueError(
            f"audit requires property (P_{{{q},{s}}}); it fails at "
            f"window {_one_based(prop.failure_witness[0])}, "
            f"selection {_one_based(prop.failure_witness[1])}"
        )
    return _audit_holder(t, s)


def _nested_checks(sub: GroupTuple, s_inner: int) -> tuple:
    """The zero-axis checks of one subtuple: its (P_{n0,s_inner}) report,
    or None when s_inner is out of range for its n0 elements; its
    ``classify`` result, or None outside classify's domain; and its rank.

    sub holds zero, whose exponents vanish, so only the sizes can put it
    outside classify's domain.  classify reads the subtuple's rank anyway,
    so the rank is read off its result when there is one.
    """
    n0 = len(sub)
    inner = has_property(sub, n0, s_inner) if 1 <= s_inner < n0 else None
    inner_cls = None if _outside_domain(sub, s_inner) else _classify(sub, s_inner)
    sub_rank = rank(sub) if inner_cls is None else inner_cls.rank
    return inner, inner_cls, sub_rank


def _audit_holder(t: GroupTuple, s: int, checks: dict | None = None) -> AuditReport:
    """``audit_claims`` without its precondition checks.

    The caller guarantees 2 <= s < q <= 2s, that zero occurs in t and that t
    has (P_{q,s}); the tuple's own property is not re-checked.  The
    certificate is ``q_basis_certificate`` of the normalized tuple, which
    is t itself when zero occurs twice.  The property checks of the
    zero-axis subtuples, and ``classify``'s check of a subtuple it leaves
    Unclassified, read the budget (ABTUPLE_BUDGET, else 10**9).  Every
    claim is built by ``_verdict`` or ``_skip``, and the claims come in
    ``_CLAIM_NAMES`` order, the zero-axis ones once per negative axis.

    ``checks`` maps (subtuple elements, s_inner) to ``_nested_checks`` of
    that subtuple, and is filled as the audit goes.  Those checks read only
    the subtuple's exact elements, in order, and the sizes, which its
    length and s_inner fix, so a caller that audits many tuples may hand
    every audit one dict and run each distinct subtuple's checks once;
    ``run_enumeration`` does.  Without it the audit starts its own.  A
    check the budget refuses stores nothing.
    """
    if checks is None:
        checks = {}
    q = len(t)
    zero = zero_vector(t.dim)
    translation: Vector | None = None
    nt = t
    if t.elements.count(zero) < 2:
        pair = equal_pair(t)
        if pair is None:  # impossible for a property instance
            raise RuntimeError("property instance without an equal pair")
        translation = t.elements[pair[0]]
        nt = translate(t, translation)

    def report(case, claims):
        return AuditReport(
            s=s, q=q, case=case, translation=translation, claims=tuple(claims)
        )

    sums_name, pattern_name, property_name, rank_name, type_a_name = _CLAIM_NAMES
    # An all-zero tuple has no certificate: one class of size q, no axes.
    cert = q_basis_certificate(nt) if nt.elements.count(zero) < q else None
    tr = cert.rank if cert else 0
    neg_axes = [
        tau for tau in range(tr) if any(row[tau] < 0 for row in cert.exponents)
    ]

    if not neg_axes:
        mults = m_partition(nt, cert).multiplicities if cert else (q,)
        bad_subset = next(
            (
                subset
                for size in range(1, len(mults) + 1)
                for subset in combinations(range(len(mults)), size)
                if sum(mults[u] for u in subset) == s
            ),
            None,
        )
        witness: dict = {"multiplicities": list(mults)}
        if bad_subset is not None:
            witness["subset_axes"] = list(bad_subset)
        claims = [_verdict(sums_name, bad_subset is None, witness)]
        if tr == s - 1:
            pattern_a = mults[0] == s + 1 and all(m == 1 for m in mults[1:])
            pattern_b = s % 2 == 1 and all(m == 2 for m in mults)
            pattern = "a" if pattern_a else "b" if pattern_b else None
            witness = {"multiplicities": list(mults), "pattern": pattern}
            claims.append(_verdict(pattern_name, pattern is not None, witness))
        else:
            claims.append(_skip(pattern_name, f"rank {tr} != s-1 = {s - 1}"))
        for name in _CLAIM_NAMES[2:]:
            claims.append(_skip(name, "no negative exponents"))
        return report("alpha", claims)

    claims = [_skip(name, "negative exponents present") for name in _CLAIM_NAMES[:2]]
    for tau in neg_axes:
        sp = sign_partition(nt, cert, tau + 1)
        n0 = len(sp.zero)
        s_inner = s - sp.n_tilde
        sub = GroupTuple(dim=nt.dim, elements=tuple(nt.elements[i] for i in sp.zero))
        base = {
            "axis": tau + 1,
            "zero_positions": _one_based(sp.zero),
            "counts": {"plus": len(sp.plus), "zero": n0, "minus": len(sp.minus)},
        }

        found = checks.get((sub.elements, s_inner))
        if found is None:
            found = checks[sub.elements, s_inner] = _nested_checks(sub, s_inner)
        inner, inner_cls, sub_rank = found

        if inner is not None:
            witness = dict(base, r=n0, s=s_inner)
            if not inner.holds:
                window, sel = inner.failure_witness
                witness["failure_witness"] = {
                    "window": _one_based(sp.zero[i] for i in window),
                    "selection": _one_based(sp.zero[i] for i in sel),
                }
            claims.append(_verdict(property_name, inner.holds, witness))
        else:
            reason = f"selection size {s_inner} out of range for {n0} zero positions"
            claims.append(_skip(property_name, reason, base))

        witness = dict(base, rank=sub_rank, expected=tr - 1)
        claims.append(_verdict(rank_name, sub_rank == tr - 1, witness))

        if inner_cls is None:
            reason = (
                f"subtuple of {n0} with selection size {s_inner} "
                "outside classifier range"
            )
            claims.append(_skip(type_a_name, reason, base))
        else:
            variant = inner_cls.variant
            witness = dict(base, variant=variant)
            claims.append(_verdict(type_a_name, variant != VARIANT_TYPE_A, witness))

    return report("beta", claims)
