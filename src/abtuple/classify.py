"""Classification of rank-(s-1) tuples into the two canonical forms.

For window size q and selection size s with 2 <= s < q <= 2s, a tuple
containing zero either has rank below s-1 (nothing to certify), or — when the
underlying theory applies — is a translate-and-permutation of one of two
patterns over an integer basis b_1..b_{s-1} of its span:

    type A   (s odd, q = 2s):   0, 0, b_1, b_1, ..., b_{s-1}, b_{s-1}
    type B   (q = 2s):          0 x (s+1-k), b_1, ..., b_{s-1},
                                -(b_1+...+b_{a_1}), -(b_{a_1+1}+...+b_{a_2}),
                                ..., -(b_{a_{k-1}+1}+...+b_{a_k})

with 0 <= k <= s-1 and breakpoints 1 <= a_1 < ... < a_k <= s-1.  The
classifier reads such a certificate off the tuple without a search; an
Unclassified result is first-class and, when the tuple also satisfies
(P_{q,s}), marks a counterexample candidate for the classification lemma.

Since both patterns contain a zero entry, the translation constant must occur
among the tuple's values, and ``classify`` reads both shapes off rank(t) and
one table of value multiplicities, which translation does not change.  Type
A is every value occurring twice; because t contains zero, t - c spans
span(t) for every value c of t, so type A is read at t[0].  In type B zero
has multiplicity s+1-k >= 2 and every nonzero value multiplicity 1, so the
constant is the one value that occurs more than once; with none, or several,
the tuple is not type B.  Type A and type B are mutually exclusive (A forces
every value to have multiplicity 2, B forces multiplicity 1 on all nonzero
values), so testing A first is a fixed cosmetic order, not a semantic choice.
Rank s-1 already makes the chosen basis an integer basis of span(t) (see
``classify``), so no lattice is compared there.  Certificates that come from
outside, in ``verify_classification`` and ``rebase_type_b``, are checked
against span(t) with one HNF of their basis, which shows both independence
and generation; ``verify_classification`` first requires the tuple to lie
in ``classify``'s domain, so it accepts no certificate ``classify`` could
not have issued.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import (
    Vector,
    _leading_index,
    _rational_row_basis,
    hnf_rows,
    vec_neg,
    vec_sub,
    zero_vector,
)
from .tuples import (
    GroupTuple,
    has_property,
    rank,
    span,
    translate,
    value_multiplicities,
)

VARIANT_RANK_BELOW = "rank_below"
VARIANT_TYPE_A = "type_a"
VARIANT_TYPE_B = "type_b"
VARIANT_UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class Classification:
    """Outcome of ``classify`` (0-based permutation and positions).

    ``permutation`` maps canonical-pattern slots to tuple positions: slot j of
    the pattern is matched by element ``permutation[j]`` of the tuple after
    translating by ``scaling``.  ``property_holds`` is populated only on
    Unclassified results, where it flags a live counterexample candidate.
    """

    variant: str
    s: int
    rank: int
    scaling: Vector | None = None
    permutation: tuple[int, ...] | None = None
    basis: tuple[Vector, ...] | None = None
    k: int | None = None
    breakpoints: tuple[int, ...] | None = None
    property_holds: bool | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {"variant": self.variant, "s": self.s}
        if self.variant == VARIANT_RANK_BELOW:
            obj["t"] = self.rank
        elif self.variant == VARIANT_UNCLASSIFIED:
            obj["t"] = self.rank
            obj["property_holds"] = self.property_holds
        else:
            obj["scaling"] = list(self.scaling)
            obj["permutation"] = [p + 1 for p in self.permutation]
            obj["basis"] = [list(b) for b in self.basis]
            if self.variant == VARIANT_TYPE_B:
                obj["k"] = self.k
                obj["breakpoints"] = list(self.breakpoints)
        return obj


class CertificateFormatError(ValueError):
    """Raised for a classification certificate document of the wrong shape."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_ints(x) -> bool:
    return isinstance(x, list) and all(map(_is_int, x))


_FIELD_TYPES = {
    "variant": (lambda x: isinstance(x, str), "a string"),
    "s": (_is_int, "an integer"),
    "t": (_is_int, "an integer"),
    "k": (_is_int, "an integer"),
    "property_holds": (lambda x: x is None or isinstance(x, bool), "a boolean"),
    "scaling": (_is_ints, "a list of integers"),
    "permutation": (_is_ints, "a list of integers"),
    "breakpoints": (_is_ints, "a list of integers"),
    "basis": (
        lambda x: isinstance(x, list) and all(map(_is_ints, x)),
        "a list of integer lists",
    ),
}
_REQUIRED = object()


def _field(obj: dict, key: str, default=_REQUIRED):
    if key not in obj:
        if default is _REQUIRED:
            raise CertificateFormatError(f"certificate lacks the {key!r} field")
        return default
    check, kind = _FIELD_TYPES[key]
    if not check(obj[key]):
        raise CertificateFormatError(f"certificate field {key!r} must be {kind}")
    return obj[key]


def classification_from_json_obj(obj: dict) -> Classification:
    """Parse a certificate document.  A non-object document or a missing or
    mistyped field raises CertificateFormatError (a ValueError) naming it."""
    if not isinstance(obj, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    variant = _field(obj, "variant")
    s = _field(obj, "s")
    if variant in (VARIANT_RANK_BELOW, VARIANT_UNCLASSIFIED):
        return Classification(
            variant=variant,
            s=s,
            rank=_field(obj, "t", 0),
            property_holds=_field(obj, "property_holds", None),
        )
    kwargs = dict(
        variant=variant,
        s=s,
        rank=s - 1,
        scaling=tuple(_field(obj, "scaling")),
        permutation=tuple(p - 1 for p in _field(obj, "permutation")),
        basis=tuple(map(tuple, _field(obj, "basis"))),
    )
    if variant == VARIANT_TYPE_B:
        kwargs["k"] = _field(obj, "k")
        kwargs["breakpoints"] = tuple(_field(obj, "breakpoints"))
    return Classification(**kwargs)


def canonical_pattern(
    variant: str, s: int, basis, k: int = 0, breakpoints: tuple[int, ...] = ()
) -> list[Vector]:
    """Materialize the canonical element sequence for a certificate."""
    basis = [tuple(b) for b in basis]
    dim = len(basis[0]) if basis else 1
    zero = zero_vector(dim)
    if variant == VARIANT_TYPE_A:
        out = [zero, zero]
        for b in basis:
            out.extend([b, b])
        return out
    if variant == VARIANT_TYPE_B:
        out = [zero] * (s + 1 - k)
        out.extend(basis)
        prev = 0
        for a in breakpoints:
            block = basis[prev:a]
            total = zero
            for b in block:
                total = tuple(u + v for u, v in zip(total, b))
            out.append(vec_neg(total))
            prev = a
        return out
    raise ValueError(f"no canonical pattern for variant {variant!r}")


def _assign_positions(tp: GroupTuple, pattern) -> tuple[int, ...] | None:
    """Greedy slot filling: each pattern slot takes the smallest unused
    position holding the required value.  None when impossible."""
    remaining: dict[Vector, list[int]] = {}
    for i in reversed(range(len(tp))):
        remaining.setdefault(tp.elements[i], []).append(i)
    perm = []
    for value in pattern:
        stack = remaining.get(value)
        if not stack:
            return None
        perm.append(stack.pop())
    return tuple(perm)


def _block_certificate(tp: GroupTuple, s: int, values):
    """Type-B certificate pieces over the first s-1 independent ``values``.

    One primitive RREF (``_rational_row_basis``) of the matrix whose columns
    are ``values`` picks the basis: its first s-1 pivot columns, i.e. the
    greedy independent values in the given order.  Row tau, with pivot p_tau,
    holds p_tau times coordinate tau over the basis, so every other value
    must read 0 or -p_tau in each row (coordinates 0 or -1), and the supports
    of the -1 coordinates must be nonempty and disjoint.  The basis is
    reordered so each support becomes a consecutive block, in the order of
    the remaining values; basis members outside every block go last, keeping
    their relative order.  Returns (permutation, basis, k, breakpoints) with
    k the number of remaining values; ValueError names the first failed
    condition.

    No lattice is compared here.  When the values have rank s-1, the basis
    is independent, and every remaining value that passes reads 0 or -1 over
    it, an integer combination; so the basis is an integer basis of the span
    of the values.  ``classify`` passes values of rank s-1 that span
    span(t); ``rebase_type_b`` compares its chosen values with span(t)
    itself.  ``_assign_positions`` matches the whole pattern, negated block
    sums included, against the tuple's own values before anything is
    returned.
    """
    reduced = _rational_row_basis(zip(*values))
    pivots = [_leading_index(row) for row in reduced]
    chosen = pivots[: s - 1]
    basis = [values[j] for j in chosen]
    order: list[int] = []
    breakpoints = []
    for j in range(len(values)):
        if j in chosen:
            continue
        if any(row[j] not in (0, -row[p]) for row, p in zip(reduced, pivots)):
            raise ValueError("remaining value does not reduce to a negated block sum")
        sup = [i for i, row in enumerate(reduced) if row[j]]
        if not sup or any(i in order for i in sup):
            raise ValueError("block supports are not disjoint and nonempty")
        order.extend(sup)
        breakpoints.append(len(order))
    order.extend(i for i in range(s - 1) if i not in order)
    basis = tuple(basis[i] for i in order)
    k = len(breakpoints)
    pattern = canonical_pattern(
        VARIANT_TYPE_B, s, basis, k=k, breakpoints=tuple(breakpoints)
    )
    perm = _assign_positions(tp, pattern)
    if perm is None:
        raise ValueError("pattern does not rearrange the tuple")
    return perm, basis, k, tuple(breakpoints)


def _outside_domain(t: GroupTuple, s: int) -> str | None:
    """Why ``classify`` refuses (t, s), or None when it accepts them."""
    q = len(t)
    if not (2 <= s < q <= 2 * s):
        return f"classify requires 2 <= s < q <= 2s, got s={s}, q={q}"
    if zero_vector(t.dim) not in t.elements:
        return "classify requires the zero element to occur in the tuple"
    return None


def classify(t: GroupTuple, s: int) -> Classification:
    """Decide rank-below / type A / type B / Unclassified for the tuple.

    Preconditions (ValueError): 2 <= s < q <= 2s and the zero element occurs
    in t.  Both shapes are read off rank(t) and one value-multiplicity
    table, for q = 2s and rank s-1 only:

    - type A when s is odd and all s values occur twice: translated by t[0],
      the basis is the nonzero values in first-occurrence order;
    - type B when exactly one value c repeats, at most s+1 times: translated
      by c, ``_block_certificate`` picks the basis from the sorted nonzero
      values, or refuses and the tuple is Unclassified.  Each block together
      with its negated sum is a zero-sum circuit and the basis members
      outside every block are coloops, so on a type-B tuple any s-1
      independent nonzero values form an integer basis over which every
      other nonzero value is a negated block sum.  The greedy basis of the
      sorted nonzero values is therefore the lexicographically first subset
      that certifies, and when it does not certify no subset does.

    No lattice is compared.  t holds zero, so t - c spans span(t) for every
    value c of t, a group of rank s-1.  In type A the s-1 distinct nonzero
    values of t - t[0] generate it, and s-1 generators of a free group of
    rank s-1 are a basis of it.  In type B the basis is independent and
    every remaining value reads 0 or -1 over it, so it generates span(t).

    The property check of an Unclassified result reads the budget
    (ABTUPLE_BUDGET, else 10**9).
    """
    refusal = _outside_domain(t, s)
    if refusal is not None:
        raise ValueError(refusal)
    q = len(t)
    tr = rank(t)
    if tr < s - 1:
        return Classification(variant=VARIANT_RANK_BELOW, s=s, rank=tr)
    if tr == s - 1 and q == 2 * s:
        mults = value_multiplicities(t)
        if s % 2 and all(n == 2 for _, n in mults):
            c = t.elements[0]
            basis = tuple(vec_sub(v, c) for v, _ in mults[1:])
            pattern = canonical_pattern(VARIANT_TYPE_A, s, basis)
            return Classification(
                variant=VARIANT_TYPE_A,
                s=s,
                rank=tr,
                scaling=c,
                permutation=_assign_positions(translate(t, c), pattern),
                basis=basis,
            )
        repeated = [(v, n) for v, n in mults if n > 1]
        if len(repeated) == 1 and repeated[0][1] <= s + 1:
            c = repeated[0][0]
            tp = translate(t, c)
            try:
                perm, basis, k, breaks = _block_certificate(
                    tp, s, sorted(v for v in tp.elements if any(v))
                )
            except ValueError:
                pass
            else:
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
    prop = has_property(t, q, s)
    return Classification(
        variant=VARIANT_UNCLASSIFIED,
        s=s,
        rank=tr,
        property_holds=prop.holds,
    )


def verify_classification(t: GroupTuple, c: Classification) -> bool:
    """Pure certificate check; no search.  False on any mismatch.

    A certificate verifies only inside ``classify``'s domain: 2 <= s < q <=
    2s and the zero element occurs in t.  Rank-below certificates verify by
    re-deriving the rank; type A/B certificates verify by rebuilding the
    canonical pattern and comparing element-wise against the translated,
    permuted tuple, plus checking that the recorded basis is an integer
    basis of span(t): one HNF of the basis must have rank s-1 (the basis is
    independent) and equal span(t).  Unclassified results certify nothing
    and never verify.
    """
    if _outside_domain(t, c.s) is not None:
        return False
    q = len(t)
    if c.variant == VARIANT_RANK_BELOW:
        return rank(t) == c.rank and c.rank < c.s - 1
    if c.variant == VARIANT_UNCLASSIFIED:
        return False
    if c.variant not in (VARIANT_TYPE_A, VARIANT_TYPE_B):
        return False
    s = c.s
    if q != 2 * s:
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
        k = c.k
        breaks = c.breakpoints
        if k is None or breaks is None or len(breaks) != k:
            return False
        if k and not (
            all(1 <= a <= s - 1 for a in breaks)
            and all(a < b for a, b in zip(breaks, breaks[1:]))
        ):
            return False
        pattern = canonical_pattern(VARIANT_TYPE_B, s, c.basis, k=k, breakpoints=breaks)
    tp = translate(t, c.scaling)
    if any(tp.elements[p] != value for p, value in zip(c.permutation, pattern)):
        return False
    lat = hnf_rows(c.basis, t.dim)
    return lat.rank == s - 1 and lat == span(t)


def rebase_type_b(t: GroupTuple, c: Classification, chosen) -> Classification:
    """Re-express a type-B certificate over the values at ``chosen`` positions.

    ``chosen`` lists s-1 tuple positions (0-based) whose translated values
    must be independent; by the symmetry of the block pattern they then form
    an integer basis of the span and every other nonzero value is a negated
    sum of a block of them.  Returns the certificate over the new basis;
    ValueError when a position is not an integer in 0..q-1, when the chosen
    values are dependent, or when (defensively) they fail to generate the
    span or the rest of the tuple fails the block pattern.  One HNF of the
    chosen values decides both independence and generation.
    """
    if c.variant != VARIANT_TYPE_B:
        raise ValueError("rebase applies to type-B certificates only")
    s = c.s
    chosen = tuple(chosen)
    for p in chosen:
        if not _is_int(p) or not 0 <= p < len(t):
            raise ValueError(f"position {p!r} is not an integer in 0..{len(t) - 1}")
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
    lat = hnf_rows(vals, t.dim)
    if lat.rank < s - 1:
        raise ValueError("chosen values are dependent")
    if lat != span(t):
        raise ValueError("chosen values do not form an integer basis of the span")
    rest = sorted(
        v for i, v in enumerate(tp.elements) if i not in chosen and v != zero
    )
    perm, basis, k, breakpoints = _block_certificate(tp, s, vals + rest)
    return Classification(
        variant=VARIANT_TYPE_B,
        s=s,
        rank=c.rank,
        scaling=c.scaling,
        permutation=perm,
        basis=basis,
        k=k,
        breakpoints=breakpoints,
    )
