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
classifier searches for such a certificate directly; an Unclassified result is
first-class and, when the tuple also satisfies (P_{q,s}), marks a
counterexample candidate for the classification lemma.

Since both patterns contain a zero entry, the translation constant must occur
among the tuple's values; the candidate scan is therefore finite.  Type A and
type B are mutually exclusive (A forces every value to have multiplicity 2,
B forces multiplicity 1 on all nonzero values), so trying A first is a fixed
cosmetic order, not a semantic choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .lattice import Lattice, Vector, hnf_rows, solve_integer_combination, vec_neg, zero_vector
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


def _match_type_a(tp: GroupTuple, lat: Lattice, s: int):
    """Certificate pieces for the doubled pattern, or None."""
    if s % 2 == 0 or len(tp) != 2 * s:
        return None
    mults = value_multiplicities(tp)
    if len(mults) != s or any(c != 2 for _, c in mults):
        return None
    zero = zero_vector(tp.dim)
    if zero not in (v for v, _ in mults):
        return None
    basis = tuple(v for v, _ in mults if v != zero)
    if hnf_rows(basis, tp.dim) != lat:
        return None
    pattern = canonical_pattern(VARIANT_TYPE_A, s, basis)
    perm = _assign_positions(tp, pattern)
    if perm is None:  # unreachable given the multiplicity check
        return None
    return perm, basis


def _match_type_b(tp: GroupTuple, lat: Lattice, s: int):
    """Certificate pieces for the block-inverse pattern, or None."""
    if len(tp) != 2 * s:
        return None
    mults = value_multiplicities(tp)
    zero = zero_vector(tp.dim)
    z = dict(mults).get(zero, 0)
    k = s + 1 - z
    if not (0 <= k <= s - 1):
        return None
    nonzero = sorted(v for v, c in mults if v != zero)
    if len(nonzero) != s - 1 + k or any(
        c != 1 for v, c in mults if v != zero
    ):
        return None
    for cand in combinations(nonzero, s - 1):
        if hnf_rows(cand, tp.dim) != lat:
            continue
        rest = [v for v in nonzero if v not in cand]
        supports = []
        ok = True
        seen: set[int] = set()
        for w in rest:
            coords = solve_integer_combination(cand, w)
            if coords is None or any(c not in (0, -1) for c in coords):
                ok = False
                break
            sup = {j for j, c in enumerate(coords) if c == -1}
            if not sup or sup & seen:
                ok = False
                break
            seen |= sup
            supports.append(sorted(sup))
        if not ok:
            continue
        # Reorder the basis so each support becomes a consecutive block;
        # unsupported basis indices go last, preserving relative order.
        order: list[int] = []
        breakpoints = []
        for sup in supports:
            order.extend(sup)
            breakpoints.append(len(order))
        order.extend(j for j in range(s - 1) if j not in seen)
        basis = tuple(cand[j] for j in order)
        pattern = canonical_pattern(
            VARIANT_TYPE_B, s, basis, k=k, breakpoints=tuple(breakpoints)
        )
        perm = _assign_positions(tp, pattern)
        if perm is None:  # unreachable: pattern is a rearrangement of tp
            continue
        return perm, basis, k, tuple(breakpoints)
    return None


def classify(t: GroupTuple, s: int, budget: int | None = None) -> Classification:
    """Decide rank-below / type A / type B / Unclassified for the tuple.

    Preconditions (ValueError): 2 <= s < q <= 2s and the zero element occurs
    in t.  Candidate translation constants are the distinct tuple values in
    first-occurrence order; type A is matched before type B.  ``budget`` is
    passed to the property check of an Unclassified result.
    """
    q = len(t)
    if not (2 <= s < q <= 2 * s):
        raise ValueError(f"classify requires 2 <= s < q <= 2s, got s={s}, q={q}")
    if zero_vector(t.dim) not in t.elements:
        raise ValueError("classify requires the zero element to occur in the tuple")
    tr = rank(t)
    if tr < s - 1:
        return Classification(variant=VARIANT_RANK_BELOW, s=s, rank=tr)
    if tr == s - 1 and q == 2 * s:
        lat = span(t)
        candidates = [v for v, _ in value_multiplicities(t)]
        for c in candidates:
            tp = translate(t, c)
            m = _match_type_a(tp, lat, s)
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
            tp = translate(t, c)
            m = _match_type_b(tp, lat, s)
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
    prop = has_property(t, q, s, budget=budget)
    return Classification(
        variant=VARIANT_UNCLASSIFIED,
        s=s,
        rank=tr,
        property_holds=prop.holds,
    )


def verify_classification(t: GroupTuple, c: Classification) -> bool:
    """Pure certificate check; no search.  False on any mismatch.

    Rank-below certificates verify by re-deriving the rank; type A/B
    certificates verify by rebuilding the canonical pattern and comparing
    element-wise against the translated, permuted tuple, plus checking that
    the recorded basis is an integer basis of span(t).  Unclassified results
    certify nothing and never verify.
    """
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
    return hnf_rows(c.basis, t.dim) == span(t)


def rebase_type_b(t: GroupTuple, c: Classification, chosen) -> Classification:
    """Re-express a type-B certificate over the values at ``chosen`` positions.

    ``chosen`` lists s-1 tuple positions (0-based) whose translated values
    must be independent; by the symmetry of the block pattern they then form
    an integer basis of the span and every other nonzero value is a negated
    sum of a block of them.  Returns the certificate over the new basis;
    ValueError when the chosen values are dependent or (defensively) fail to
    generate the span.
    """
    if c.variant != VARIANT_TYPE_B:
        raise ValueError("rebase applies to type-B certificates only")
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

    rest_vals = sorted(
        v
        for v in (e for i, e in enumerate(tp.elements) if i not in chosen)
        if v != zero
    )
    supports = []
    seen: set[int] = set()
    for w in rest_vals:
        coords = solve_integer_combination(vals, w)
        if coords is None or any(x not in (0, -1) for x in coords):
            raise ValueError(
                "remaining value does not reduce to a negated block sum"
            )
        sup = {j for j, x in enumerate(coords) if x == -1}
        if not sup or sup & seen:
            raise ValueError("block supports are not disjoint and nonempty")
        seen |= sup
        supports.append(sorted(sup))
    order: list[int] = []
    breakpoints = []
    for sup in supports:
        order.extend(sup)
        breakpoints.append(len(order))
    order.extend(j for j in range(s - 1) if j not in seen)
    basis = tuple(vals[j] for j in order)
    k = len(rest_vals)
    pattern = canonical_pattern(
        VARIANT_TYPE_B, s, basis, k=k, breakpoints=tuple(breakpoints)
    )
    perm = _assign_positions(tp, pattern)
    if perm is None:
        raise ValueError("pattern does not rearrange the tuple")  # defensive
    return Classification(
        variant=VARIANT_TYPE_B,
        s=s,
        rank=c.rank,
        scaling=c.scaling,
        permutation=perm,
        basis=basis,
        k=k,
        breakpoints=tuple(breakpoints),
    )
