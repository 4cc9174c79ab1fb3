"""Exact integer lattice algebra on row vectors.

Everything here is arbitrary-precision: vectors are tuples of Python ints,
lattices are canonical Hermite-normal-form (HNF) bases of integer row spans.
The canonical form makes lattice equality a plain tuple comparison, which the
rest of the package leans on (basis checks, span stability, fuzzing).

Conventions:
  * row-style HNF: pivot entries positive, entries above each pivot reduced
    into [0, pivot), pivot columns strictly increasing;
  * zero rows and duplicate rows are accepted silently by ``hnf_rows``;
  * ``primitive_representative`` normalizes the primitive vector so its first
    nonzero coordinate is positive, so the cofactor ``d`` carries the sign.

One elimination per question.  ``hnf_rows`` answers only integer-lattice
questions: the span basis ``adequate_basis_decide`` writes coordinates over,
and whether ``rebase_type_b``'s chosen values are an integer basis of the
span.  Rational questions (rank, independence, row spaces over Q,
coordinates over a greedy basis) go through ``_rational_row_basis``: the
reduced row echelon form with each row scaled to coprime integers and a
positive pivot, as many rows as the rank.  It serves
``solve_rational_combination`` here, ``tuples.rank``, ``classify``'s
shapes, which read t's rank off it, the certificates and their checks, and
``exhaustive``'s class key, which also gives the class its rank.  Beside it
sits the one integer re-check of its answers, ``_failed_recombination``:
every element must equal its recombination from generators over a common
denominator, in integers, each coordinate one ``sum(map(mul, ...))`` with a
scaled generator column.  It serves ``solve_rational_combination``, and
``structure``'s ``q_basis_certificate`` and ``verify_certificate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

Vector = tuple[int, ...]


def zero_vector(dim: int) -> Vector:
    return (0,) * dim


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


@dataclass(frozen=True)
class Lattice:
    """Integer lattice given by its canonical HNF row basis.

    Two ``Lattice`` values are equal iff they describe the same subgroup of
    Z^dim, because the HNF basis of a row span is unique.
    """

    dim: int
    basis: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple[int, ...]:
        return tuple(_leading_index(row) for row in self.basis)


def _leading_index(row: Vector) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    raise ValueError("zero row has no pivot")


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_rows(rows, dim: int) -> Lattice:
    """Canonical HNF lattice of the integer row span of ``rows``.

    The result does not depend on the order of the rows nor on any unimodular
    recombination of them; zero rows are ignored.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    mat: list[list[int]] = []
    for r in rows:
        if len(r) != dim:
            raise ValueError(f"row of length {len(r)} in dimension-{dim} lattice")
        if any(r):
            mat.append(list(r))

    nrows = len(mat)
    top = 0
    pivots: list[int] = []
    for col in range(dim):
        sel = None
        for i in range(top, nrows):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[top], mat[sel] = mat[sel], mat[top]
        for i in range(top + 1, nrows):
            a, b = mat[top][col], mat[i][col]
            if b == 0:
                continue
            g, x, y = _xgcd(a, b)
            au, bu = a // g, b // g
            combined = [x * u + y * v for u, v in zip(mat[top], mat[i])]
            cleared = [-bu * u + au * v for u, v in zip(mat[top], mat[i])]
            mat[top], mat[i] = combined, cleared
        if mat[top][col] < 0:
            mat[top] = [-u for u in mat[top]]
        pivots.append(col)
        top += 1

    # Reduce entries above each pivot into [0, pivot).
    for j in range(top):
        p = pivots[j]
        pv = mat[j][p]
        for i in range(j):
            c = mat[i][p] // pv
            if c:
                mat[i] = [u - c * v for u, v in zip(mat[i], mat[j])]

    return Lattice(dim=dim, basis=tuple(tuple(row) for row in mat[:top]))


def _rational_row_basis(rows) -> tuple[Vector, ...]:
    """Canonical basis of the rational row span of ``rows``: the reduced row
    echelon form, each row scaled to coprime integers with a positive pivot,
    rows in pivot order.  Two row sets span the same subspace of Q^n iff
    they have the same result; zero rows are ignored.

    Fraction-free Gauss-Jordan, one row at a time: each new row is cleared
    at the kept rows' pivots, and its own pivot is cleared from the kept
    rows.  Leading entries are never disturbed, so each row's pivot is its
    first nonzero entry.
    """
    basis = {}  # pivot column -> row
    for r in rows:
        for p, b in basis.items():
            f = r[p]
            if f:
                r = [b[p] * x - f * y for x, y in zip(r, b)]
        for p, f in enumerate(r):
            if f:
                break
        else:
            continue
        g = gcd(*r) if f > 0 else -gcd(*r)
        if g != 1:
            r = [x // g for x in r]
            f = r[p]
        for c, b in basis.items():
            h = b[p]
            if h:
                b = [f * x - h * y for x, y in zip(b, r)]
                g = gcd(*b)
                basis[c] = [x // g for x in b] if g != 1 else b
        basis[p] = r
    return tuple(tuple(basis[p]) for p in sorted(basis))


def _failed_recombination(elements, exponents, gens, dens) -> int | None:
    """First position j failing L a_j == sum_tau l(j, tau) (L / d_tau) g_tau
    in integers, L = lcm(d_tau), or None.  ``elements`` are the a_j,
    ``exponents`` their coefficient rows l(j, .), and the rational
    generators are g_tau / d_tau, ``gens`` over ``dens``."""
    big = lcm(*dens)
    base = [[x * (big // d) for x in g] for g, d in zip(gens, dens)]
    cols = [[b[c] for b in base] for c in range(len(elements[0]))]
    for j, (e, row) in enumerate(zip(elements, exponents)):
        for x, col in zip(e, cols):
            if big * x != sum(map(mul, row, col)):
                return j
    return None


def full_lattice(dim: int) -> Lattice:
    """Z^dim with its standard basis."""
    rows = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    return Lattice(dim=dim, basis=rows)


def solve_coordinates(lat: Lattice, v: Vector) -> tuple[int, ...] | None:
    """Integer coordinates of ``v`` in ``lat``'s basis, or None if v is outside.

    The solution is unique because the HNF rows are independent.
    """
    if len(v) != lat.dim:
        raise ValueError("vector dimension does not match lattice dimension")
    w = list(v)
    coords = []
    for row in lat.basis:
        p = _leading_index(row)
        c, rem = divmod(w[p], row[p])
        if rem:
            return None
        coords.append(c)
        if c:
            w = [u - c * x for u, x in zip(w, row)]
    if any(w):
        return None
    return tuple(coords)


def contains(lat: Lattice, v: Vector) -> bool:
    return solve_coordinates(lat, v) is not None


def det_bareiss(mat) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    n = len(mat)
    if n == 0:
        return 1
    m = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sublattice_index(sub: Lattice, lat: Lattice) -> int | None:
    """Group index [lat : sub] for nested lattices, None when it is infinite.

    ``sub`` must be contained in ``lat``; the index is the absolute value of
    the determinant of sub's basis written in lat's coordinates.  A rank
    deficit makes the quotient infinite, reported as None.
    """
    if sub.dim != lat.dim:
        raise ValueError("dimension mismatch between lattices")
    coord_rows = []
    for row in sub.basis:
        c = solve_coordinates(lat, row)
        if c is None:
            raise ValueError("sublattice is not contained in the ambient lattice")
        coord_rows.append(c)
    if sub.rank < lat.rank:
        return None
    return abs(det_bareiss(coord_rows))


def primitive_representative(lat: Lattice, v: Vector) -> tuple[Vector, int]:
    """The primitive element of ``lat`` parallel to ``v``, with its cofactor.

    Returns (p, d) with v = d * p, p in lat, and no integer e > 1 dividing p
    inside lat.  p's first nonzero coordinate is positive; d carries the sign
    (negative exactly when v's first nonzero coordinate is negative).  p is
    v over +-g, g the gcd of v's coordinates over ``lat``'s basis.
    """
    if is_zero(v):
        raise ValueError("zero vector has no primitive representative")
    coords = solve_coordinates(lat, v)
    if coords is None:
        raise ValueError("vector does not lie in the lattice")
    g = gcd(*coords)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v), g


def solve_rational_combination(rows, target: Vector) -> tuple[Fraction, ...] | None:
    """Rational coefficients x with sum(x_i * rows_i) == target, or None.

    One primitive RREF (``_rational_row_basis``) of the matrix whose columns
    are ``rows`` and then ``target``: the target is outside the span iff its
    column k pivots, and otherwise the row r pivoting at column c gives
    x_c = r[k] / r[c].  Free coefficients (when the rows are dependent) are
    set to zero.  The recombination is verified exactly, in integers, before
    returning; a failure raises RuntimeError.  A row whose length differs
    from the target's raises ValueError.
    """
    from fractions import Fraction  # imported here to keep package import light

    for row in rows:
        if len(row) != len(target):
            raise ValueError(
                f"row of length {len(row)} for a target of length {len(target)}"
            )
    k = len(rows)
    reduced = _rational_row_basis(zip(*rows, target))
    pivots = [_leading_index(r) for r in reduced]
    if pivots and pivots[-1] == k:
        return None
    if _failed_recombination(
        [target],
        [[r[k] for r in reduced]],
        [rows[c] for c in pivots],
        [r[c] for r, c in zip(reduced, pivots)],
    ) is not None:
        raise RuntimeError("target fails its integer recombination")
    x = [Fraction(0)] * k
    for r, c in zip(reduced, pivots):
        x[c] = Fraction(r[k], r[c])
    return tuple(x)
