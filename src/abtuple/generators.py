"""Seeded factories for canonical-form instances and unimodular fuzzing.

``generate`` builds a type-A or type-B tuple from a GeneratorSpec: a seeded
random integer basis (standard basis rows pushed through bounded elementary
transvections), the canonical pattern over that basis, a seeded slot
permutation, and a constant translation.  Everything is deterministic per
seed; a spec with unimodular_bound 0, no permutation seed, and no translation
reproduces the literal canonical patterns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .classify import VARIANT_TYPE_A, VARIANT_TYPE_B, _bad_shape, canonical_pattern
from .lattice import Vector
from .tuples import GroupTuple

_VARIANTS = {"a": VARIANT_TYPE_A, "b": VARIANT_TYPE_B}


def random_unimodular(dim: int, rng: random.Random, bound: int) -> list[Vector]:
    """Random determinant-±1 integer matrix as a list of rows.

    Built from the identity by 3*dim + 2 elementary moves: transvections
    row_i += c*row_j with 1 <= |c| <= bound, row swaps, and row negations.
    bound 0 returns the identity; a negative bound raises ValueError.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    mat = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    if bound == 0 or dim == 1:
        if bound > 0 and dim == 1 and rng.random() < 0.5:
            mat[0][0] = -1
        return [tuple(row) for row in mat]
    for _ in range(3 * dim + 2):
        move = rng.randrange(4)
        i, j = rng.sample(range(dim), 2)
        if move <= 1:
            c = rng.choice([-1, 1]) * rng.randint(1, bound)
            mat[i] = [u + c * v for u, v in zip(mat[i], mat[j])]
        elif move == 2:
            mat[i], mat[j] = mat[j], mat[i]
        else:
            mat[i] = [-u for u in mat[i]]
    return [tuple(row) for row in mat]


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one canonical-form instance.

    kind "a" needs odd s and no k or breakpoints; kind "b" needs k
    breakpoints strictly increasing in {1..s-1}.  dim >= s-1.  The basis is
    the image of the first s-1 standard basis rows under a seeded unimodular
    transform whose transvection coefficients are bounded by
    unimodular_bound (0 = identity; a negative bound is refused).  seed and
    permutation_seed must be >= 0.  translation is added to every element
    after the permutation.
    """

    kind: str
    s: int
    dim: int
    k: int = 0
    breakpoints: tuple[int, ...] = ()
    seed: int = 0
    unimodular_bound: int = 0
    translation: Vector | None = None
    permutation_seed: int | None = None


def _validate(spec: GeneratorSpec) -> None:
    if spec.kind not in _VARIANTS:
        raise ValueError(f"kind must be 'a' or 'b', got {spec.kind!r}")
    if spec.s < 2:
        raise ValueError("s must be at least 2")
    if spec.dim < spec.s - 1:
        raise ValueError(f"dim {spec.dim} below basis size {spec.s - 1}")
    if spec.unimodular_bound < 0:
        raise ValueError("unimodular_bound must be >= 0")
    # random.Random seeds by |n|, so -7 would silently reproduce seed 7.
    if spec.seed < 0:
        raise ValueError("seed must be >= 0")
    if spec.permutation_seed is not None and spec.permutation_seed < 0:
        raise ValueError("permutation_seed must be >= 0")
    refusal = _bad_shape(
        _VARIANTS[spec.kind], spec.s, spec.s - 1, spec.k, spec.breakpoints
    )
    if refusal is not None:
        raise ValueError(refusal)
    if spec.translation is not None and len(spec.translation) != spec.dim:
        raise ValueError("translation dimension mismatch")


def generate(spec: GeneratorSpec) -> GroupTuple:
    """Deterministic instance for the spec; see the module docstring."""
    _validate(spec)
    rng = random.Random(spec.seed)
    transform = random_unimodular(spec.dim, rng, spec.unimodular_bound)
    basis = transform[: spec.s - 1]
    pattern = canonical_pattern(
        _VARIANTS[spec.kind], spec.s, basis, k=spec.k, breakpoints=spec.breakpoints
    )
    order = list(range(len(pattern)))
    if spec.permutation_seed is not None:
        random.Random(spec.permutation_seed).shuffle(order)
    elements = [pattern[j] for j in order]
    if spec.translation is not None:
        elements = [
            tuple(u + v for u, v in zip(e, spec.translation)) for e in elements
        ]
    return GroupTuple(dim=spec.dim, elements=tuple(elements))
