"""Inputs, operations and output checks of the benchmark's three workloads.

Every input of ``wide-window`` and ``certify`` is an item of a fixed
catalogue: item ``i`` is built through ``abtuple.generators`` (or, for the
generic certify tuples, from a seeded grid draw) from a seed derived only
from the workload and ``i``.  The run's ``--seed`` chooses which items a run
uses and their order.  Because an item's output does not depend on
the run seed, ``golden.json`` stores one digest per catalogue item and so
covers every run seed.  ``enumerate`` has no catalogue: its two cells are
fixed, and the seed only picks which worker count runs first.

An operation's timed part is the library calls alone; turning the results
into JSON, digesting them and checking them happens after the clock stops.
Traced functions are looked up on the ``abtuple`` package at call time, so
the wrappers a tracer binds there see the benchmark's own calls.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import abtuple
from abtuple import EnumerationJob, GeneratorSpec, group_tuple, translate

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# enumerate: (s, q, dim, bound) -> (tuples, holders) the report must show.
ENUM_CELLS = {
    (3, 6, 2, 2): (118755, 1931),
    (4, 8, 2, 1): (6435, 1059),
}
# A cell small enough for the benchmark's own tests.
TINY_CELLS = {(2, 4, 1, 2): (35, 13)}

WIDE_S = 8
CERTIFY_HOLDER_S = 5
CERTIFY_GENERIC_S = 6
# Catalogue sizes, and how much of it one run uses.  A run uses most of the
# catalogue, so that runs on different seeds differ little in their input
# mix, and takes at least 100 inputs, so that p90 has ten samples beyond it.
WIDE_ITEMS = 128
WIDE_RUN_ITEMS = 100
CERTIFY_HOLDERS = 256
CERTIFY_GENERICS = 128
CERTIFY_RUN_BLOCKS = 100


def cell_key(cell) -> str:
    s, q, dim, bound = cell
    return f"s{s}q{q}d{dim}b{bound}"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Catalogue items


def _type_b_spec(rng: random.Random, s: int, dim: int, unimodular_bound: int):
    k = rng.randint(0, s - 1)
    breakpoints = tuple(sorted(rng.sample(range(1, s), k)))
    return GeneratorSpec(
        kind="b",
        s=s,
        dim=dim,
        k=k,
        breakpoints=breakpoints,
        seed=rng.randrange(2**32),
        unimodular_bound=unimodular_bound,
        permutation_seed=rng.randrange(2**32),
    )


def wide_item(i: int):
    """Scrambled type-B holder at s=8 (q=16) in dimension 7..9."""
    rng = random.Random(f"wide-window:{i}")
    return abtuple.generate(_type_b_spec(rng, WIDE_S, rng.randint(7, 9), 5))


def holder_item(i: int):
    """Scrambled type-A or type-B holder at s=5 (q=10) in dimension 4..6,
    re-centred on one of its own values so that zero still occurs."""
    rng = random.Random(f"certify-holder:{i}")
    s = CERTIFY_HOLDER_S
    dim = rng.randint(4, 6)
    if rng.random() < 0.5:
        spec = GeneratorSpec(
            kind="a",
            s=s,
            dim=dim,
            seed=rng.randrange(2**32),
            unimodular_bound=10,
            permutation_seed=rng.randrange(2**32),
        )
    else:
        spec = _type_b_spec(rng, s, dim, 10)
    t = abtuple.generate(spec)
    return translate(t, t[rng.randrange(len(t))])


def generic_item(i: int):
    """Random q=12 tuple in Z^5, coordinates in [-9, 9], zero pinned first."""
    rng = random.Random(f"certify-generic:{i}")
    rows = [(0,) * 5] + [
        tuple(rng.randint(-9, 9) for _ in range(5)) for _ in range(11)
    ]
    return group_tuple(rows)


# ---------------------------------------------------------------------------
# Operations.  ``call`` is the timed part; ``outcome`` digests and checks.


@dataclass(frozen=True)
class Item:
    """One input: its catalogue (kind, index) and the generated tuple."""

    kind: str  # "wide" | "holder" | "generic"
    index: int
    tuple: object


def call(item: Item):
    t = item.tuple
    if item.kind == "wide":
        return abtuple.has_property(t, 2 * WIDE_S, WIDE_S)
    if item.kind == "holder":
        s = CERTIFY_HOLDER_S
        cls = abtuple.classify(t, s)
        cls_ok = abtuple.verify_classification(t, cls)
        cert = abtuple.q_basis_certificate(t)
        cert_ok = abtuple.verify_certificate(t, cert)
        adequate = abtuple.adequate_basis_decide(t)
        audit = abtuple.audit_claims(t, s)
        return cls, cls_ok, cert, cert_ok, adequate, audit
    s = CERTIFY_GENERIC_S
    cls = abtuple.classify(t, s)
    cert = abtuple.q_basis_certificate(t)
    cert_ok = abtuple.verify_certificate(t, cert)
    adequate = abtuple.adequate_basis_decide(t)
    return cls, cert, cert_ok, adequate


def outcome(item: Item, result) -> tuple[str, bool]:
    """(digest of the output, whether the output's own checks pass)."""
    if item.kind == "wide":
        return digest(result.to_json_obj()), result.holds
    if item.kind == "holder":
        cls, cls_ok, cert, cert_ok, adequate, audit = result
        out = {
            "classification": cls.to_json_obj(),
            "certificate": cert.to_json_obj(),
            "adequate": adequate.to_json_obj(),
            "audit": audit.to_json_obj(),
        }
        return digest(out), cls_ok and cert_ok and audit.all_pass
    cls, cert, cert_ok, adequate = result
    out = {
        "classification": cls.to_json_obj(),
        "certificate": cert.to_json_obj(),
        "adequate": adequate.to_json_obj(),
    }
    return digest(out), cert_ok


def golden_digest(golden: dict, item: Item) -> str | None:
    table = golden.get(item.kind, [])
    return table[item.index] if item.index < len(table) else None


# ---------------------------------------------------------------------------
# Inputs per run


def build_items(workload: str, seed: int) -> list[Item]:
    """The run's inputs: a seed-chosen part of the catalogue, in seed order.

    certify takes blocks of three, two holders and one generic tuple, with
    the generic tuple's place in each block chosen by the seed, so every
    prefix keeps the 2:1 mix.
    """
    rng = random.Random(seed)
    if workload == "wide-window":
        chosen = rng.sample(range(WIDE_ITEMS), WIDE_RUN_ITEMS)
        return [Item("wide", i, wide_item(i)) for i in chosen]
    if workload == "certify":
        holders = rng.sample(range(CERTIFY_HOLDERS), 2 * CERTIFY_RUN_BLOCKS)
        generics = rng.sample(range(CERTIFY_GENERICS), CERTIFY_RUN_BLOCKS)
        items: list[Item] = []
        for b, g in enumerate(generics):
            block = [
                Item("holder", i, holder_item(i)) for i in holders[2 * b : 2 * b + 2]
            ]
            block.insert(rng.randrange(3), Item("generic", g, generic_item(g)))
            items.extend(block)
        return items
    raise ValueError(f"no catalogue for workload {workload!r}")


def build_jobs(cells, jobs: int) -> list[EnumerationJob]:
    return [
        EnumerationJob(s=s, q=q, dim=dim, bound=bound, jobs=jobs)
        for s, q, dim, bound in cells
    ]


def build_inputs(workload: str, seed: int, cells=ENUM_CELLS):
    """Everything a run needs before its first timed op."""
    if workload == "enumerate":
        return {jobs: build_jobs(cells, jobs) for jobs in (1, 2)}
    return build_items(workload, seed)
