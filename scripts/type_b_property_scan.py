#!/usr/bin/env python3
"""Decide property (P_{2s,s}) on every canonical type-A/B pattern up to --max-s.

The classifier runs one way: a tuple with the property at maximal rank gets
a type-A or type-B certificate.  This script decides the converse, that every
type-A/B instance satisfies (P_{2s,s}), exactly for s = 2..--max-s.
(P_{r,s}) is invariant under injective homomorphisms, permutations and
translations, and every instance is such an image of its canonical pattern
over the standard basis of Z^{s-1}, so the patterns decide the converse for
every instance: 2^{s-1} type-B patterns per s, one per breakpoint set, plus
type A for odd s.  ``tests/test_classify.py::TestConverse`` pins s <= 9.

For each s the script prints the pattern count, how many hold, and the
seconds taken.  A failing pattern is printed with its witness, and the
script then exits 1.

Examples:
    python3 scripts/type_b_property_scan.py
    python3 scripts/type_b_property_scan.py --max-s 10
"""

import argparse
import sys
import time
from itertools import combinations

from abtuple.classify import VARIANT_TYPE_A, VARIANT_TYPE_B, canonical_pattern
from abtuple.tuples import group_tuple, has_property


def patterns(s: int):
    """(label, rows) for every canonical pattern at s over the standard basis."""
    basis = [tuple(int(i == j) for j in range(s - 1)) for i in range(s - 1)]
    for k in range(s):
        for breaks in combinations(range(1, s), k):
            rows = canonical_pattern(VARIANT_TYPE_B, s, basis, k=k, breakpoints=breaks)
            yield f"type B, breakpoints {list(breaks)}", rows
    if s % 2:
        yield "type A", canonical_pattern(VARIANT_TYPE_A, s, basis)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-s", type=int, default=8)
    args = ap.parse_args(argv)
    if args.max_s < 2:
        ap.error("--max-s must be at least 2")

    failures = 0
    print(" s  patterns  hold  seconds")
    for s in range(2, args.max_s + 1):
        start = time.perf_counter()
        count = holds = 0
        for label, rows in patterns(s):
            rep = has_property(group_tuple(rows, dim=s - 1), 2 * s, s)
            count += 1
            if rep.holds:
                holds += 1
            else:
                failures += 1
                witness = rep.to_json_obj()["failure_witness"]
                print(f"s={s} {label} fails (P_{{{2 * s},{s}}}): {witness}",
                      file=sys.stderr)
        print(f"{s:2d} {count:9d} {holds:5d} {time.perf_counter() - start:8.2f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
