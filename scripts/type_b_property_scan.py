#!/usr/bin/env python3
"""Measure how often generated type-B instances satisfy property (P_{2s,s}).

The classifier runs one way: a tuple with the property at maximal rank gets
a type-A or type-B certificate.  The converse, that every type-A/B instance
satisfies (P_{2s,s}), is settled for s <= 8 by
``tests/test_classify.py::TestConverse``: (P_{r,s}) is invariant under
injective homomorphisms, permutations and translations, every instance is
such an image of its canonical pattern, and the test checks all 257
patterns.  This script stays a sampled check on scrambled instances: it
draws generated type-B tuples across s, k, and breakpoint choices, checks
the property exhaustively per instance, and tallies the outcomes.  Any
instance that fails the property is printed with its generator parameters
and the failing window/selection witness so it can be replayed.

Examples:
    python3 scripts/type_b_property_scan.py
    python3 scripts/type_b_property_scan.py --s 2 3 4 --per-config 50 --seed 7
"""

import argparse
import random
import sys
from dataclasses import dataclass
from itertools import combinations

from abtuple.generators import GeneratorSpec, generate, spec_to_json_obj
from abtuple.tuples import has_property


@dataclass(frozen=True)
class ScanConfig:
    s_values: tuple[int, ...] = (2, 3, 4)
    per_config: int = 25
    seed: int = 20260823
    unimodular_bound: int = 5

    def breakpoint_choices(self, s: int):
        for k in range(0, s):
            for breaks in combinations(range(1, s), k):
                yield k, breaks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--s", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--per-config", type=int, default=25)
    ap.add_argument("--seed", type=int, default=20260823)
    ap.add_argument("--unimodular-bound", type=int, default=5)
    args = ap.parse_args(argv)

    cfg = ScanConfig(
        s_values=tuple(args.s),
        per_config=args.per_config,
        seed=args.seed,
        unimodular_bound=args.unimodular_bound,
    )

    rng = random.Random(cfg.seed)
    total = holds = 0
    failures = []
    for s in cfg.s_values:
        for k, breaks in cfg.breakpoint_choices(s):
            config_holds = 0
            for _ in range(cfg.per_config):
                spec = GeneratorSpec(
                    kind="b",
                    s=s,
                    dim=s - 1,
                    k=k,
                    breakpoints=breaks,
                    seed=rng.randrange(10**9),
                    unimodular_bound=cfg.unimodular_bound,
                )
                t = generate(spec)
                rep = has_property(t, 2 * s, s)
                total += 1
                if rep.holds:
                    holds += 1
                    config_holds += 1
                else:
                    failures.append((spec, rep))
            print(
                f"s={s} k={k} breakpoints={list(breaks)}: "
                f"{config_holds}/{cfg.per_config} hold (P_{{{2 * s},{s}}})"
            )

    print(f"\ntotal: {holds}/{total} type-B instances satisfy the property")
    if failures:
        print(f"{len(failures)} counterexample candidates:", file=sys.stderr)
        for spec, rep in failures:
            print(f"  spec={spec_to_json_obj(spec)}", file=sys.stderr)
            print(f"  witness={rep.to_json_obj()['failure_witness']}",
                  file=sys.stderr)
    else:
        print("no counterexample found in this sample")
    return 0


if __name__ == "__main__":
    sys.exit(main())
