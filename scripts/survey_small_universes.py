#!/usr/bin/env python3
"""Survey exhaustive enumeration over a grid of small configurations.

For each (s, q, dim, bound) cell the script runs the full canonical-universe
enumeration and prints one table row: universe size, number of tuples with
property (P_{q,s}), rank histogram, classification variant counts, and whether
any invariant-violation lists are non-empty.

Examples:
    python3 scripts/survey_small_universes.py
    python3 scripts/survey_small_universes.py --s 2 --q 3 4 --dim 1 2 --bound 2
    ABTUPLE_BUDGET=2000000000 python3 scripts/survey_small_universes.py --jobs 4
"""

import argparse
import sys
import time

from abtuple.exhaustive import EnumerationJob, run_enumeration, universe_size
from abtuple.tuples import BudgetExceeded


def fmt_hist(hist: dict) -> str:
    return ",".join(f"{k}:{v}" for k, v in sorted(hist.items())) or "-"


def fmt_universe(job: EnumerationJob) -> str:
    """The universe size, or "-" when q is below 1 or dim or bound is
    negative, where ``universe_size`` is undefined.  ``run_enumeration``
    validates each cell either way: a window below s+1 is refused although
    its universe, which s plays no part in, has a size."""
    if job.q < 1 or min(job.dim, job.bound) < 0:
        return "-"
    return str(universe_size(job))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--s", type=int, nargs="+", default=[2, 3])
    ap.add_argument(
        "--q", type=int, nargs="*", default=[],
        help="window lengths; default s+1..2s for each s",
    )
    ap.add_argument("--dim", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--bound", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    header = (
        f"{'s':>2} {'q':>2} {'dim':>3} {'B':>2} {'universe':>9} "
        f"{'holders':>7} {'ranks':>14} {'variants':>28} {'clean':>5} {'sec':>6}"
    )
    print(header)
    print("-" * len(header))
    dirty = 0
    cells = (
        EnumerationJob(s=s, q=q, dim=dim, bound=bound, jobs=args.jobs)
        for s in args.s
        for q in args.q or range(s + 1, 2 * s + 1)
        for dim in args.dim
        for bound in args.bound
    )
    for job in cells:
        size = fmt_universe(job)
        start = time.perf_counter()
        try:
            rep = run_enumeration(job)
        except (BudgetExceeded, ValueError) as exc:
            print(
                f"{job.s:>2} {job.q:>2} {job.dim:>3} {job.bound:>2} "
                f"{size:>9} skipped: {exc}"
            )
            continue
        elapsed = time.perf_counter() - start
        clean = rep["ok"]
        dirty += 0 if clean else 1
        print(
            f"{job.s:>2} {job.q:>2} {job.dim:>3} {job.bound:>2} {size:>9} "
            f"{rep['with_property']:>7} {fmt_hist(rep['ranks']):>14} "
            f"{fmt_hist(rep['variants']):>28} {str(clean):>5} {elapsed:>6.2f}"
        )
        if not clean:
            for key in ("equal_pair_missing", "unclassified", "audit_failures"):
                for item in rep[key]:
                    print(f"    {key}: {item}", file=sys.stderr)
    return 1 if dirty else 0


if __name__ == "__main__":
    sys.exit(main())
