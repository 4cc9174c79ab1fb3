"""Write perfbench/golden.json: the output digest of every catalogue item and
of every enumeration cell the benchmark and its tests run.

    python3 perfbench/make_golden.py

Run it only when a change to the library is meant to change outputs.  It
refuses to record an output that fails its own checks (a property that does
not hold on a holder, a certificate or audit that does not verify) or an
enumeration report whose counts differ from the ones the workload expects.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import abtuple  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    golden: dict = {"enumerate": {}}
    for cell, expected in {**workloads.ENUM_CELLS, **workloads.TINY_CELLS}.items():
        (job,) = workloads.build_jobs([cell], 1)
        report = abtuple.run_enumeration(job)
        if (report["tuples"], report["with_property"]) != expected:
            raise SystemExit(f"cell {cell}: counts {report['tuples']}, "
                             f"{report['with_property']} differ from {expected}")
        golden["enumerate"][workloads.cell_key(cell)] = workloads.digest(report)
        print("cell", cell, "done", flush=True)
    catalogue = (
        ("wide", workloads.WIDE_ITEMS, workloads.wide_item),
        ("holder", workloads.CERTIFY_HOLDERS, workloads.holder_item),
        ("generic", workloads.CERTIFY_GENERICS, workloads.generic_item),
    )
    for kind, size, build in catalogue:
        digests = []
        for i in range(size):
            item = workloads.Item(kind, i, build(i))
            got, ok = workloads.outcome(item, workloads.call(item))
            if not ok:
                raise SystemExit(f"{kind} item {i}: output fails its own check")
            digests.append(got)
        golden[kind] = digests
        print(kind, size, "done", flush=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
