"""Run the benchmark on several seeds and show how much each metric spreads.

    python3 perfbench/steadiness.py --workload certify --seeds 10

For every end-to-end metric (and the extra figures a run prints on its
``detail`` line, such as ``tuples_per_s_jobs2``) it prints the median, the
quartiles and the spread: the distance between the quartiles as a share of
the median, with quartiles from ``statistics.quantiles(values, n=4)``.  A
metric is steady enough when its spread is below its BENCHMARK.json bound,
and comfortably so below a third of it.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: run is not correct: {result}")
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update(
        (k, v) for k, v in detail.items() if isinstance(v, (int, float)) and k not in values
    )
    return values, result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    series: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        values, result = one_run(args.workload, seed, args.seconds, args.trace)
        for name, value in values.items():
            series.setdefault(name, []).append(value)
        print(f"seed {seed}: attempted {result['attempted']} "
              + " ".join(f"{k}={v:.6g}" for k, v in sorted(values.items())), flush=True)

    summary = {}
    print(f"\n{args.workload}: {args.seeds} runs of {args.seconds} s")
    print(f"  {'metric':<26} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, values in sorted(series.items()):
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        summary[name] = {"q1": q1, "median": med, "q3": q3, "spread": spread}
        flag = "" if bound is None else ("ok" if spread < bound / 3 else
                                          "WIDE" if spread > bound else "near")
        print(f"  {name:<26} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
