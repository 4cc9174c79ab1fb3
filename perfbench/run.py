"""The abtuple benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):

  enumerate    ``run_enumeration`` on the cells s=3 q=6 dim=2 bound=2 and
               s=4 q=8 dim=2 bound=1, each at 1 and at 2 worker processes.
               An op is one cell run.
  wide-window  ``has_property(t, 16, 8)`` on seeded type-B holders at s=8.
  certify      the per-tuple certificate pipeline on a 2:1 mix of s=5
               holders and generic q=12 tuples in Z^5.

All workloads are closed loops in one process: the next op starts when the
previous one returns.  With ``--trace 0`` the run measures for ``--seconds``
seconds (enumerate: one round of its four cell runs, then further jobs=1
rounds while they fit) and reports the end-to-end metrics.  With ``--trace 1`` it runs a
fixed number of ops twice, once plain and once under ``spans.Tracer``, and
reports the per-layer metrics.  Every output is checked against
``golden.json``; an op that raises or whose output differs counts as failed.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

WORKLOADS = ("enumerate", "wide-window", "certify")
# Fresh interpreters started per measurement of set-up or CLI start-up.
PROBES = 5
# Ops per traced pass, per second of --seconds: about half the run each for
# the plain and the traced pass of the same ops.
TRACED_OPS_PER_S = {"wide-window": 2, "certify": 6}

SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build_inputs(sys.argv[3], int(sys.argv[4]))"
)
CLI_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import abtuple.cli; abtuple.cli.build_parser(); print(time.perf_counter() - t0)"
)


def percentile(values, p: int) -> float:
    if len(values) <= 1:
        return values[0] if values else 0.0  # no op succeeded
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class SetupProbes:
    """Wall times of fresh interpreters that import abtuple, build the run's
    inputs and exit: the set-up a user pays before the first op.

    The probes are spread evenly over the measured part of the run, between
    ops, so that their median reflects the run as a whole rather than the
    host's state in its first second.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [
            sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), workload, str(seed)
        ]
        self.every = seconds / PROBES
        self.times: list[float] = []

    def due(self, elapsed: float) -> None:
        while len(self.times) < PROBES and elapsed >= len(self.times) * self.every:
            start = time.perf_counter()
            subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL)
            self.times.append(time.perf_counter() - start)

    def finish(self) -> list[float]:
        self.due(float("inf"))
        return self.times


def measure_cli() -> tuple[list[float], list[float], int]:
    """Fresh-interpreter ``import abtuple.cli`` + ``build_parser()`` times,
    and walls of one-shot ``abtuple classify`` processes; also the number of
    one-shot runs whose output was wrong."""
    import workloads

    import_s = []
    for _ in range(PROBES):
        out = subprocess.run(
            [sys.executable, "-c", CLI_IMPORT_PROBE, str(SRC)],
            check=True,
            capture_output=True,
            text=True,
        )
        import_s.append(float(out.stdout))
    item = workloads.holder_item(0)
    text = json.dumps({"dim": item.dim, "elements": [list(e) for e in item.elements]})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "abtuple.cli", "classify", "--s", "5", "-"]
    oneshot_ms = []
    wrong = 0
    for _ in range(PROBES):
        start = time.perf_counter()
        out = subprocess.run(cmd, input=text, capture_output=True, text=True, env=env)
        oneshot_ms.append((time.perf_counter() - start) * 1000.0)
        if out.returncode != 0 or json.loads(out.stdout).get("variant") not in (
            "type_a",
            "type_b",
        ):
            wrong += 1
    return import_s, oneshot_ms, wrong


class Ops:
    """Closed-loop op runner that checks every output against the goldens."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def _fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def item(self, item) -> float:
        """Run one catalogue item; return its latency in seconds."""
        import workloads

        self.attempted += 1
        start = time.perf_counter()
        try:
            result = workloads.call(item)
        except Exception:  # a raising op (BudgetExceeded too) is a failed op
            latency = time.perf_counter() - start
            traceback.print_exc()
            self._fail(f"{item.kind} item {item.index} raised")
            return latency
        latency = time.perf_counter() - start
        got, ok = workloads.outcome(item, result)
        if not ok:
            self._fail(f"{item.kind} item {item.index}: output fails its own check")
        elif got != workloads.golden_digest(self.golden, item):
            self._fail(f"{item.kind} item {item.index}: digest {got} is not golden")
        return latency

    def cell(self, job, expected, reference: dict):
        """Run one enumeration cell; return (wall seconds, tuples) or None.

        ``reference`` maps cell keys to the report bytes of the first run of
        that cell in this process; every later run must match them byte for
        byte, whatever its worker count.
        """
        import abtuple
        import workloads

        self.attempted += 1
        cell = (job.s, job.q, job.dim, job.bound)
        key = workloads.cell_key(cell)
        start = time.perf_counter()
        try:
            report = abtuple.run_enumeration(job)
        except Exception:
            traceback.print_exc()
            self._fail(f"cell {key} jobs={job.jobs} raised")
            return None
        wall = time.perf_counter() - start
        text = json.dumps(report, sort_keys=True)
        if (report["tuples"], report["with_property"]) != expected[cell]:
            self._fail(f"cell {key} jobs={job.jobs}: counts differ")
        elif workloads.digest(report) != self.golden["enumerate"].get(key):
            self._fail(f"cell {key} jobs={job.jobs}: digest is not golden")
        elif reference.setdefault(key, text) != text:
            self._fail(f"cell {key} jobs={job.jobs}: report bytes differ")
        return wall, report["tuples"]


def _result(ops: Ops, metrics: dict, detail: dict) -> dict:
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<52} {value:>16.6g} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def run_plain(workload, seed, seconds, golden, cells) -> dict:
    import workloads

    inputs = workloads.build_inputs(workload, seed, cells)
    probes = SetupProbes(workload, seed, seconds)
    ops = Ops(golden)
    if workload == "enumerate":
        sides = [1, 2]
        random.Random(seed).shuffle(sides)
        walls = {1: 0.0, 2: 0.0}
        tuples = {1: 0, 2: 0}
        repeats: dict = {}
        reference: dict = {}
        start = time.perf_counter()
        last_round = 0.0
        # The first round runs both worker counts, to check that their reports
        # agree.  Later rounds run jobs=1 alone: the jobs=2 cell runs spread
        # too widely from run to run to gate on, so their rate goes on the
        # detail line and into the traced run's metrics.
        while not ops.attempted or time.perf_counter() - start + last_round <= seconds:
            for jobs in sides:
                round_start = time.perf_counter()
                for job in inputs[jobs]:
                    probes.due(time.perf_counter() - start)
                    done = ops.cell(job, cells, reference)
                    if done is not None:
                        walls[jobs] += done[0]
                        tuples[jobs] += done[1]
                        if jobs == 1:
                            repeats.setdefault(job, []).append(done[0])
                if jobs == 1:
                    last_round = time.perf_counter() - round_start
            sides = [1]
        throughput = tuples[1] / walls[1] if walls[1] else 0.0
        detail = {
            "tuples_per_s_jobs2": tuples[2] / walls[2] if walls[2] else 0.0,
            "rounds": ops.attempted // len(cells) - 1,
        }
    else:
        repeats = {}
        busy = 0.0
        start = time.perf_counter()
        while not ops.attempted or time.perf_counter() - start < seconds:
            probes.due(time.perf_counter() - start)
            i = ops.attempted % len(inputs)
            latency = ops.item(inputs[i])
            repeats.setdefault(i, []).append(latency)
            busy += latency
        throughput = ops.attempted / busy
        detail = {"ops": ops.attempted, "passes": ops.attempted / len(inputs)}
    # An input's latency is the mean of its repeats in this run.  The host
    # runs fast and slow for tens of seconds at a time; averaging each input
    # over passes that fall in different phases keeps the median from
    # flipping between the two speeds.
    latencies = [statistics.fmean(r) for r in repeats.values()]
    q1, med, q3 = quartiles(probes.finish())
    detail.update(
        samples=len(latencies),
        failed_frac=ops.failed / ops.attempted,
        setup_s_quartiles=[q1, med, q3],
    )
    metrics = {
        "setup_s": (med, "s"),
        "tuples_per_s": (throughput, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1000.0, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return _result(ops, metrics, detail)


def run_traced(workload, seed, seconds, golden, cells) -> dict:
    import spans
    import workloads

    tracer = spans.Tracer()
    with tracer:
        inputs = workloads.build_inputs(workload, seed, cells)
    ops = Ops(golden)
    # Wall of the same ops without (False) and with (True) the tracer.  Each
    # op runs both ways, in an order that alternates, so drift hits both alike.
    walls = {False: 0.0, True: 0.0}
    jobs2 = {"walls": 0.0, "tuples": 0}
    rng = random.Random(seed)

    def traced_if(flag):
        return tracer if flag else contextlib.nullcontext()

    if workload == "enumerate":
        reference: dict = {}
        for i, (job1, job2) in enumerate(zip(inputs[1], inputs[2])):
            tracer.op = i
            for with_trace in rng.sample((False, True), 2):
                with traced_if(with_trace):
                    done = ops.cell(job1, cells, reference)
                if done is not None:
                    walls[with_trace] += done[0]
            done = ops.cell(job2, cells, reference)
            if done is not None:
                jobs2["walls"] += done[0]
                jobs2["tuples"] += done[1]
    else:
        count = max(1, round(TRACED_OPS_PER_S[workload] * seconds))
        for i in range(count):
            tracer.op = i
            for with_trace in (i % 2 == 1, i % 2 == 0):
                with traced_if(with_trace):
                    walls[with_trace] += ops.item(inputs[i % len(inputs)])
    import_s, oneshot_ms, wrong = measure_cli()
    ops.attempted += len(oneshot_ms)
    ops.failed += wrong
    tracer.write_spans(SPANS_DIR / f"spans-{workload}-seed{seed}.csv.gz")
    plain, traced = walls[False], walls[True]
    metrics = tracer.metrics()
    metrics.update(
        {
            "exhaustive.jobs2_speedup": (
                plain / jobs2["walls"] if jobs2["walls"] else 0.0,
                "ratio",
            ),
            "exhaustive.tuples_per_s_jobs2": (
                jobs2["tuples"] / jobs2["walls"] if jobs2["walls"] else 0.0,
                "1/s",
            ),
            "cli.import_s": (statistics.median(import_s), "s"),
            "cli.oneshot_ms": (statistics.median(oneshot_ms), "ms"),
            "trace.overhead_frac": (traced / plain - 1.0 if plain else 0.0, "frac"),
        }
    )
    detail = {"spans": len(tracer.spans), "plain_s": plain, "traced_s": traced}
    return _result(ops, metrics, detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "abtuple" / "__init__.py").is_file():
        print(f"error: no abtuple sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    golden = workloads.load_golden()
    run = run_traced if args.trace else run_plain
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    result = run(args.workload, args.seed, args.seconds, golden, workloads.ENUM_CELLS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
