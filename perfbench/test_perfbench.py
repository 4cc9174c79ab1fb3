"""The benchmark's own tests, on a tiny enumeration cell and a few ops.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import abtuple  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED_NAMES = [name for _, names in spans.TRACED for name in names]


def _bindings() -> dict:
    return {
        (modname, name): value
        for modname, module in list(sys.modules.items())
        if modname == "abtuple" or modname.startswith("abtuple.")
        for name, value in vars(module).items()
        if callable(value)
    }


def _run(workload, trace, golden=None, cells=workloads.TINY_CELLS, seconds=0.3):
    golden = workloads.load_golden() if golden is None else golden
    body = run.run_traced if trace else run.run_plain
    return body(workload, 7, seconds, golden, cells)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    result = _run(workload, trace)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    printed = capsys.readouterr().out
    for m in wanted:
        assert m["name"] in printed
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace and workload == "enumerate":
        detail = next(l for l in printed.splitlines() if l.startswith("detail "))
        assert json.loads(detail[len("detail "):])["tuples_per_s_jobs2"] > 0


def test_tampered_digest_counts_as_failure():
    golden = workloads.load_golden()
    item = workloads.build_items("certify", 7)[0]
    tampered = json.loads(json.dumps(golden))
    tampered[item.kind][item.index] = "0" * 16
    ops = run.Ops(tampered)
    ops.item(item)
    assert (ops.attempted, ops.failed) == (1, 1)
    ops = run.Ops(golden)
    ops.item(item)
    assert (ops.attempted, ops.failed) == (1, 0)

    (cell,) = workloads.TINY_CELLS
    tampered["enumerate"][workloads.cell_key(cell)] = "0" * 16
    result = _run("enumerate", 0, golden=tampered)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_traced_run_restores_every_rebound_name():
    before = _bindings()
    for workload in run.WORKLOADS:
        _run(workload, 1)
    assert _bindings() == before
    assert not any(hasattr(abtuple, n) and hasattr(getattr(abtuple, n), "__wrapped__")
                   for n in TRACED_NAMES)


def test_tracer_wraps_calls_between_layers():
    tracer = spans.Tracer()
    item = next(i for i in workloads.build_items("certify", 7) if i.kind == "holder")
    with tracer:
        workloads.call(item)
    stats = tracer.stats
    assert stats["structure.audit_claims"].calls == 1
    # audit_claims re-checks the property of the holder it is given.
    assert stats["tuples.has_property"].calls >= 1
    assert stats["lattice.hnf_rows"].calls > 0
    parents = {sid: key for sid, _, _, key, _, _ in tracer.spans}
    assert any(
        key == "tuples.has_property" and parents.get(parent) == "structure.audit_claims"
        for _, parent, _, key, _, _ in tracer.spans
    )


def test_plain_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("plain run installed a tracer")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    seen = []
    original_call = workloads.call

    def checked_call(item):
        seen.extend(
            getattr(sys.modules[f"abtuple.{layer}"], name)
            for layer, names in spans.TRACED
            for name in names
        )
        return original_call(item)

    monkeypatch.setattr(workloads, "call", checked_call)
    before = _bindings()
    for workload in run.WORKLOADS:
        assert _run(workload, 0)["correct"]
    assert seen and not any(hasattr(fn, "__wrapped__") for fn in seen)
    assert _bindings() == before


@pytest.mark.parametrize("n,k", [(6, 3), (12, 5), (16, 8)])
def test_lex_rank_follows_combinations_order(n, k):
    for expected, subset in enumerate(combinations(range(n), k)):
        if expected % 97 == 0 or n < 10:
            assert spans.lex_rank(subset, n) == expected


def test_sums_formed_counts_scanned_windows():
    t = abtuple.group_tuple([(0,), (1,), (1,), (5,), (2,)])
    tracer = spans.Tracer()
    with tracer:
        report = abtuple.has_property(t, 3, 1)
    windows = list(combinations(range(5), 3))
    scanned = windows.index(report.failure_witness[0]) + 1
    extra = tracer.stats["tuples.has_property"].extra
    assert extra["sums_formed"] == scanned * 3
    assert extra["billed"] == abtuple.property_cost(5, 3, 1)
