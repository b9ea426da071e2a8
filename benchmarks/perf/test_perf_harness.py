"""Smoke and logic tests of the benchmark harness itself (not tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``. Meshes are
tiny and samples single, so nothing here is a measurement.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from contextlib import closing
from multiprocessing import shared_memory

import pytest

from benchmarks.perf import cli, compare, harness, layers
from benchmarks.perf.measure import (
    bind_pool_workers,
    make_baseline,
    make_runner,
    run_untraced,
    steady,
)
from benchmarks.perf.workloads import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    TOLERANCE,
    WORKLOADS,
    constants_for,
    usable_cores,
    workload_by_name,
)
from repro.airfoil import generate_mesh
from repro.hpx.threadpool import ThreadPoolEngine

NAME = re.compile(r"[A-Za-z0-9_.-]+")
MANIFEST = json.loads(compare.MANIFEST.read_text())


BOUNDS = {"cell_iters_per_s": 0.25, "vs_baseline": 0.15, "setup_s": 0.25, "peak_rss_mb": 0.10}


def tiny(workload):
    """The workload's configuration on a mesh of ~130 cells, one step a sample."""
    if workload.kind == "procs":
        return workload.scaled(8, 16, 1)
    return workload.scaled(16, 8, 1)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_one_sample_smoke(workload):
    record = run_untraced(tiny(workload), seed=1, seconds=0.0, min_pairs=1)
    assert record["correct"], record["errors"]
    assert (record["attempted"], record["failed"]) == (1, 0)
    assert record["max_abs_diff"] <= TOLERANCE
    assert record["leaked_segments"] == []
    assert set(record["metrics"]) == set(END_TO_END_UNITS)
    for name, m in record["metrics"].items():
        assert m["unit"] == END_TO_END_UNITS[name]
        assert m["value"] > 0
    assert record["samples"]["wall_s"]["count"] == 1
    assert record["config"]["width"] <= 2


def test_seed_perturbs_only_the_flow():
    a, b = constants_for(1), constants_for(2)
    assert a == constants_for(1)
    assert a != b
    for c in (a, b):
        assert abs(c.mach / 0.4 - 1.0) <= 0.02
        assert 0.0 <= c.alpha_deg <= 3.0


def test_manifest_and_code_name_the_same_metrics():
    assert [w["name"] for w in MANIFEST["workloads"]] == [w.name for w in WORKLOADS]
    assert [w["why"] for w in MANIFEST["workloads"]] == [w.why for w in WORKLOADS]
    end_to_end = {m["name"]: m for m in MANIFEST["end_to_end"]}
    per_layer = {m["name"]: m for m in MANIFEST["per_layer"]}
    assert {n: m["unit"] for n, m in end_to_end.items()} == END_TO_END_UNITS
    assert {n: m["unit"] for n, m in per_layer.items()} == PER_LAYER_UNITS
    for name in [*end_to_end, *per_layer, *(w.name for w in WORKLOADS)]:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert end_to_end["setup_s"]["better"] == "lower"
    # Pinned: a wider bound is a change to the benchmark, not a tuning knob.
    assert {n: m["bound"] for n, m in end_to_end.items()} == BOUNDS
    assert MANIFEST["paths"] == ["benchmarks/perf"]


@pytest.mark.parametrize("name", ["dataflow_2w", "halo_overlapped_2r"])
def test_traced_run_emits_every_per_layer_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(layers, "PROBE_SECONDS", 0.02)
    monkeypatch.setattr(layers, "MICRO_CALLS", 50)
    record = layers.run_traced(tiny(workload_by_name(name)), 1, 0.0, tmp_path)
    assert record["correct"], record["errors"]
    assert set(record["metrics"]) == set(PER_LAYER_UNITS)
    for metric_name, m in record["metrics"].items():
        assert m["unit"] == PER_LAYER_UNITS[metric_name]
    value = {n: m["value"] for n, m in record["metrics"].items()}

    # The attributed layers plus the residual equal the measured step.
    attributed = (
        value["airfoil.kernels.step_ms"]
        + value["backends.gather.step_ms"]
        + value["backends.scatter.step_ms"]
        + value["backends.execute_loop.self_ms"]
    )
    assert attributed == pytest.approx(value["backends.execute_loop.step_ms"])
    assert value["ledger.explained_ms_per_step"] + value[
        "ledger.residual_ms_per_step"
    ] == pytest.approx(value["ledger.over_seq_ms_per_step"])
    assert value["engine.program.steps"] == 9

    trace = json.loads((tmp_path / f"trace-{name}.json").read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == record["chrome_trace"]["events"] - 1
    assert all(e["args"]["workload"] == name for e in spans)
    roots = [e for e in spans if e["args"]["parent"] is None]
    assert [e["name"] for e in roots] == ["workload"]
    table = record["spans"]
    assert table["workload"]["self_s"] <= table["workload"]["total_s"]


def test_perturbed_reference_fails_the_sample():
    workload = tiny(workload_by_name("seq_small"))
    mesh = generate_mesh(workload.ni, workload.nj)
    constants = constants_for(1)
    with closing(make_runner(workload, mesh, constants)) as target, closing(
        make_baseline(workload, mesh, constants)
    ) as baseline:
        good = steady(target, baseline, baseline.state, 0.0, min_pairs=2)
        bad = steady(
            target, baseline, lambda: baseline.state() + 1e-9, 0.0, min_pairs=2
        )
    assert (good["attempted"], good["failed"]) == (2, 0)
    assert (bad["attempted"], bad["failed"]) == (2, 2)
    assert bad["wall_s"] == [] and "max |q - q_ref|" in bad["errors"][0]


# -- compare ------------------------------------------------------------------

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def _verdict(change, parent=PARENT, better="higher", bound=0.10, floor=0.0):
    return compare.judge(parent, change, better=better, bound=bound, floor=floor)["verdict"]


def test_compare_claims_a_gain_only_on_nine_of_ten_wins_beyond_the_parents_iqr():
    assert _verdict([p * 1.05 for p in PARENT]) == "better"
    # eight wins of ten
    mixed = [p * 1.05 for p in PARENT[:8]] + [p * 0.99 for p in PARENT[8:]]
    assert _verdict(mixed) == "same"
    # every pair won, but by less than the parent's own interquartile distance
    assert _verdict([p + 0.05 for p in PARENT]) == "same"
    # fewer than ten pairs never make a gain
    assert _verdict([p * 1.05 for p in PARENT[:5]], parent=PARENT[:5]) == "same"


def test_compare_applies_the_bound_in_the_metrics_direction():
    assert _verdict([p * 0.85 for p in PARENT]) == "worse"
    assert _verdict([p * 0.95 for p in PARENT]) == "same"
    assert _verdict([p * 1.2 for p in PARENT], better="lower") == "worse"
    assert _verdict([p * 0.8 for p in PARENT], better="lower") == "better"
    # setup_s: 25 % of 10 ms is inside the 20 ms absolute floor
    small = [0.010] * 10
    assert _verdict([0.025] * 10, parent=small, better="lower", bound=0.25) == "worse"
    assert (
        _verdict([0.025] * 10, parent=small, better="lower", bound=0.25, floor=0.020)
        == "same"
    )


def test_compare_reports_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]
    assert _verdict([p * 0.8 for p in noisy], parent=noisy) == "unresolved"
    # ... unless the runs are strictly separated
    assert _verdict([10.0] * 10, parent=noisy) == "worse"


def _ledger(failed: int) -> dict:
    """Ten runs of one workload; the first has ``failed`` failed samples."""
    runs = []
    for i, value in enumerate(PARENT):
        metrics = {name: {"value": value, "unit": u} for name, u in END_TO_END_UNITS.items()}
        record = {"attempted": 10, "failed": failed if i == 0 else 0, "metrics": metrics}
        runs.append({"seed": i, "workloads": {"seq_small": record}})
    return {"untraced": {"runs": runs}}


def test_compare_exits_nonzero_on_a_rise_in_fail_ratio(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_ledger(0)))
    b.write_text(json.dumps(_ledger(1)))
    assert compare.main(str(a), str(a)) == 0
    assert compare.main(str(a), str(b)) == 1
    out = capsys.readouterr().out
    assert "fail_ratio" in out and "worse" in out and "change/parent" in out


def test_compare_refuses_a_ledger_without_an_untraced_run(tmp_path, capsys):
    full, traced_only = tmp_path / "a.json", tmp_path / "b.json"
    full.write_text(json.dumps(_ledger(0)))
    traced_only.write_text(json.dumps({"traced": {"runs": [{"seed": 0, "workloads": {}}]}}))
    assert compare.main(str(full), str(traced_only)) == 2
    assert "no untraced run" in capsys.readouterr().out


# -- harness ------------------------------------------------------------------


def test_only_segments_no_live_process_maps_are_reclaimed():
    before = harness.shm_segments()
    live = shared_memory.SharedMemory(create=True, size=4096, name="repro_perftest_live")
    dead = shared_memory.SharedMemory(create=True, size=4096, name="repro_perftest_dead")
    try:
        dead.close()  # still linked, mapped by nobody: a dead child's leak
        assert harness.reclaim_segments(before) == ["repro_perftest_dead"]
        assert "repro_perftest_live" in harness.shm_segments()
    finally:
        live.close()
        live.unlink()


@pytest.mark.skipif(usable_cores() < 2, reason="nothing is bound on a single usable core")
def test_binding_fails_loudly_when_the_pool_has_too_few_workers():
    with ThreadPoolEngine(1) as pool, pytest.raises(threading.BrokenBarrierError):
        bind_pool_workers(pool, 2, timeout=0.2)



def test_a_hung_child_is_killed_and_a_crash_is_reported():
    hung = harness.run_child([sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
    assert hung["status"] == "timeout" and hung["elapsed_s"] < 10
    crash = harness.run_child([sys.executable, "-c", "raise SystemExit(3)"], 10)
    assert (crash["status"], crash["returncode"]) == ("crash", 3)


def test_a_lost_workload_counts_as_a_failed_sample(monkeypatch):
    monkeypatch.setattr(
        harness,
        "run_child",
        lambda cmd, timeout, env=None: {
            "status": "timeout", "returncode": -9, "stdout": "", "stderr": "stuck",
            "elapsed_s": timeout,
        },
    )
    record = harness.run_workload(WORKLOADS[0], 0, 1.0, False)
    assert not record["correct"]
    assert (record["attempted"], record["failed"], record["fail_ratio"]) == (1, 1, 1.0)
    assert "timeout" in record["errors"][0] and record["metrics"] == {}


def test_contract_command_prints_one_result_object_last(capsys):
    assert cli.main(["--workload", "seq_small", "--seed", "3", "--seconds", "0.2",
                     "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert any(name in line and m["unit"] in line for line in lines[:-1])
