"""Tiny runs of every workload: metric names and units, parity, span nesting.

Run from the repository root with ``python -m pytest perfbench/tests -q``
(about a minute; each run starts a real gateway + 2-worker cluster).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics, run, server
from perfbench.spans import SPAN_NAMES, load_spans
from perfbench.workloads import WORKLOADS, build_plan

ROOT = Path(__file__).resolve().parents[2]
TINY_SECONDS = 1.0


def test_benchmark_json_names_the_code_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w["name"]: WORKLOADS[w["name"]].why for w in spec["workloads"]
    }
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_full_run_imputes_at_least_ten_thousand_ticks(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = build_plan(WORKLOADS[name], seed=1, seconds=spec["run_seconds"])
    gaps = sum(int(np.isnan(np.stack(s.rows)[:, 0]).sum()) for s in plan.fleet)
    assert gaps >= 10_000  # so >= 100 latency samples lie beyond p99


def test_ring_counter_shim_only_replaces_the_struct_accessors():
    from repro.cluster.shm import SharedRingBuffer

    def word_load(ring, offset):
        return ring._buf[offset: offset + 8].cast("Q")[0]

    assert not server._uses_struct(word_load, "unpack_from")
    # Fails once the ring accesses its counters as words itself: then delete
    # the shim in perfbench/server.py together with this test.
    assert server._uses_struct(SharedRingBuffer._load, "unpack_from")
    assert server._uses_struct(SharedRingBuffer._store, "pack_into")


@pytest.fixture(scope="module")
def traced():
    """One tiny traced run per workload (spans are read back per test)."""
    return {name: run.run(name, seed=7, seconds=TINY_SECONDS, trace=True) for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric_with_parity(traced, name):
    summary = traced[name]["summary"]
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] > 0
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == metrics.PER_LAYER
    assert summary["metrics"]["tkcm.us_per_imputation"]["value"] > 0
    assert summary["metrics"]["error_rate"]["value"] == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_nest_inside_their_parents(traced, name):
    processes = load_spans(run.OUT / f"spans-{name}-seed7")
    assert len(processes) == 3  # the server and both workers
    for spans in processes:
        assert spans.nesting_violations() == 0
        assert (spans.end >= spans.start).all()
    seen = {SPAN_NAMES[i] for p in processes for i in set(p.name.tolist())}
    assert {"protocol.feed", "coordinator.flush", "worker.decode_push",
            "session.push_block", "tkcm.observe_batch", "tkcm.select_anchors"} <= seen
    observe = SPAN_NAMES.index("tkcm.observe_batch")
    anchors = SPAN_NAMES.index("tkcm.select_anchors")
    for spans in processes:
        inner = spans.parent[spans.name == anchors]
        assert (spans.name[inner] == observe).all()


def test_untraced_run_reports_every_end_to_end_metric_on_a_second_seed():
    result = run.run("records_steady", seed=8, seconds=TINY_SECONDS, trace=False)
    summary = result["summary"]
    assert summary["correct"] and summary["failed"] == 0
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == metrics.END_TO_END
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    provenance = result["provenance"]
    assert provenance["seed"] == 8 and provenance["schema_version"] == run.SCHEMA_VERSION
    assert provenance["thread_pins"]["OPENBLAS_NUM_THREADS"] == "1"
    from repro.cluster.shm import SharedRingBuffer

    assert provenance["ring_counter_shim"] == server._uses_struct(
        SharedRingBuffer._load, "unpack_from"
    )


def test_error_rate_counts_an_injected_mismatch(monkeypatch):
    from perfbench import loadgen

    drive = loadgen.drive

    async def corrupting_drive(clients, plan, payloads):
        load = await drive(clients, plan, payloads)
        station, ticks = next((s, t) for s, t in load.results.items() if t)
        tick = ticks[0]
        series, estimate = next(iter(tick.estimates.items()))
        wrong = dataclasses.replace(estimate, value=estimate.value + 1.0)
        ticks[0] = dataclasses.replace(tick, estimates={**tick.estimates, series: wrong})
        return load

    monkeypatch.setattr(loadgen, "drive", corrupting_drive)
    result = run.run("blocks_wide", seed=9, seconds=TINY_SECONDS, trace=True)
    summary = result["summary"]
    assert not summary["correct"]
    assert summary["failed"] == 2  # one tick in each of the two passes
    assert summary["metrics"]["error_rate"]["value"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "records_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
