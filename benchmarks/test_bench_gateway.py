"""Benchmark: the network ingest gateway under open-loop load.

Workload: ``CONNECTIONS`` concurrent TCP clients, each holding one TKCM
station (small serving configuration: w = 144, l = 12, k = 3, d = 2, three
series with the target dark for a stretch), primed over the wire and then
streamed ``RECORDS_PER_STATION`` records each with open-loop Poisson
arrivals at ``OFFERED_RATE`` records/s aggregate.  The gateway fronts a
2-worker shared-memory cluster — the tentpole acceptance scenario: ≥ 500
concurrent connections multiplexed onto the pipelined ``push_nowait`` path.

Two regressions are gated here:

* **parity** — every estimate that crossed the wire must be bit-identical
  to replaying the same per-station streams through in-process
  ``ClusterCoordinator.push`` (the same bar every serving tier before the
  gateway had to clear);
* **throughput floor** — sustained ingest must stay above a conservative
  floor even on a loaded single-core CI runner.  The interesting number is
  the measured rate in ``BENCH_gateway.json``; the assertion only catches
  collapse (an event-loop stall, a lost flush, accidental per-record
  round-tripping).

The record is written to ``BENCH_gateway.json`` at the repository root (and
mirrored into ``benchmarks/results/``), with sustained records/s and
push-to-result latency percentiles (p50/p99) measured per imputed tick via
the client-side result hook.
"""

from __future__ import annotations

import json
import pathlib

from repro.evaluation.report import format_table
from repro.gateway import gateway_bench_record

from .conftest import RESULTS_DIR, emit

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The acceptance-criterion fleet: ≥ 500 concurrent connections.
CONNECTIONS = 500
STATIONS_PER_CONNECTION = 1
RECORDS_PER_STATION = 40
WORKERS = 2
TRANSPORT = "shm"

#: Aggregate open-loop offered rate (records/s) and the arrival process.
OFFERED_RATE = 4000.0
ARRIVAL_PROCESS = "poisson"

#: Collapse floor, not a performance target: a healthy run sustains several
#: thousand records/s; anything below this means the gateway serialised on
#: round trips or result delivery stalled.
ASSERTED_RECORDS_PER_S = 400.0


def test_bench_gateway(run_once):
    record = run_once(
        gateway_bench_record,
        connections=CONNECTIONS,
        stations_per_connection=STATIONS_PER_CONNECTION,
        records_per_station=RECORDS_PER_STATION,
        workers=WORKERS,
        transport=TRANSPORT,
        rate=OFFERED_RATE,
        process=ARRIVAL_PROCESS,
        seed=2017,
    )
    record["asserted_records_per_s"] = ASSERTED_RECORDS_PER_S

    # The tentpole acceptance criteria, in order.
    assert record["config"]["connections"] == CONNECTIONS
    assert record["gateway_stats"]["connections_peak"] == CONNECTIONS, (
        "not all clients were connected concurrently"
    )
    assert record["bit_identical_to_inprocess"] is True, (
        "results served over the wire diverged from in-process "
        "ClusterCoordinator.push on the same streams"
    )
    assert record["records"] == CONNECTIONS * STATIONS_PER_CONNECTION * RECORDS_PER_STATION
    assert record["shed_records"] == 0 and record["push_errors"] == 0
    assert record["imputed_ticks"] > 0
    assert record["latency_samples"] == record["imputed_ticks"]
    assert record["latency_ms"]["p99"] >= record["latency_ms"]["p50"] > 0

    payload = json.dumps(record, indent=2) + "\n"
    (REPO_ROOT / "BENCH_gateway.json").write_text(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_gateway.json").write_text(payload)

    rows = [
        {
            "connections": record["config"]["connections"],
            "records": record["records"],
            "offered_rate": record["offered_rate"],
            "records_per_s": record["records_per_second"],
            "p50_ms": record["latency_ms"]["p50"],
            "p99_ms": record["latency_ms"]["p99"],
            "shed": record["shed_records"],
            "identical": record["bit_identical_to_inprocess"],
        }
    ]
    emit(
        "BENCH gateway — open-loop network ingest over a "
        f"{WORKERS}-worker {TRANSPORT} cluster",
        format_table(rows),
    )

    assert record["records_per_second"] >= ASSERTED_RECORDS_PER_S, (
        f"gateway sustained only {record['records_per_second']:.0f} records/s "
        f"across {CONNECTIONS} connections (floor {ASSERTED_RECORDS_PER_S})"
    )
