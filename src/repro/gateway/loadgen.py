"""Open-loop load generator for the gateway tier.

Simulates the paper's deployment story — a fleet of weather stations
streaming records over the network — against a real
:class:`~repro.gateway.server.GatewayServer`: ``connections`` TCP clients,
each owning one or more stations, pushing records on an *open-loop*
arrival schedule (Poisson, linearly ramping, or uniform).  Open-loop means
the schedule is fixed before the run and does not slow down when the
server does; the only throttle is the transport itself (the gateway's
pause watermark filling TCP windows), which is exactly the behaviour a
production ingest tier sees from sensors that do not care how busy the
backend is.

Every station's stream carries a contiguous missing block in its target
series, so the serving tier is continuously imputing; push-to-result
latency is measured per record by stamping the send time and matching the
returned :class:`~repro.results.TickResult` by tick index (priming
advances the session clock by the history length, so stream ordinal ``j``
comes back as index ``history_ticks + j``).

:func:`gateway_bench_record` is the one entry point shared by the
``gateway-bench`` CLI subcommand and ``benchmarks/test_bench_gateway.py``:
it stands up a cluster + gateway, runs the load, then replays the same
per-station streams into a fresh in-process
:class:`~repro.cluster.coordinator.ClusterCoordinator` via plain
``push()`` and asserts the wire results are bit-identical — the same
bar every previous serving tier had to clear.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.bench import results_identical
from ..cluster.coordinator import ClusterCoordinator
from ..exceptions import GatewayError
from ..results import TickResult
from ..scenarios.generator import StationWorkload, grouped_fleet, station_workloads
from ..scenarios.spec import (
    ArrivalSpec,
    MissingnessSpec,
    ScenarioSpec,
    StationLayout,
    arrival_times,
)
from .client import AsyncGatewayClient
from .server import GatewayServer

__all__ = [
    "LoadgenStation",
    "LoadgenReport",
    "build_loadgen_workload",
    "arrival_schedule",
    "run_loadgen",
    "gateway_bench_record",
]

#: Valid open-loop arrival processes (the loadgen's historical names;
#: ``"uniform"`` maps onto the scenario tier's ``"steady"`` process).
ARRIVAL_PROCESSES = ("poisson", "ramp", "uniform")

#: Loadgen process name -> :mod:`repro.scenarios` arrival process.
_PROCESS_ALIASES = {"uniform": "steady", "poisson": "poisson", "ramp": "ramp"}

#: One station of the load-generator workload — the scenario tier's
#: :class:`~repro.scenarios.generator.StationWorkload`, re-exported under
#: the loadgen's historical name.  ``station`` is globally unique across
#: all connections, so the parity run can reuse it verbatim as an
#: in-process session id.
LoadgenStation = StationWorkload


@dataclass
class LoadgenReport:
    """Everything one load-generator run produced."""

    connections: int
    stations: int
    records: int
    elapsed_seconds: float
    records_per_second: float
    offered_rate: float
    latencies_seconds: np.ndarray = field(repr=False)
    results: Dict[str, List[TickResult]] = field(repr=False)
    shed: List[str] = field(default_factory=list)
    errors: List[Tuple[int, str]] = field(default_factory=list)

    def latency_percentiles_ms(self) -> Dict[str, float]:
        """``{"p50": ..., "p99": ...}`` push-to-result latency in ms."""
        if self.latencies_seconds.size == 0:
            return {"p50": float("nan"), "p99": float("nan")}
        p50, p99 = np.percentile(self.latencies_seconds, [50.0, 99.0])
        return {"p50": float(p50) * 1e3, "p99": float(p99) * 1e3}


# --------------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------------- #
def build_loadgen_workload(
    connections: int,
    stations_per_connection: int = 1,
    records_per_station: int = 40,
    num_series: int = 3,
    window_length: int = 144,
    pattern_length: int = 12,
    num_anchors: int = 3,
    num_references: int = 2,
    seed: int = 2017,
) -> List[List[LoadgenStation]]:
    """Build a deterministic fleet workload, grouped per connection.

    Each station gets a seeded sinusoid-plus-noise multivariate stream:
    ``window_length`` priming ticks, then ``records_per_station`` streamed
    rows whose target series goes dark for the middle half — so roughly
    half of every station's streamed ticks produce imputations.  TKCM at a
    deliberately small configuration (the load generator measures the
    serving path, not the imputer).
    """
    if connections < 1 or stations_per_connection < 1:
        raise GatewayError("need at least one connection and one station")
    # The loadgen's historical workload is the scenario tier's default
    # block-missingness layout — same seeds, same sinusoid, same gap — so
    # the fleet is materialised by the generator and only grouped here
    # (bit-for-bit equivalence with the pre-scenario builder is pinned by
    # tests/gateway/test_loadgen_equivalence.py).
    spec = ScenarioSpec(
        name="loadgen",
        layout=StationLayout(
            num_stations=connections * stations_per_connection,
            series_per_station=num_series,
            window_length=window_length,
            records_per_station=records_per_station,
            pattern_length=pattern_length,
            num_anchors=num_anchors,
            num_references=num_references,
        ),
        missingness=MissingnessSpec(kind="block"),
        seed=seed,
    )
    return grouped_fleet(station_workloads(spec), stations_per_connection)


def arrival_schedule(
    count: int, rate: float, process: str = "poisson", seed: int = 0
) -> np.ndarray:
    """Absolute send times (seconds from start) for ``count`` open-loop events.

    ``poisson`` draws exponential inter-arrivals at ``rate`` events/s;
    ``ramp`` sweeps the instantaneous rate linearly from half to
    one-and-a-half times ``rate`` (same mean); ``uniform`` is a metronome.
    Deterministic for a given ``seed``.  Implemented by the scenario tier's
    :func:`~repro.scenarios.spec.arrival_times` (which adds bursty and
    diurnal processes for scenario-driven runs); the three historical
    processes produce bit-identical schedules at the same seed.
    """
    if rate <= 0:
        raise GatewayError(f"arrival rate must be positive, got {rate}")
    if process not in _PROCESS_ALIASES:
        raise GatewayError(
            f"unknown arrival process {process!r} (choose from {ARRIVAL_PROCESSES})"
        )
    return arrival_times(
        ArrivalSpec(process=_PROCESS_ALIASES[process], rate=rate), count, seed
    )


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #
async def _run_loadgen_async(
    host: str,
    port: int,
    fleet: List[List[LoadgenStation]],
    rate: float,
    process: str,
    seed: int,
) -> LoadgenReport:
    clients: List[AsyncGatewayClient] = []
    send_times: Dict[Tuple[str, int], float] = {}
    latencies: List[float] = []
    history_ticks = fleet[0][0].history_ticks

    def result_hook(station: str, results: List[TickResult]) -> None:
        """Stamp push-to-result latency for every imputed tick."""
        received = time.perf_counter()
        for result in results:
            sent = send_times.get((station, result.index - history_ticks))
            if sent is not None:
                latencies.append(received - sent)

    try:
        for group in fleet:
            client = await AsyncGatewayClient.connect(host, port)
            client.result_hook = result_hook
            clients.append(client)
            for spec in group:
                await client.create_session(
                    spec.station,
                    method=spec.method,
                    series_names=spec.series_names,
                    **spec.params,
                )
                await client.prime(spec.station, spec.history)

        # Interleave round-robin across every station: record j of all
        # stations before record j + 1 of any, like a shared ingest queue.
        events: List[Tuple[AsyncGatewayClient, LoadgenStation, int]] = []
        depth = max(len(spec.rows) for group in fleet for spec in group)
        for ordinal in range(depth):
            for client, group in zip(clients, fleet):
                for spec in group:
                    if ordinal < len(spec.rows):
                        events.append((client, spec, ordinal))
        schedule = arrival_schedule(len(events), rate, process, seed)

        loop = asyncio.get_event_loop()
        started = loop.time()
        wall_started = time.perf_counter()
        for (client, spec, ordinal), offset in zip(events, schedule):
            delay = (started + float(offset)) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            send_times[(spec.station, ordinal)] = time.perf_counter()
            await client.push(spec.station, spec.rows[ordinal])

        # Barrier: one FLUSH per connection collects every result.
        all_results: Dict[str, List[TickResult]] = {}
        for client, group in zip(clients, fleet):
            gathered = await client.flush()
            for station, ticks in gathered.items():
                all_results.setdefault(station, []).extend(ticks)
            for spec in group:
                all_results.setdefault(spec.station, [])
        elapsed = time.perf_counter() - wall_started

        shed = [message for client in clients for message in client.shed]
        errors = [error for client in clients for error in client.errors]
        stations = sum(len(group) for group in fleet)
        return LoadgenReport(
            connections=len(fleet),
            stations=stations,
            records=len(events),
            elapsed_seconds=elapsed,
            records_per_second=len(events) / elapsed if elapsed > 0 else 0.0,
            offered_rate=rate,
            latencies_seconds=np.asarray(latencies, dtype=np.float64),
            results=all_results,
            shed=shed,
            errors=errors,
        )
    finally:
        for client in clients:
            await client.close()


def run_loadgen(
    host: str,
    port: int,
    fleet: List[List[LoadgenStation]],
    rate: float,
    process: str = "poisson",
    seed: int = 2017,
) -> LoadgenReport:
    """Run the open-loop load against an already-listening gateway."""
    return asyncio.run(_run_loadgen_async(host, port, fleet, rate, process, seed))


# --------------------------------------------------------------------------- #
# End-to-end benchmark record (CLI + benchmarks share this)
# --------------------------------------------------------------------------- #
def _reference_results(
    fleet: List[List[LoadgenStation]],
    workers: int,
    transport: str,
) -> Dict[str, List[TickResult]]:
    """Replay every station's stream through in-process ``push()`` calls."""
    reference: Dict[str, List[TickResult]] = {}
    with ClusterCoordinator(num_workers=workers, transport=transport) as cluster:
        for group in fleet:
            for spec in group:
                cluster.create_session(
                    spec.station,
                    method=spec.method,
                    series_names=spec.series_names,
                    **spec.params,
                )
                cluster.prime(spec.station, spec.history)
        for group in fleet:
            for spec in group:
                ticks = reference.setdefault(spec.station, [])
                for row in spec.rows:
                    ticks.extend(cluster.push(spec.station, row))
    return reference


def gateway_bench_record(
    connections: int = 500,
    stations_per_connection: int = 1,
    records_per_station: int = 40,
    workers: int = 2,
    rate: float = 4000.0,
    process: str = "poisson",
    transport: str = "shm",
    seed: int = 2017,
    pause_watermark: int = 8192,
    shed_watermark: Optional[int] = None,
    check_parity: bool = True,
) -> Dict[str, object]:
    """Run the full gateway benchmark and return the ``BENCH_gateway`` record.

    Stands up a ``workers``-worker cluster on ``transport``, fronts it with
    a :class:`~repro.gateway.server.GatewayServer`, drives it with the
    open-loop load generator, and (with ``check_parity``) replays the same
    streams through in-process ``ClusterCoordinator.push`` to assert the
    wire results are bit-identical.  The returned dict is JSON-serialisable.
    """
    fleet = build_loadgen_workload(
        connections,
        stations_per_connection=stations_per_connection,
        records_per_station=records_per_station,
        seed=seed,
    )
    with ClusterCoordinator(num_workers=workers, transport=transport) as cluster:
        server = GatewayServer(
            cluster,
            pause_watermark=pause_watermark,
            shed_watermark=shed_watermark,
        )
        with server.background():
            report = run_loadgen(
                server.host, server.port, fleet,
                rate=rate, process=process, seed=seed,
            )
            gateway_stats = server.stats()
        # ClusterCoordinator.stats() nests the aggregate under "cluster".
        aggregate = cluster.stats()["cluster"]

    parity = None
    if check_parity:
        reference = _reference_results(fleet, workers, transport)
        parity = results_identical(report.results, reference)

    latency = report.latency_percentiles_ms()
    imputed = sum(len(ticks) for ticks in report.results.values())
    return {
        "benchmark": "gateway",
        "config": {
            "connections": connections,
            "stations_per_connection": stations_per_connection,
            "records_per_station": records_per_station,
            "workers": workers,
            "transport": transport,
            "rate": rate,
            "process": process,
            "seed": seed,
            "pause_watermark": pause_watermark,
            "shed_watermark": shed_watermark,
        },
        "records": report.records,
        "elapsed_seconds": report.elapsed_seconds,
        "records_per_second": report.records_per_second,
        "offered_rate": report.offered_rate,
        "latency_ms": latency,
        "latency_samples": int(report.latencies_seconds.size),
        "imputed_ticks": imputed,
        "shed_records": len(report.shed),
        "push_errors": len(report.errors),
        "bit_identical_to_inprocess": parity,
        "gateway_stats": gateway_stats,
        "cluster_stats": {
            "records_routed": aggregate.get("records_routed"),
            "pending_records_peak": aggregate.get("pending_records_peak"),
            "queue_depth_max": aggregate.get("queue_depth_max"),
            "transport": aggregate.get("transport"),
        },
    }
