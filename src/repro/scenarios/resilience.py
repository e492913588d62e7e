"""End-to-end resilience drills: gateway reconnects, supervised heals, brakes.

The chaos harness (:mod:`repro.scenarios.chaos`) breaks the *cluster* while a
trusted driver pushes records directly into the coordinator.  This module
breaks the whole serving path at once — network, gateway, and cluster — and
holds the same bar: after every fault the combined output must be
**bit-identical** to an uninterrupted single-process reference run.

* :func:`run_reconnect_drill` — the scenario stream is pushed through a
  :class:`~repro.gateway.resilient.ResilientGatewayClient` into a
  :class:`~repro.gateway.server.GatewayServer` fronting a live durable
  cluster, while seeded faults fire at chunk boundaries: client connections
  are dropped mid-stream (``inject_disconnect`` — the client reconnects,
  resumes its session leases and replays its unacked outbox), one worker is
  hard-killed, and one worker is wedged (alive but stuck); the latter two
  are healed by a :class:`~repro.cluster.supervisor.ClusterSupervisor` from
  warm standbys, not by the driver.

* :func:`run_breaker_drill` — crash-loops one worker until the supervisor's
  circuit breaker opens, then proves the blast radius is one shard: pushes
  routed to the degraded shard come back as ``ERROR(UNAVAILABLE)`` with a
  retry hint (no hangs), while every other shard keeps serving.

* :func:`resilience_bench_record` — the ``BENCH_resilience.json`` schema
  shared by the ``resilience-bench`` CLI subcommand and
  ``benchmarks/test_bench_resilience.py``: steady-state lease/ACK overhead
  of the resilient client vs the plain one, reconnect recovery latency, and
  supervised vs manual mean-time-to-recover.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..cluster.bench import results_identical
from ..cluster.coordinator import ClusterCoordinator
from ..cluster.standby import StandbyPool
from ..cluster.supervisor import (
    ClusterHealthSource,
    ClusterSupervisor,
    HealthController,
    SupervisorConfig,
)
from ..durability.journal import DurabilityConfig, DurabilityPolicy
from ..exceptions import ConfigurationError
from ..gateway.client import GatewayClient
from ..gateway.resilient import ReconnectPolicy, ResilientGatewayClient
from ..gateway.server import GatewayServer
from ..results import TickResult
from .chaos import DEFAULT_DRILL_CHECKPOINT_EVERY, reference_results
from .generator import delivered_stream, scenario_chunks, station_workloads
from .spec import ScenarioSpec, StationLayout, family_spec

__all__ = [
    "ResilienceEvent",
    "ResilienceReport",
    "BreakerReport",
    "run_reconnect_drill",
    "run_breaker_drill",
    "resilience_bench_record",
]

@dataclass(frozen=True)
class ResilienceEvent:
    """One injected fault of the reconnect drill.

    Attributes
    ----------
    kind:
        ``"disconnect"``, ``"kill"`` or ``"wedge"``.
    boundary:
        Chunk boundary (0-based) at which the fault fired.
    detail:
        Victim worker index for kills/wedges; the client's completed
        reconnect count for disconnects.
    seconds:
        Wall-clock duration of the repair: supervisor tick(s) until healed
        for kills/wedges, ``0.0`` for disconnects (the client recovers
        lazily on its next operation).
    """

    kind: str
    boundary: int
    detail: int
    seconds: float


@dataclass
class ResilienceReport:
    """Everything one :func:`run_reconnect_drill` produced."""

    scenario: str
    workers: int
    records: int
    elapsed_seconds: float
    records_per_second: float
    disconnects: int
    reconnects: int
    frames_replayed: int
    supervisor_restarts: int
    heal_seconds: List[float] = field(default_factory=list)
    events: List[ResilienceEvent] = field(default_factory=list)
    health_states: Dict[int, str] = field(default_factory=dict)
    identical: bool = False
    imputed_ticks: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view, JSON-serialisable."""
        return {
            "scenario": self.scenario,
            "workers": self.workers,
            "records": self.records,
            "elapsed_seconds": self.elapsed_seconds,
            "records_per_second": self.records_per_second,
            "disconnects": self.disconnects,
            "reconnects": self.reconnects,
            "frames_replayed": self.frames_replayed,
            "supervisor_restarts": self.supervisor_restarts,
            "heal_seconds": list(self.heal_seconds),
            "events": [
                {
                    "kind": event.kind,
                    "boundary": event.boundary,
                    "detail": event.detail,
                    "seconds": event.seconds,
                }
                for event in self.events
            ],
            "health_states": {
                str(worker): state
                for worker, state in sorted(self.health_states.items())
            },
            "bit_identical_to_reference": self.identical,
            "imputed_ticks": self.imputed_ticks,
        }


@dataclass
class BreakerReport:
    """Everything one :func:`run_breaker_drill` produced."""

    victim: int
    crashes: int
    restarts_before_brake: int
    breaker_opened: bool
    degraded_workers: List[int]
    unavailable_pushes: int
    retry_after: Optional[float]
    healthy_results: int
    healthy_stations: List[str]

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view, JSON-serialisable."""
        return {
            "victim": self.victim,
            "crashes": self.crashes,
            "restarts_before_brake": self.restarts_before_brake,
            "breaker_opened": self.breaker_opened,
            "degraded_workers": list(self.degraded_workers),
            "unavailable_pushes": self.unavailable_pushes,
            "retry_after": self.retry_after,
            "healthy_results": self.healthy_results,
            "healthy_stations": list(self.healthy_stations),
        }


def _merge(
    into: Dict[str, List[TickResult]], gathered: Dict[str, List[TickResult]]
) -> None:
    for station, ticks in gathered.items():
        into.setdefault(station, []).extend(ticks)


def _supervise_until_healthy(
    supervisor: ClusterSupervisor, *, max_ticks: int = 10
) -> float:
    """Tick the supervisor until no dead workers remain; returns seconds."""
    cluster = supervisor.cluster
    started = time.perf_counter()
    for _ in range(max_ticks):
        supervisor.tick()
        if not cluster.dead_workers():
            return time.perf_counter() - started
    raise ConfigurationError(
        f"supervisor failed to heal the fleet within {max_ticks} ticks "
        f"(dead workers: {cluster.dead_workers()})"
    )


# --------------------------------------------------------------------------- #
# The reconnect / kill / wedge drill
# --------------------------------------------------------------------------- #
def run_reconnect_drill(
    spec: ScenarioSpec,
    durability_root,
    *,
    workers: int = 2,
    disconnects: int = 2,
    kill_worker: bool = True,
    wedge_worker: bool = True,
    transport: str = "shm",
    checkpoint_every: int = DEFAULT_DRILL_CHECKPOINT_EVERY,
    lease_ttl: float = 30.0,
    ping_timeout: float = 0.25,
    seed: Optional[int] = None,
    check_parity: bool = True,
) -> ResilienceReport:
    """Stream one scenario through the resilient gateway path under faults.

    The delivered record stream is split into contiguous chunks and pushed
    through a :class:`~repro.gateway.resilient.ResilientGatewayClient`; at
    seeded chunk boundaries faults fire:

    * **disconnect** — the client's transport is aborted mid-stream; the
      next operation reconnects with backoff, resumes every station's lease
      and replays the unacked outbox.  Fired *without* a flush first, so
      unacknowledged frames genuinely exist at the moment of the drop.
    * **kill** — ``flush()`` (the consistency point), then a seeded victim
      worker is hard-killed; a :class:`~repro.cluster.supervisor.
      ClusterSupervisor` detects it on its next tick and heals the shard
      from a warm standby.
    * **wedge** — ``flush()``, then a victim worker's serving loop is hung
      (process alive, never answers); the supervisor's ping deadline fences
      it and the restart path heals it identically.

    Parity compares the combined results against
    :func:`~repro.scenarios.chaos.reference_results` — bit-identical or the
    report says so.  Deterministic for a given ``seed``.
    """
    if disconnects < 0:
        raise ConfigurationError(f"disconnects must be >= 0, got {disconnects}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    workloads = station_workloads(spec)
    records = delivered_stream(spec)
    rng = np.random.default_rng(spec.seed if seed is None else seed)

    event_kinds = ["disconnect"] * disconnects
    if kill_worker:
        event_kinds.append("kill")
    if wedge_worker:
        event_kinds.append("wedge")
    rng.shuffle(event_kinds)
    chunks = scenario_chunks(records, len(event_kinds) + 2)
    if len(chunks) < len(event_kinds) + 1:
        raise ConfigurationError(
            f"scenario {spec.name!r} has too few records "
            f"({len(records)}) for {len(event_kinds)} faults"
        )
    boundaries = rng.permutation(len(chunks) - 1)[: len(event_kinds)]
    schedule = dict(zip(sorted(int(b) for b in boundaries), event_kinds))

    durability = DurabilityConfig(
        durability_root,
        policy=DurabilityPolicy(checkpoint_every=int(checkpoint_every)),
    )
    results: Dict[str, List[TickResult]] = {}
    events: List[ResilienceEvent] = []
    heal_seconds: List[float] = []
    started = time.perf_counter()
    with ClusterCoordinator(
        num_workers=workers, transport=transport, durability=durability
    ) as cluster:
        standbys = StandbyPool(durability, workers)
        supervisor = ClusterSupervisor(
            cluster=cluster,
            controller=HealthController(
                # No restart pacing: the drill measures end-to-end healing
                # and parity; backoff and the brake get their own drill.
                SupervisorConfig(
                    ping_timeout=ping_timeout, restart_backoff_base=0.0
                )
            ),
            source=ClusterHealthSource(cluster, ping_timeout=ping_timeout),
            standbys=standbys,
        )
        with GatewayServer(cluster, lease_ttl=lease_ttl).background() as server:
            with ResilientGatewayClient(
                "127.0.0.1",
                server.port,
                rng=random.Random(int(rng.integers(0, 2**31))),
                policy=ReconnectPolicy(backoff_base=0.01, backoff_cap=0.25),
            ) as client:
                for workload in workloads:
                    client.create_session(
                        workload.station,
                        method=workload.method,
                        series_names=workload.series_names,
                        **workload.params,
                    )
                    client.prime(workload.station, workload.history)
                    results[workload.station] = []
                for boundary, chunk in enumerate(chunks):
                    for record in chunk:
                        client.push(record.station, record.row)
                    kind = schedule.get(boundary)
                    if kind == "disconnect":
                        # No flush first: the outbox must hold genuinely
                        # unacknowledged frames when the socket dies.
                        client.inject_disconnect()
                        events.append(
                            ResilienceEvent(
                                kind="disconnect",
                                boundary=boundary,
                                detail=client.reconnects,
                                seconds=0.0,
                            )
                        )
                    elif kind in ("kill", "wedge"):
                        _merge(results, client.flush())
                        standbys.sync()  # warm the handoff snapshots
                        victim = int(rng.integers(0, cluster.num_workers))
                        if kind == "kill":
                            cluster.terminate_worker(victim)
                        else:
                            cluster.wedge_worker(victim)
                        seconds = _supervise_until_healthy(supervisor)
                        heal_seconds.append(seconds)
                        events.append(
                            ResilienceEvent(
                                kind=kind,
                                boundary=boundary,
                                detail=victim,
                                seconds=seconds,
                            )
                        )
                _merge(results, client.flush())
                reconnects = client.reconnects
                frames_replayed = client.frames_replayed
        if supervisor.probes:
            # One closing probe round so the report reflects the healed
            # fleet, not the last fault observation.
            supervisor.tick()
        health_states = dict(supervisor.controller.states)
        supervisor_restarts = supervisor.restarts
    elapsed = time.perf_counter() - started

    identical = False
    if check_parity:
        identical = results_identical(results, reference_results(spec, records))
    return ResilienceReport(
        scenario=spec.name,
        workers=workers,
        records=len(records),
        elapsed_seconds=elapsed,
        records_per_second=len(records) / elapsed if elapsed > 0 else 0.0,
        disconnects=disconnects,
        reconnects=reconnects,
        frames_replayed=frames_replayed,
        supervisor_restarts=supervisor_restarts,
        heal_seconds=heal_seconds,
        events=events,
        health_states=health_states,
        identical=identical,
        imputed_ticks=sum(len(ticks) for ticks in results.values()),
    )


# --------------------------------------------------------------------------- #
# The crash-loop breaker drill
# --------------------------------------------------------------------------- #
def run_breaker_drill(
    durability_root,
    *,
    workers: int = 2,
    stations: int = 4,
    breaker_threshold: int = 2,
    retry_after: float = 7.5,
    transport: str = "shm",
) -> BreakerReport:
    """Crash-loop one worker until its breaker opens; prove shard isolation.

    A small station fleet is spread over ``workers`` shards behind a
    gateway.  One victim worker is then hard-killed repeatedly: the
    supervisor restarts it (no backoff — the drill tests the *brake*, not
    the pacing) until ``breaker_threshold`` restarts have landed inside the
    breaker window, at which point the next crash degrades the shard
    instead.  The drill then pushes one record to every station and
    asserts the failure is contained: pushes to the degraded shard come
    back as ``ERROR(UNAVAILABLE)`` carrying ``retry_after`` (the client
    records them; nothing hangs), while stations on healthy shards keep
    producing results.
    """
    durability = DurabilityConfig(
        durability_root, policy=DurabilityPolicy(checkpoint_every=64)
    )
    config = SupervisorConfig(
        restart_backoff_base=0.0,
        breaker_threshold=breaker_threshold,
        breaker_window=3600.0,
        degraded_retry_after=retry_after,
    )
    with ClusterCoordinator(
        num_workers=workers, transport=transport, durability=durability
    ) as cluster:
        supervisor = ClusterSupervisor(
            cluster=cluster,
            controller=HealthController(config),
            source=ClusterHealthSource(cluster, ping_timeout=config.ping_timeout),
        )
        with GatewayServer(cluster).background() as server:
            with GatewayClient("127.0.0.1", server.port) as client:
                names = [f"station-{i:02d}" for i in range(stations)]
                for name in names:
                    client.create_session(name, method="locf", series_names=["v"])
                    client.push(name, {"v": 1.0})
                client.flush()
                by_shard: Dict[int, List[str]] = {}
                for name, session_id in client.sessions.items():
                    by_shard.setdefault(
                        cluster.worker_of(session_id), []
                    ).append(name)
                victim = max(by_shard, key=lambda s: len(by_shard[s]))

                # Crash-loop: threshold restarts, then the brake.
                crashes = 0
                while not supervisor.controller.breaker_is_open(victim):
                    cluster.terminate_worker(victim)
                    crashes += 1
                    supervisor.tick()
                    if crashes > breaker_threshold + 2:  # pragma: no cover
                        raise ConfigurationError(
                            "breaker failed to open after "
                            f"{crashes} crashes"
                        )

                # Containment: degraded shard refuses, the rest still serve.
                for name in names:
                    client.push(name, {"v": float("nan")})
                gathered = client.flush()
                healthy = {
                    name: ticks
                    for name, ticks in gathered.items()
                    if name not in by_shard.get(victim, [])
                }
                return BreakerReport(
                    victim=victim,
                    crashes=crashes,
                    restarts_before_brake=supervisor.restarts,
                    breaker_opened=supervisor.controller.breaker_is_open(victim),
                    degraded_workers=cluster.degraded_workers(),
                    unavailable_pushes=len(client.unavailable),
                    retry_after=(
                        client.unavailable[0][0] if client.unavailable else None
                    ),
                    healthy_results=sum(len(t) for t in healthy.values()),
                    healthy_stations=sorted(healthy),
                )


# --------------------------------------------------------------------------- #
# Benchmark record (CLI + benchmarks share this)
# --------------------------------------------------------------------------- #
def resilience_bench_record(
    durability_root,
    *,
    family: str = "bursty-cascade",
    stations: int = 4,
    records_per_station: int = 40,
    workers: int = 2,
    disconnects: int = 2,
    breaker_threshold: int = 2,
    transport: str = "shm",
    seed: int = 2017,
) -> Dict[str, object]:
    """Measure what resilience costs and what it buys; returns the record.

    The ``BENCH_resilience.json`` schema:

    * **overhead** — the same fault-free stream pushed through the plain
      :class:`~repro.gateway.client.GatewayClient` and through the
      :class:`~repro.gateway.resilient.ResilientGatewayClient` (leases,
      sequence stamps, outbox, ACK tracking all active); the relative
      records/s difference is the steady-state price of resumability.
    * **reconnect** — recovery latency of an injected disconnect: transport
      aborted, then one ``ping`` forced through the full
      reconnect/resume/replay cycle, timed.
    * **drill** — the full :func:`run_reconnect_drill` report (seeded
      disconnects + one kill + one wedge, supervisor-healed), including the
      parity flag and the supervised heal times.
    * **breaker** — the :func:`run_breaker_drill` report: crash-loop one
      worker until the brake opens, then prove the blast radius is one
      shard (``UNAVAILABLE`` with a retry hint, no hangs).
    * **mttr** — supervised heal time vs a manual ``terminate`` + ``heal()``
      of the same fault on the same fleet shape.
    """
    layout = StationLayout(
        num_stations=stations, records_per_station=records_per_station
    )
    spec = family_spec(family, seed=seed, layout=layout)
    workloads = station_workloads(spec)
    records = delivered_stream(spec)

    def stream_once(client) -> float:
        for workload in workloads:
            client.create_session(
                workload.station,
                method=workload.method,
                series_names=workload.series_names,
                **workload.params,
            )
            client.prime(workload.station, workload.history)
        started = time.perf_counter()
        for record in records:
            client.push(record.station, record.row)
        client.flush()
        return time.perf_counter() - started

    # Steady-state overhead: plain vs resilient client, no faults, same
    # backend shape.
    with ClusterCoordinator(num_workers=workers, transport=transport) as cluster:
        with GatewayServer(cluster).background() as server:
            with GatewayClient("127.0.0.1", server.port) as plain:
                plain_seconds = stream_once(plain)
    with ClusterCoordinator(num_workers=workers, transport=transport) as cluster:
        with GatewayServer(cluster).background() as server:
            with ResilientGatewayClient("127.0.0.1", server.port) as resilient:
                resilient_seconds = stream_once(resilient)
                # Reconnect recovery latency, measured on the warm client.
                reconnect_started = time.perf_counter()
                resilient.inject_disconnect()
                resilient.ping()
                reconnect_seconds = time.perf_counter() - reconnect_started
    plain_rps = len(records) / plain_seconds if plain_seconds > 0 else 0.0
    resilient_rps = (
        len(records) / resilient_seconds if resilient_seconds > 0 else 0.0
    )
    overhead = (
        (plain_rps - resilient_rps) / plain_rps if plain_rps > 0 else 0.0
    )

    drill = run_reconnect_drill(
        spec,
        os.path.join(os.fspath(durability_root), "reconnect"),
        workers=workers,
        disconnects=disconnects,
        transport=transport,
        seed=seed,
    )

    breaker = run_breaker_drill(
        os.path.join(os.fspath(durability_root), "breaker"),
        workers=workers,
        stations=stations,
        breaker_threshold=breaker_threshold,
        transport=transport,
    )

    # Manual-heal baseline for the MTTR comparison.
    manual_durability = DurabilityConfig(
        os.path.join(os.fspath(durability_root), "manual"),
        policy=DurabilityPolicy(checkpoint_every=DEFAULT_DRILL_CHECKPOINT_EVERY),
    )
    with ClusterCoordinator(
        num_workers=workers, transport=transport, durability=manual_durability
    ) as cluster:
        for workload in workloads:
            cluster.create_session(
                workload.station,
                method=workload.method,
                series_names=workload.series_names,
                **workload.params,
            )
            cluster.prime(workload.station, workload.history)
        for record in records:
            cluster.push_nowait(record.station, record.row)
        cluster.flush()
        victim = 0
        cluster.terminate_worker(victim)
        manual_started = time.perf_counter()
        cluster.heal()
        manual_heal_seconds = time.perf_counter() - manual_started

    supervised = drill.heal_seconds
    return {
        "benchmark": "resilience",
        "config": {
            "family": family,
            "stations": stations,
            "records_per_station": records_per_station,
            "workers": workers,
            "disconnects": disconnects,
            "breaker_threshold": breaker_threshold,
            "transport": transport,
            "seed": seed,
        },
        "overhead": {
            "plain_records_per_second": plain_rps,
            "resilient_records_per_second": resilient_rps,
            "relative_overhead": overhead,
        },
        "reconnect": {
            "recovery_seconds": reconnect_seconds,
        },
        "drill": drill.as_dict(),
        "breaker": breaker.as_dict(),
        "mttr": {
            "supervised_heal_seconds": list(supervised),
            "supervised_mean_seconds": (
                float(np.mean(supervised)) if supervised else None
            ),
            "manual_heal_seconds": manual_heal_seconds,
        },
    }
