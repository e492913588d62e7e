"""Single-process open-loop load generator.

One asyncio loop, at most ``nproc`` connections, no extra threads.  Frames
are pre-encoded before the clock starts and written through
``AsyncGatewayClient.send_frames`` when due; when the generator is behind,
every frame already due goes out in one write per connection.  Latency is
stamped from each frame's *due* time, so a generator stalled by TCP
backpressure counts the stall against the system, and how late each send
was is reported separately as the generator's own validity check.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.gateway import protocol
from repro.gateway.client import AsyncGatewayClient
from repro.results import TickResult

from .workloads import CONNECTIONS, Plan

#: Lead time between arming the schedule and the first due frame.
_LEAD = 0.05

#: Seconds the whole set-up, or the final FLUSH of one connection, may take.
REPLY_TIMEOUT = 120.0


async def _within(awaitable, what: str):
    """Await with :data:`REPLY_TIMEOUT`; a silent gateway fails the run."""
    try:
        return await asyncio.wait_for(awaitable, REPLY_TIMEOUT)
    except asyncio.TimeoutError:
        raise RuntimeError(f"gateway did not finish {what} within {REPLY_TIMEOUT:.0f}s") from None


@dataclass
class LoadResult:
    """What one measured run of the generator saw."""

    records_sent: int
    #: Per imputed tick: result receipt minus the due time of its frame.
    latencies: np.ndarray
    #: Per imputed tick: its frame's due time, in seconds from the schedule's start.
    latency_due: np.ndarray
    #: Per sent frame: send time minus due time.
    lateness: np.ndarray
    first_due: float
    last_due: float
    #: When the final FLUSH returned: every result had been delivered.
    done: float
    wire_bytes: int
    cpu_s: float
    results: Dict[str, List[TickResult]] = field(repr=False)
    #: ERROR frames other than shed or refused pushes, plus unmatched results.
    #: Shed and refused records are counted by the gateway itself.
    error_frames: int = 0


async def open_fleet(host: str, port: int, plan: Plan) -> List[AsyncGatewayClient]:
    """Connect, then HELLO + PRIME every station on its connection."""
    clients = [
        await AsyncGatewayClient.connect(host, port)
        for _ in range(CONNECTIONS)
    ]

    async def setup(connection: int) -> None:
        client = clients[connection]
        for index, station in enumerate(plan.fleet):
            if plan.connection_of(index) != connection:
                continue
            await client.create_session(
                station.station,
                method=station.method,
                series_names=station.series_names,
                **station.params,
            )
            await client.prime(station.station, station.history)

    try:
        await _within(asyncio.gather(*(setup(c) for c in range(len(clients)))), "HELLO + PRIME")
    except BaseException:
        await close_fleet(clients)
        raise
    return clients


async def close_fleet(clients: Sequence[AsyncGatewayClient]) -> None:
    for client in clients:
        await client.close()


async def drive(
    clients: Sequence[AsyncGatewayClient], plan: Plan, payloads: Sequence[bytes]
) -> LoadResult:
    """Offer the plan's schedule, then FLUSH every connection."""
    workload = plan.workload
    stations = workload.stations
    rpf = workload.rows_per_frame
    kind = plan.frame_kind
    due = plan.due
    index_of = {station.station: i for i, station in enumerate(plan.fleet)}
    history = plan.fleet[0].history_ticks
    latencies: List[float] = []
    latency_due: List[float] = []
    unmatched: List[str] = []
    clock = time.perf_counter
    t0 = clock() + _LEAD

    def on_result(station: str, results: List[TickResult]) -> None:
        # Runs inside the client's reader task: it must never raise there.
        received = clock()
        s = index_of.get(station)
        for result in results:
            event = (result.index - history) // rpf * stations + (s or 0)
            if s is None or not 0 <= event < len(due):
                unmatched.append(f"{station}@{result.index}")
                continue
            latencies.append(received - (t0 + due[event]))
            latency_due.append(due[event])

    for client in clients:
        client.result_hook = on_result

    event_connection = np.asarray(
        [plan.connection_of(s) for s in range(stations)]
    )[np.arange(plan.events) % stations]
    lateness = np.zeros(plan.events)
    # Keep collector pauses out of the receipt stamps: everything built in
    # set-up is frozen, and the cyclic collector stays off while offering.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        usage_before = resource.getrusage(resource.RUSAGE_SELF)
        sent = 0
        while sent < plan.events:
            now = clock()
            if t0 + due[sent] > now:
                await asyncio.sleep(t0 + due[sent] - now)
                continue
            upto = int(np.searchsorted(due, now - t0, side="right"))
            events = np.arange(sent, upto)
            for connection, client in enumerate(clients):
                mine = events[event_connection[sent:upto] == connection]
                if len(mine):
                    lateness[mine] = clock() - (t0 + due[mine])
                    await client.send_frames([(kind, payloads[e]) for e in mine])
            sent = upto
        results: Dict[str, List[TickResult]] = {s.station: [] for s in plan.fleet}
        for client in clients:
            for station, ticks in (await _within(client.flush(), "FLUSH")).items():
                results.setdefault(station, []).extend(ticks)
        done = clock()
        usage_after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        gc.enable()
        gc.unfreeze()
    header = len(protocol.encode_frame(kind))
    return LoadResult(
        records_sent=plan.events * rpf,
        latencies=np.asarray(latencies),
        latency_due=np.asarray(latency_due),
        lateness=lateness,
        first_due=t0 + float(due[0]),
        last_due=t0 + float(due[-1]),
        done=done,
        wire_bytes=sum(len(payload) + header for payload in payloads),
        cpu_s=(usage_after.ru_utime + usage_after.ru_stime)
        - (usage_before.ru_utime + usage_before.ru_stime),
        results=results,
        error_frames=sum(len(client.errors) for client in clients) + len(unmatched),
    )
