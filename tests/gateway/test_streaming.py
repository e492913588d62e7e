"""Tests for streamed result delivery through the gateway.

Results leave the gateway as the workers apply the pushes, not when a
client asks: a client that never sends FLUSH still gets every result, a
token client's ACKs arrive as its pushes are applied (and never before —
on a durable cluster, never before the worker journaled them), and FLUSH
remains a barrier that returns everything pushed before it.  Underneath,
a worker publishing into a full result ring must never block, so a
pipelined stream that outgrows the ring completes with no flush between.
"""

import asyncio
import math

import numpy as np
import pytest

from repro import DurabilityConfig, DurabilityPolicy
from repro.cluster import worker
from repro.cluster.bench import results_identical
from repro.cluster.coordinator import ClusterCoordinator
from repro.durability.store import CheckpointStore
from repro.durability.wal import scan_wal
from repro.gateway import GatewayServer, build_loadgen_workload, protocol
from repro.gateway.client import AsyncGatewayClient
from repro.service import ImputationService

#: Seconds a streamed result or ACK may take to arrive.
DEADLINE = 30.0


def _spec(records=24):
    return build_loadgen_workload(
        1, stations_per_connection=1, records_per_station=records
    )[0][0]


def _reference(spec):
    service = ImputationService()
    service.create_session(spec.station, series_names=spec.series_names, **spec.params)
    service.prime(spec.station, spec.history)
    expected = []
    for row in spec.rows:
        expected.extend(service.push(spec.station, row))
    return {spec.station: expected}


async def _until(predicate, what):
    """Let the client's reader task run until ``predicate()`` holds."""
    deadline = asyncio.get_running_loop().time() + DEADLINE
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"{what} within {DEADLINE:.0f}s")
        await asyncio.sleep(0.002)


async def _hello(client, station, token=None, **kwargs):
    """HELLO, optionally with a lease token (which opts into ACKs)."""
    reply = await client._request(
        protocol.FRAME_HELLO,
        protocol.encode_hello(
            station, kwargs.pop("method", "tkcm"), kwargs.pop("series_names", None),
            0, kwargs, token=token,
        ),
        protocol.FRAME_HELLO_OK,
    )
    return protocol.decode_hello_ok(reply)


def test_results_reach_a_client_that_never_flushes(monkeypatch):
    """...through a gateway that decodes neither the pushes nor the results:
    it forwards both as bytes (the client decodes its RESULT frames)."""
    spec = _spec()
    expected = _reference(spec)
    with ClusterCoordinator(num_workers=2) as cluster:

        def refuse(*args, **kwargs):
            raise AssertionError("decoded on the streamed path")

        # The workers are forked already: only the gateway side is patched.
        monkeypatch.setattr(protocol, "decode_push_payload", refuse)
        monkeypatch.setattr(worker, "decode_result_frame", refuse)
        server = GatewayServer(cluster)

        async def scenario():
            client = await AsyncGatewayClient.connect("127.0.0.1", server.port)
            try:
                await client.create_session(
                    spec.station, series_names=spec.series_names, **spec.params
                )
                await client.prime(spec.station, spec.history)
                for row in spec.rows:
                    await client.push(spec.station, row)
                await _until(
                    lambda: client.results_received == len(expected[spec.station]),
                    "the streamed results never all arrived",
                )
                return client.take_results()
            finally:
                await client.close()

        with server.background():
            streamed = asyncio.run(scenario())
            assert server.stats()["flushes"] == 0
    assert results_identical(streamed, expected)


def test_acks_never_cover_a_push_the_worker_has_not_journaled(tmp_path):
    """Every ACK the client sees is already backed by the WAL on disk."""
    durability = DurabilityConfig(
        tmp_path, policy=DurabilityPolicy(checkpoint_every=1_000_000)
    )
    station, pushes = "acked", 60
    with ClusterCoordinator(num_workers=2, durability=durability) as cluster:
        server = GatewayServer(cluster, lease_ttl=30.0)

        async def scenario():
            client = await AsyncGatewayClient.connect("127.0.0.1", server.port)
            try:
                info = await _hello(
                    client, station, token="t", method="locf", series_names=["v"]
                )
                store = CheckpointStore(durability.for_worker(info["worker"]).root)
                session_id = info["session_id"]

                def journaled() -> int:
                    latest = store.latest_checkpoint(session_id)
                    return scan_wal(store.wal_path(session_id, latest.version)).records

                observed = []
                dispatch = client._dispatch

                def spy(kind, payload):
                    if kind == protocol.FRAME_ACK:
                        seq = protocol.decode_ack(payload)[station]
                        observed.append((seq, journaled()))
                    dispatch(kind, payload)

                client._dispatch = spy
                for i in range(pushes):
                    value = math.nan if i % 3 == 2 else float(i)
                    await client.push(station, {"v": value})
                await _until(
                    lambda: client.acked.get(station) == pushes,
                    "the last push was never acknowledged",
                )
                return observed
            finally:
                await client.close()

        with server.background():
            observed = asyncio.run(scenario())
            assert server.stats()["flushes"] == 0
    assert observed
    for seq, journaled in observed:
        # One record per push: ACK seq covers seq records.
        assert journaled >= seq, f"ACK {seq} sent with {journaled} records journaled"


def test_acks_arrive_without_flush_for_pushes_that_impute_nothing():
    station, pushes = "complete", 20
    with ClusterCoordinator(num_workers=1) as cluster:
        server = GatewayServer(cluster, lease_ttl=30.0)

        async def scenario():
            client = await AsyncGatewayClient.connect("127.0.0.1", server.port)
            try:
                await _hello(client, station, token="t", method="locf", series_names=["v"])
                for i in range(pushes):
                    await client.push(station, {"v": float(i)})
                await _until(
                    lambda: client.acked.get(station) == pushes,
                    "pushes that impute nothing were never acknowledged",
                )
                return client.results_received
            finally:
                await client.close()

        with server.background():
            assert asyncio.run(scenario()) == 0
            assert server.stats()["flushes"] == 0


def test_push_many_outgrowing_the_result_ring_completes_without_a_flush():
    """With a 4 KiB ring and no mid-stream collect, the worker must keep
    applying while its results queue behind the full ring."""
    rows = 3000
    values = np.arange(rows, dtype=float)
    values[1::2] = np.nan  # locf imputes every other tick
    records = [("s", {"v": float(v)}) for v in values]
    with ClusterCoordinator(
        num_workers=1, ring_capacity=4096, linger_records=16,
        max_inflight=10**9,
    ) as cluster:
        cluster.create_session("s", method="locf", series_names=["v"])
        flushed = cluster.push_many(records)
        stats = cluster.stats()["cluster"]["transport"]
    service = ImputationService()
    service.create_session("s", method="locf", series_names=["v"])
    expected = []
    for _, row in records:
        expected.extend(service.push("s", row))
    assert results_identical(flushed, {"s": expected})
    assert stats["ring_full_stalls"] > 0  # the result ring really filled


@pytest.mark.parametrize("workers", [1, 2])
def test_flush_barrier_returns_every_earlier_result(workers):
    spec = _spec(records=40)
    expected = _reference(spec)
    with ClusterCoordinator(num_workers=workers) as cluster:
        server = GatewayServer(cluster)

        async def scenario():
            client = await AsyncGatewayClient.connect("127.0.0.1", server.port)
            try:
                await client.create_session(
                    spec.station, series_names=spec.series_names, **spec.params
                )
                await client.prime(spec.station, spec.history)
                await client.push_block(spec.station, np.stack(spec.rows[:20]))
                for row in spec.rows[20:]:
                    await client.push(spec.station, row)
                return await client.flush()
            finally:
                await client.close()

        with server.background():
            flushed = asyncio.run(scenario())
    assert results_identical(flushed, expected)
