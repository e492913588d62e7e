"""End-to-end tests for the reconnecting gateway client and session leases.

The delivery guarantee under test: at-least-once on the wire,
exactly-once in model state.  A client whose socket dies mid-stream must
reconnect, resume its leased sessions, replay the unacknowledged outbox —
and the results must stay bit-identical to a run that never dropped.  The
server side is held to the matching bar: leases are created on disconnect
and resumed by token, a forged token is rejected without poisoning the
connection that presented it, and a resume racing a half-open stale
connection fences the old owner on the spot.
"""

import random

import numpy as np
import pytest

from repro.cluster.bench import results_identical
from repro.cluster.coordinator import ClusterCoordinator
from repro.durability import DurabilityConfig, DurabilityPolicy
from repro.exceptions import GatewayError, OverloadedError
from repro.gateway import (
    GatewayClient,
    GatewayServer,
    ResilientGatewayClient,
    build_loadgen_workload,
)
from repro.gateway import protocol
from repro.gateway import resilient as resilient_module
from repro.gateway import server as server_module
from repro.gateway.resilient import ReconnectPolicy
from repro.service import ImputationService
from tests.timing import wait_until

FAST_POLICY = ReconnectPolicy(max_attempts=8, backoff_base=0.01, backoff_cap=0.1)


def one_spec(records=24):
    return build_loadgen_workload(
        1, stations_per_connection=1, records_per_station=records
    )[0][0]


def reference_for(spec):
    service = ImputationService()
    service.create_session(
        spec.station, series_names=spec.series_names, **spec.params
    )
    service.prime(spec.station, spec.history)
    expected = []
    for row in spec.rows:
        expected.extend(service.push(spec.station, row))
    return {spec.station: expected}


@pytest.fixture()
def leased_server():
    """A gateway with leases on, over a single-process service backend."""
    with ImputationService() as service:
        server = GatewayServer(service, lease_ttl=30.0)
        with server.background():
            yield server


def resilient(server, **kwargs):
    kwargs.setdefault("policy", FAST_POLICY)
    kwargs.setdefault("rng", random.Random(7))
    return ResilientGatewayClient("127.0.0.1", server.port, **kwargs)


class TestReconnectReplay:
    def test_mid_stream_disconnects_stay_bit_identical(self, leased_server):
        spec = one_spec()
        with resilient(leased_server) as client:
            client.create_session(
                spec.station, series_names=spec.series_names, **spec.params
            )
            client.prime(spec.station, spec.history)
            for index, row in enumerate(spec.rows):
                client.push(spec.station, row)
                if index in (5, 13):
                    # No flush first: the outbox holds genuinely
                    # unacknowledged frames when the socket dies.
                    client.inject_disconnect()
            gathered = client.flush()
            assert client.reconnects == 2
            assert client.frames_replayed >= 2
            assert client.outbox_frames == 0
        stats = leased_server.stats()
        assert stats["leases_created"] >= 2
        assert stats["leases_resumed"] >= 2
        assert results_identical(gathered, reference_for(spec))

    def test_push_block_survives_a_disconnect(self, leased_server):
        spec = one_spec(records=16)
        with resilient(leased_server) as client:
            client.create_session(
                spec.station, series_names=spec.series_names, **spec.params
            )
            client.prime(spec.station, spec.history)
            client.push_block(spec.station, np.stack(spec.rows[:8]))
            client.inject_disconnect()
            client.push_block(spec.station, np.stack(spec.rows[8:]))
            gathered = client.flush()
            assert client.reconnects == 1
        assert results_identical(gathered, reference_for(spec))

    def test_replayed_duplicates_are_not_applied_twice(self, leased_server):
        spec = one_spec(records=12)
        with resilient(leased_server) as client:
            client.create_session(
                spec.station, series_names=spec.series_names, **spec.params
            )
            client.prime(spec.station, spec.history)
            for row in spec.rows:
                client.push(spec.station, row)
            # The flush ACKed everything; a disconnect now must replay
            # nothing (the outbox is empty), and a disconnect after *more*
            # pushes replays only those.
            first = client.flush()
            assert client.outbox_frames == 0
            client.inject_disconnect()
            client.ping()
            assert client.frames_replayed == 0
            # The resume re-sends no result the flush already returned.
            assert client.take_results() == {}
        stats = leased_server.stats()
        assert stats["records_in"] == len(spec.rows)
        assert results_identical(first, reference_for(spec))

    def test_give_up_when_leases_are_disabled(self):
        """With lease_ttl=0 there is nothing to resume: the reconnect cycle
        exhausts its attempts and surfaces the terminal error."""
        spec = one_spec()
        with ImputationService() as service:
            server = GatewayServer(service, lease_ttl=0.0)
            with server.background():
                with resilient(
                    server,
                    policy=ReconnectPolicy(
                        max_attempts=2, backoff_base=0.01, backoff_cap=0.02
                    ),
                ) as client:
                    client.create_session(
                        spec.station, series_names=spec.series_names,
                        **spec.params,
                    )
                    client.inject_disconnect()
                    with pytest.raises(GatewayError, match="gave up"):
                        client.push(spec.station, spec.rows[0])

    def test_closed_client_refuses_operations(self, leased_server):
        client = resilient(leased_server)
        client.close()
        client.close()  # idempotent
        with pytest.raises(GatewayError, match="closed"):
            client.push("st", {"a": 1.0})


class TestLeaseOwnership:
    def _resume_hello(self, client, station, token):
        payload = protocol.encode_hello(
            station, "", None, 0, {}, token=token, resume=True
        )
        return client._run(
            client._core._request(
                protocol.FRAME_HELLO, payload, protocol.FRAME_HELLO_OK
            )
        )

    def test_forged_token_cannot_steal_a_lease(self, leased_server):
        spec = one_spec()
        with resilient(leased_server) as client:
            client.create_session(
                spec.station, series_names=spec.series_names, **spec.params
            )
            client.prime(spec.station, spec.history)
            for row in spec.rows[:6]:
                client.push(spec.station, row)
            with GatewayClient("127.0.0.1", leased_server.port) as thief:
                with pytest.raises(GatewayError, match="no resumable lease"):
                    self._resume_hello(thief, spec.station, "forged-token")
                # The rejection poisons neither the thief's connection …
                thief.ping()
                thief.create_session("own-station", method="locf",
                                     series_names=["v"])
            # … nor the victim's stream.
            for row in spec.rows[6:]:
                client.push(spec.station, row)
            gathered = client.flush()
        assert leased_server.stats()["leases_taken_over"] == 0
        assert results_identical(gathered, reference_for(spec))

    def test_token_holder_takes_over_a_half_open_connection(self, leased_server):
        """A resume presenting the lease token while the old connection
        still looks alive fences the stale owner synchronously — the
        half-open-TCP / inherited-FD case, without waiting for the TTL."""
        spec = one_spec()
        with resilient(leased_server) as client:
            client.create_session(
                spec.station, series_names=spec.series_names, **spec.params
            )
            client.prime(spec.station, spec.history)
            for row in spec.rows[:4]:
                client.push(spec.station, row)
            client.flush()
            # The server still holds the (healthy) original connection; a
            # second connection presents the same token and resumes.
            with GatewayClient("127.0.0.1", leased_server.port) as successor:
                reply = protocol.decode_hello_ok(
                    self._resume_hello(
                        successor, spec.station, client.token
                    )
                )
                assert reply["resumed"] is True
                # Every earlier push was applied (and ACKed by the flush).
                assert reply["acked_seq"] == 4
            stats = leased_server.stats()
            assert stats["leases_taken_over"] == 1
            assert stats["leases_resumed"] >= 1

    def test_resume_reports_applied_seq_for_exact_replay_trim(self, leased_server):
        spec = one_spec()
        with resilient(leased_server) as client:
            client.create_session(
                spec.station, series_names=spec.series_names, **spec.params
            )
            client.prime(spec.station, spec.history)
            for row in spec.rows[:3]:
                client.push(spec.station, row)
            client.flush()          # acked_seq == 3 at the server
            client.push(spec.station, spec.rows[3])   # unacked: seq 3
            client.inject_disconnect()
            client.ping()           # forces the reconnect cycle
            # At most the unacked frame replayed (zero if it raced the
            # abort onto the server first); the ACKed three never do.
            assert client.reconnects == 1
            assert client.frames_replayed <= 1
            for row in spec.rows[4:]:
                client.push(spec.station, row)
            gathered = client.flush()
        assert results_identical(gathered, reference_for(spec))

    def test_lease_expires_after_ttl(self):
        spec = one_spec()
        with ImputationService() as service:
            server = GatewayServer(service, lease_ttl=0.1)
            with server.background():
                with resilient(server) as client:
                    client.create_session(
                        spec.station, series_names=spec.series_names,
                        **spec.params,
                    )
                    assert len(service.session_ids) == 1
                # Dropping a token-bearing connection leases the session
                # rather than destroying it …
                wait_until(
                    lambda: server.stats()["leases_created"] == 1,
                    message="server never leased the dropped connection's "
                    "session",
                )
                # … and the TTL sweep then removes it from the backend.
                wait_until(
                    lambda: service.session_ids == [],
                    message="lease never expired out of the backend",
                )
                assert server.stats()["leases_expired"] == 1


class TestResultRetention:
    """A token client's results are retained server-side only until the
    client reports them received, so a client that never flushes costs
    bounded memory — and a resume still re-sends exactly what was lost."""

    @staticmethod
    def _locf_stream(rows):
        values = np.arange(rows, dtype=float)
        values[1::2] = np.nan  # locf imputes every other tick
        service = ImputationService()
        service.create_session("s", method="locf", series_names=["v"])
        expected = []
        for value in values:
            expected.extend(service.push("s", {"v": float(value)}))
        return [{"v": float(value)} for value in values], {"s": expected}

    def test_retention_stays_bounded_without_flush(self, leased_server):
        rows, expected = self._locf_stream(3000)
        received = {"s": []}
        with resilient(leased_server) as client:
            client.create_session("s", method="locf", series_names=["v"])
            peak = 0
            for index, row in enumerate(rows):
                client.push("s", row)
                if index == 1700:
                    client.inject_disconnect()  # results in flight are lost
                if index % 100 == 99:
                    received["s"].extend(client.take_results().get("s", []))
                    peak = max(peak, leased_server.stats()["results_retained"])
            assert leased_server.stats()["flushes"] == 0

            def drained() -> bool:
                client.ping()  # runs the client loop: arrived results are read
                received["s"].extend(client.take_results().get("s", []))
                return len(received["s"]) >= len(expected["s"])

            wait_until(drained, timeout=30.0, message="a streamed result never arrived")
            assert client.reconnects == 1
        # 1500 results streamed; at most a RECEIVED interval (256) plus the
        # results still in flight were ever held for the client.
        assert 0 < peak <= 2 * resilient_module._RECEIVED_EVERY
        assert results_identical(received, expected)

    def test_silent_token_client_is_capped(self, leased_server, monkeypatch):
        """A token client that never reports receipt keeps the newest
        _RETAIN_LIMIT results per station, not all of them."""
        monkeypatch.setattr(server_module, "_RETAIN_LIMIT", 8)
        monkeypatch.setattr(resilient_module, "_RECEIVED_EVERY", 10**9)
        rows, expected = self._locf_stream(100)
        with resilient(leased_server) as client:
            client.create_session("s", method="locf", series_names=["v"])
            for row in rows:
                client.push("s", row)
            assert results_identical(client.flush(), expected)
            assert leased_server.stats()["results_retained"] == 8


class TestCrashRollback:
    def test_pushes_in_flight_to_a_killed_worker_are_replayed_once(self, tmp_path):
        """A worker killed with pushes in flight confirmed none of them, so
        no ACK covers them; the rolled-back session fences the connection,
        the resume restarts the stream after the confirmed records, and the
        client's replay completes a bit-identical run."""
        rows, expected = TestResultRetention._locf_stream(60)
        durability = DurabilityConfig(
            tmp_path, policy=DurabilityPolicy(checkpoint_every=1_000_000)
        )
        gathered = {"s": []}
        with ClusterCoordinator(num_workers=1, durability=durability) as cluster:
            server = GatewayServer(cluster, lease_ttl=30.0)
            with server.background(), resilient(server) as client:
                client.create_session("s", method="locf", series_names=["v"])
                for row in rows[:20]:
                    client.push("s", row)
                gathered["s"] += client.flush()["s"]
                cluster.wedge_worker(0)
                for row in rows[20:40]:
                    client.push("s", row)
                client.ping()  # the gateway admitted all 20 ...
                wait_until(lambda: cluster._inflight[0] == 20,
                           message="the pushes never reached the worker")
                cluster.terminate_worker(0)
                (report,) = cluster.heal().values()
                assert report.lost_inflight_records == 20
                client.ping()
                gathered["s"] += client.take_results().get("s", [])
                assert client._core.acked["s"] == 20  # ... but confirmed none
                assert client.outbox_frames == 20
                for row in rows[40:]:
                    client.push("s", row)
                gathered["s"] += client.flush()["s"]
                assert client.reconnects >= 1
                assert client.frames_replayed >= 20
        assert results_identical(gathered, expected)


class TestShedInteraction:
    def test_shed_consumes_its_sequence_slot(self):
        """Regression: a shed push is a refusal, not a transport failure —
        it must advance the server's applied sequence so later pushes are
        not rejected as gaps, and its replay must dedup, not re-apply."""
        spec = one_spec(records=16)
        with ImputationService() as service:
            server = GatewayServer(
                service, pause_watermark=4, shed_watermark=4, lease_ttl=30.0,
            )
            with server.background():
                with resilient(server) as client:
                    client.create_session(
                        spec.station, series_names=spec.series_names,
                        **spec.params,
                    )
                    client.prime(spec.station, spec.history)
                    # 16 records in one block climb past the shed watermark.
                    client.push_block(spec.station, np.stack(spec.rows))
                    client.ping()
                    assert client.shed
                    with pytest.raises(OverloadedError, match="shed"):
                        client._core.raise_if_shed()
                    # The stream keeps flowing: a small push lands …
                    client.push(spec.station, spec.rows[0])
                    # … and a replay of the shed frame dedups silently.
                    client.inject_disconnect()
                    client.ping()
                    client.flush()
                stats = server.stats()
        assert stats["shed_records"] == 16
        assert stats["records_in"] == 1


class TestClientSurface:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(backoff_base=0.0),
            dict(backoff_base=2.0, backoff_cap=1.0),
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(GatewayError):
            ReconnectPolicy(**kwargs)

    def test_push_without_session_raises(self, leased_server):
        with resilient(leased_server) as client:
            with pytest.raises(GatewayError, match="no open session"):
                client.push("nobody", {"a": 1.0})

    def test_duplicate_station_rejected(self, leased_server):
        with resilient(leased_server) as client:
            client.create_session("st", method="locf", series_names=["v"])
            with pytest.raises(GatewayError, match="already open"):
                client.create_session("st", method="locf", series_names=["v"])

    def test_telemetry_and_sessions_surface(self, leased_server):
        with resilient(leased_server, token="fixed-token") as client:
            assert client.token == "fixed-token"
            assert client.reconnects == 0
            assert client.outbox_frames == 0
            session_id = client.create_session(
                "st", method="locf", series_names=["v"]
            )
            assert client.sessions == {"st": session_id}
            client.push("st", {"v": 1.0})
            client.flush()
            assert client.unavailable == []
            assert client.shed == []
