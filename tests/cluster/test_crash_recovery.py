"""Kill-and-recover tests for the durable serving cluster.

The acceptance bar of the durability tier: a :class:`ClusterWorker` process
hard-killed mid-stream (no graceful shutdown, no flush) is respawned by the
coordinator and its sessions resume producing **bit-identical** tick results
to an uninterrupted single-process run — for TKCM and for a loop-fallback
baseline.  Also covered: full-fleet recovery into a fresh coordinator with a
different worker count, and the no-orphaned-state guarantee (drain /
remove_session delete the source worker's on-disk artifacts).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterCoordinator, ImputationService
from repro.cluster.bench import flatten_results, results_identical
from repro.durability import CheckpointStore, DurabilityConfig, DurabilityPolicy
from repro.exceptions import ClusterError, RecoveryError, RolledBackError

NAN = float("nan")

#: One real TKCM station plus two loop-fallback baseline stations.
STATIONS = {
    "stations/alpine": dict(
        method="tkcm", series_names=["a0", "a1", "a2", "a3"],
        window_length=240, pattern_length=12, num_anchors=3, num_references=2,
        reference_rankings={"a0": ["a1", "a2", "a3"]},
    ),
    "stations/valley": dict(method="locf", series_names=["v0", "v1", "v2", "v3"]),
    "stations/coast": dict(method="mean", series_names=["c0", "c1", "c2", "c3"]),
}


def _station_matrix(seed: int, num_ticks: int = 480, gap=(260, 380)) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(num_ticks, dtype=float)
    columns = [
        (1.0 + 0.1 * i) * np.sin(2 * np.pi * (t + shift) / 48)
        + 0.05 * rng.standard_normal(num_ticks)
        for i, shift in enumerate([0, 5, 11, 17])
    ]
    matrix = np.stack(columns, axis=1)
    matrix[gap[0]: gap[1], 0] = np.nan
    return matrix


def _record_stream(num_ticks: int = 480):
    matrices = {
        station: _station_matrix(seed)
        for seed, station in enumerate(sorted(STATIONS), start=60)
    }
    return [
        (station, matrices[station][t])
        for t in range(num_ticks)
        for station in sorted(STATIONS)
    ]


def _populate(target) -> None:
    for station, spec in STATIONS.items():
        params = {k: v for k, v in spec.items() if k not in ("method", "series_names")}
        target.create_session(
            station, method=spec["method"], series_names=spec["series_names"], **params
        )


def _single_process_results(records):
    service = ImputationService()
    _populate(service)
    results: dict = {station: [] for station in STATIONS}
    for station, row in records:
        results[station].extend(service.push(station, row))
    return results


def _config(tmp_path, checkpoint_every: int = 1_000_000) -> DurabilityConfig:
    """Cluster durability config; the default interval never auto-triggers,
    which maximises the WAL tail recovery has to replay."""
    return DurabilityConfig(
        tmp_path / "state", DurabilityPolicy(checkpoint_every=checkpoint_every)
    )


@pytest.fixture(scope="module")
def reference_results():
    return _single_process_results(_record_stream())


class TestKillAndRecoverParity:
    def test_worker_killed_mid_stream_resumes_bit_identically(
        self, tmp_path, reference_results
    ):
        """The acceptance test: hard-kill a worker mid-stream, heal, finish
        the stream — combined outputs equal the uninterrupted single-process
        run for TKCM and the loop-fallback baselines alike."""
        records = _record_stream()
        half = len(records) // 2
        with ClusterCoordinator(num_workers=2, durability=_config(tmp_path)) as cluster:
            _populate(cluster)
            first = cluster.push_many(records[:half])
            victim = next(w for w in range(2) if cluster.router.sessions_on(w))
            cluster.terminate_worker(victim)
            assert cluster.dead_workers() == [victim]
            reports = cluster.heal()
            assert cluster.dead_workers() == []
            assert set(reports) == {victim}
            assert reports[victim].session_ids == cluster.router.sessions_on(victim)
            assert reports[victim].records_replayed > 0, (
                "with checkpoints suppressed the whole shard stream must "
                "replay from the WAL"
            )
            second = cluster.push_many(records[half:])
        combined = {
            station: first.get(station, []) + second.get(station, [])
            for station in STATIONS
        }
        assert results_identical(combined, reference_results)
        assert flatten_results(combined), "the gaps must actually be imputed"

    def test_kill_every_worker_and_heal(self, tmp_path, reference_results):
        records = _record_stream()
        third = len(records) // 3
        with ClusterCoordinator(num_workers=2, durability=_config(tmp_path)) as cluster:
            _populate(cluster)
            collected = {station: [] for station in STATIONS}
            for chunk in (records[:third], records[third: 2 * third], records[2 * third:]):
                out = cluster.push_many(chunk)
                for station, ticks in out.items():
                    collected[station].extend(ticks)
                for index in range(cluster.num_workers):
                    cluster.terminate_worker(index)
                assert sorted(cluster.dead_workers()) == [0, 1]
                cluster.heal()
        assert results_identical(collected, reference_results)

    def test_periodic_checkpoints_shorten_replay(self, tmp_path):
        """With a tight checkpoint interval the replayed tail is bounded by
        the policy, not by the stream length."""
        records = _record_stream()
        with ClusterCoordinator(
            num_workers=1, durability=_config(tmp_path, checkpoint_every=64)
        ) as cluster:
            _populate(cluster)
            cluster.push_many(records)
            before = cluster.stats()["cluster"]["durability"]
            # Periodic checkpoints actually fired while serving (initial +
            # one per 64 records per session).
            assert before["checkpoints_written"] > len(STATIONS)
            cluster.terminate_worker(0)
            (report,) = cluster.heal().values()
            per_session = {
                outcome.session_id: outcome.wal_records
                for outcome in report.sessions
            }
            assert all(tail < 64 for tail in per_session.values()), per_session
            stats = cluster.stats()
        durability = stats["cluster"]["durability"]
        assert durability["worker_recoveries"] == 1


class TestFailureModes:
    def test_dead_worker_raises_until_healed(self, tmp_path):
        with ClusterCoordinator(num_workers=1, durability=_config(tmp_path)) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            cluster.push("s", {"x": 5.0})
            cluster.terminate_worker(0)
            with pytest.raises(ClusterError):
                cluster.push("s", {"x": 6.0})
            cluster.heal()
            assert cluster.push("s", {"x": NAN})[0]["x"].value == 5.0

    def test_recover_alive_worker_requires_termination(self, tmp_path):
        with ClusterCoordinator(num_workers=1, durability=_config(tmp_path)) as cluster:
            with pytest.raises(ClusterError, match="still alive"):
                cluster.recover_worker(0)

    def test_recovery_without_durability_raises(self):
        with ClusterCoordinator(num_workers=2) as cluster:
            cluster.terminate_worker(0)
            with pytest.raises(ClusterError, match="no durability"):
                cluster.heal()

    def test_heal_with_no_dead_workers_is_a_noop(self, tmp_path):
        with ClusterCoordinator(num_workers=2, durability=_config(tmp_path)) as cluster:
            assert cluster.heal() == {}

    def test_heal_with_multiple_dead_workers_and_pending_rows(self, tmp_path):
        """Regression: rows lingering for *another* dead worker's sessions
        must not be flushed (and lost) while the first worker recovers."""
        with ClusterCoordinator(
            num_workers=2, durability=_config(tmp_path), linger_records=1000
        ) as cluster:
            # One session pinned to each worker.
            by_shard: dict = {}
            probe = 0
            while len(by_shard) < 2:
                sid = f"probe-{probe}"
                probe += 1
                shard = cluster.router.place(sid)
                if shard not in by_shard:
                    by_shard[shard] = sid
                    cluster.create_session(sid, method="locf", series_names=["x"])
            # All synchronous pushes first: a sync push flushes the linger
            # buffer, so interleaving it after a push_nowait would emit the
            # lingered rows into the pipes before the kill and make the test
            # race the workers' journaling.
            for shard, sid in by_shard.items():
                cluster.push(sid, {"x": float(shard)})
            for shard, sid in by_shard.items():
                cluster.push_nowait(sid, {"x": 10.0 + shard})
            cluster.terminate_worker(0)
            cluster.terminate_worker(1)
            reports = cluster.heal()
            assert sorted(reports) == [0, 1]
            for shard, sid in by_shard.items():
                assert cluster.push(sid, {"x": NAN})[0]["x"].value == 10.0 + shard

    def test_pending_linger_rows_survive_a_recovery(self, tmp_path):
        """Rows accepted by push_nowait but not yet piped out are delivered
        after the shard is restored, in order."""
        with ClusterCoordinator(
            num_workers=1, durability=_config(tmp_path), linger_records=1000
        ) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            cluster.push("s", {"x": 1.0})
            cluster.push_nowait("s", {"x": 2.0})  # still coordinator-side
            cluster.terminate_worker(0)
            cluster.heal()
            results = cluster.push("s", {"x": NAN})
            assert results[0]["x"].value == 2.0

    def test_work_published_before_the_kill_is_salvaged(self, tmp_path):
        """What a worker applied and published stands even when nobody
        drained its result ring before the kill: no rollback, and the
        results are still handed out."""
        with ClusterCoordinator(num_workers=1, durability=_config(tmp_path)) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            for value in (1.0, NAN, 3.0, NAN):
                cluster.push_nowait("s", {"x": value})
            cluster.emit_pending()
            cluster.stats()  # a barrier: the worker has applied and published
            cluster.terminate_worker(0)
            (report,) = cluster.heal().values()
            assert report.lost_inflight_records == 0
            assert cluster.applied_records("s") == 4
            assert cluster.rolled_back_records("s") == 0
            assert [t["x"].value for t in cluster.flush()["s"]] == [1.0, 3.0]

    def test_unconfirmed_records_roll_back_until_rewound(self, tmp_path):
        """Records in flight to a worker that dies before confirming them
        are not kept: the session is rebuilt to its confirmed tick and
        refuses pushes until the caller rewinds and re-sends them."""
        with ClusterCoordinator(num_workers=1, durability=_config(tmp_path)) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            for value in (1.0, 2.0):
                cluster.push_nowait("s", {"x": value})
            cluster.flush()
            assert cluster.applied_records("s") == 2
            cluster.wedge_worker(0)  # its loop stops: nothing more is applied
            for value in (3.0, 4.0):
                cluster.push_nowait("s", {"x": value})
            cluster.emit_pending()
            cluster.push_nowait("s", {"x": 5.0})  # still coordinator-side
            cluster.terminate_worker(0)
            (report,) = cluster.heal().values()
            assert report.lost_inflight_records == 2
            assert cluster.applied_records("s") == 2
            assert cluster.rolled_back_records("s") == 3  # 2 in flight + 1 queued
            with pytest.raises(RolledBackError) as refused:
                cluster.push_nowait("s", {"x": 3.0})
            assert refused.value.applied == 2
            assert cluster.rewind("s") == 2
            for value in (3.0, 4.0, NAN):
                cluster.push_nowait("s", {"x": value})
            assert [t["x"].value for t in cluster.flush()["s"]][-1] == 4.0
            assert cluster.applied_records("s") == 5
            assert cluster.push("s", {"x": NAN})[0]["x"].value == 4.0


class TestFleetRecovery:
    def test_recover_from_disk_with_different_worker_count(
        self, tmp_path, reference_results
    ):
        records = _record_stream()
        half = len(records) // 2
        config = _config(tmp_path)
        with ClusterCoordinator(num_workers=2, durability=config) as cluster:
            _populate(cluster)
            first = cluster.push_many(records[:half])
        # The whole fleet is gone (graceful here; the kill tests above cover
        # the hard-crash path — on-disk state is identical either way).
        with ClusterCoordinator(num_workers=3, durability=config) as successor:
            report = successor.recover_from_disk()
            assert report.session_ids == sorted(STATIONS)
            second = successor.push_many(records[half:])
            # No orphaned copies: each session exists exactly once on disk,
            # under its current owner's shard directory.
            for station in STATIONS:
                owners = [
                    shard
                    for shard in range(3)
                    if station in CheckpointStore(
                        config.for_worker(shard).root
                    ).session_ids()
                ]
                assert owners == [successor.worker_of(station)]
        combined = {
            station: first.get(station, []) + second.get(station, [])
            for station in STATIONS
        }
        assert results_identical(combined, reference_results)

    def test_recover_worker_with_missing_disk_state_mutates_nothing(self, tmp_path):
        """Regression: an unrecoverable shard must fail BEFORE the respawn —
        raising afterwards would strand the shard empty and make the call
        unretryable ('worker is still alive')."""
        config = _config(tmp_path)
        with ClusterCoordinator(num_workers=1, durability=config) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            cluster.push("s", {"x": 1.0})
            CheckpointStore(config.for_worker(0).root).delete_session("s")
            cluster.terminate_worker(0)
            with pytest.raises(RecoveryError, match="no on-disk state"):
                cluster.recover_worker(0)
            # Nothing was mutated: the worker is still dead, so the call can
            # be retried once the operator restores the missing state.
            assert cluster.dead_workers() == [0]

    def test_recover_from_disk_cleans_stale_copies_of_live_sessions(self, tmp_path):
        """Regression: stale non-owner copies must be cleaned even when the
        session is already live (e.g. healed earlier) — a later recovery
        could otherwise resurrect the out-of-date replica."""
        config = _config(tmp_path)
        with ClusterCoordinator(num_workers=2, durability=config) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            cluster.push("s", {"x": 7.0})
            owner = cluster.worker_of("s")
            other = 1 - owner
            # A crash mid-migration left an out-of-date copy on the other shard.
            stale_store = CheckpointStore(config.for_worker(other).root)
            stale_store.write_checkpoint("s", b"out-of-date-blob", tick=0)
            report = cluster.recover_from_disk()
            assert report.session_ids == []  # the live session was not touched
            assert stale_store.session_ids() == []
            assert cluster.push("s", {"x": NAN})[0]["x"].value == 7.0

    def test_recover_from_disk_is_idempotent(self, tmp_path):
        config = _config(tmp_path)
        with ClusterCoordinator(num_workers=1, durability=config) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            cluster.push("s", {"x": 9.0})
        with ClusterCoordinator(num_workers=1, durability=config) as successor:
            assert successor.recover_from_disk().session_ids == ["s"]
            assert successor.recover_from_disk().session_ids == []  # already live
            assert successor.push("s", {"x": NAN})[0]["x"].value == 9.0


class TestArtifactLifecycle:
    def test_drain_moves_artifacts_to_the_destination_shard(self, tmp_path):
        """Regression: draining a worker must not leave its sessions'
        checkpoints/WALs behind on the drained shard — a later recovery of
        that worker would wrongly resurrect them."""
        config = _config(tmp_path)
        with ClusterCoordinator(num_workers=2, durability=config) as cluster:
            _populate(cluster)
            records = _record_stream(num_ticks=40)
            cluster.push_many(records)
            busy = next(w for w in range(2) if cluster.router.sessions_on(w))
            moved = cluster.drain(busy)
            assert moved
            source_store = CheckpointStore(config.for_worker(busy).root)
            assert source_store.session_ids() == []
            for station, (_, destination) in moved.items():
                destination_store = CheckpointStore(
                    config.for_worker(destination).root
                )
                assert station in destination_store.session_ids()

    def test_remove_session_deletes_worker_side_artifacts(self, tmp_path):
        config = _config(tmp_path)
        with ClusterCoordinator(num_workers=2, durability=config) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            cluster.push("s", {"x": 1.0})
            shard = cluster.worker_of("s")
            store = CheckpointStore(config.for_worker(shard).root)
            assert store.session_ids() == ["s"]
            cluster.remove_session("s")
            assert store.session_ids() == []

    def test_rebalance_shrink_cleans_retired_shards(self, tmp_path):
        config = _config(tmp_path)
        with ClusterCoordinator(num_workers=3, durability=config) as cluster:
            _populate(cluster)
            cluster.push_many(_record_stream(num_ticks=20))
            cluster.rebalance(1)
            for shard in (1, 2):
                assert CheckpointStore(
                    config.for_worker(shard).root
                ).session_ids() == []
            store = CheckpointStore(config.for_worker(0).root)
            assert store.session_ids() == sorted(STATIONS)


class TestTelemetry:
    def test_durability_counters_flow_through_stats(self, tmp_path):
        with ClusterCoordinator(
            num_workers=2, durability=_config(tmp_path, checkpoint_every=32)
        ) as cluster:
            _populate(cluster)
            cluster.push_many(_record_stream(num_ticks=120))
            stats = cluster.stats()
        durability = stats["cluster"]["durability"]
        assert durability["checkpoints_written"] >= len(STATIONS)
        assert durability["wal_records"] == 120 * len(STATIONS)
        assert durability["wal_bytes"] > 0
        assert durability["worker_recoveries"] == 0
        for worker_stats in stats["workers"].values():
            if worker_stats["sessions"]:
                assert worker_stats["durability"]["wal_records"] > 0

    def test_stats_stay_json_serialisable(self, tmp_path):
        import json

        with ClusterCoordinator(num_workers=1, durability=_config(tmp_path)) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            cluster.push("s", {"x": 1.0})
            cluster.terminate_worker(0)
            cluster.heal()
            payload = json.dumps(cluster.stats())
        assert "worker_recoveries" in payload
