"""Crash-recovery parity tests for durable sessions and services.

The centrepiece mirrors the snapshot-parity suite in ``tests/service/``: a
durable service that is *abandoned mid-stream* (nothing closed, nothing
flushed by hand — exactly what a crash leaves behind) must be recoverable
from disk such that the remaining imputations are **bit-identical** to an
uninterrupted run.  Covered for TKCM (vectorised ``observe_batch`` path) and
for baselines driven through the tick-loop fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ImputationService
from repro.durability import (
    DurabilityConfig,
    DurabilityPolicy,
    RecoveryManager,
)
from repro.exceptions import RecoveryError, ServiceError

NAMES = ["s0", "s1", "s2", "s3"]

TKCM_PARAMS = dict(
    window_length=240, pattern_length=12, num_anchors=3, num_references=2,
    reference_rankings={"s0": ["s1", "s2", "s3"]},
)

SESSION_SPECS = {
    "tkcm": dict(method="tkcm", **TKCM_PARAMS),
    # LOCF has no native observe_batch: exercises the tick-loop fallback.
    "locf": dict(method="locf"),
}


def _matrix(num_ticks: int = 900, gap=(500, 640), seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(num_ticks, dtype=float)
    columns = [
        (1.0 + 0.1 * i) * np.sin(2 * np.pi * (t + shift) / 48)
        + 0.05 * rng.standard_normal(num_ticks)
        for i, shift in enumerate([0, 7, 13, 21])
    ]
    matrix = np.stack(columns, axis=1)
    matrix[gap[0]: gap[1], 0] = np.nan
    return matrix


def _flatten(results) -> dict:
    return {
        (tick.index, name): tick[name].value for tick in results for name in tick
    }


def _config(tmp_path, **policy) -> DurabilityConfig:
    policy.setdefault("checkpoint_every", 100)
    return DurabilityConfig(tmp_path / "state", DurabilityPolicy(**policy))


def _reference(method_spec, matrix):
    service = ImputationService()
    service.create_session("s", series_names=NAMES, **method_spec)
    results = []
    for row in matrix:
        results.extend(service.push("s", row))
    return results


class TestCrashRecoveryParity:
    @pytest.mark.parametrize("method", sorted(SESSION_SPECS))
    def test_push_stream_parity(self, method, tmp_path):
        """Abandon a durable service mid-stream; recovery must be bit-exact."""
        matrix = _matrix()
        expected = _flatten(_reference(SESSION_SPECS[method], matrix))

        crashed = ImputationService(durability=_config(tmp_path))
        crashed.create_session("s", series_names=NAMES, **SESSION_SPECS[method])
        produced = []
        for row in matrix[:550]:
            produced.extend(crashed.push("s", row))
        # The crash: the service object is simply abandoned, mid-epoch.

        survivor = ImputationService()
        report = RecoveryManager(_config(tmp_path)).recover_into(survivor)
        assert report.session_ids == ["s"]
        (outcome,) = report.sessions
        assert outcome.final_tick == 550
        assert outcome.wal_records == 550 - outcome.checkpoint_tick
        assert outcome.wal_records > 0, "the tail must exercise WAL replay"
        for row in matrix[550:]:
            produced.extend(survivor.push("s", row))
        assert _flatten(produced) == expected

    @pytest.mark.parametrize("method", sorted(SESSION_SPECS))
    def test_push_block_stream_parity(self, method, tmp_path):
        """Block-shaped ingestion journals and recovers identically too."""
        matrix = _matrix()
        expected = _flatten(_reference(SESSION_SPECS[method], matrix))

        crashed = ImputationService(durability=_config(tmp_path, checkpoint_every=333))
        crashed.create_session("s", series_names=NAMES, **SESSION_SPECS[method])
        produced = list(crashed.push_block("s", matrix[:544]))

        survivor = ImputationService()
        RecoveryManager(_config(tmp_path)).recover_into(survivor)
        produced.extend(survivor.push_block("s", matrix[544:]))
        assert _flatten(produced) == expected

    def test_primed_session_recovers(self, tmp_path):
        matrix = _matrix()
        history = {name: matrix[:300, i] for i, name in enumerate(NAMES)}

        reference = ImputationService()
        reference.create_session("s", series_names=NAMES, **SESSION_SPECS["tkcm"])
        reference.prime("s", history)
        expected = _flatten(reference.push_block("s", matrix[300:]))

        crashed = ImputationService(durability=_config(tmp_path))
        crashed.create_session("s", series_names=NAMES, **SESSION_SPECS["tkcm"])
        crashed.prime("s", history)
        produced = list(crashed.push_block("s", matrix[300:550]))

        survivor = ImputationService()
        RecoveryManager(_config(tmp_path)).recover_into(survivor)
        produced.extend(survivor.push_block("s", matrix[550:]))
        assert _flatten(produced) == expected

    def test_partial_mapping_pushes_recover_exactly(self, tmp_path):
        """Absent series must stay absent on replay, not become NaNs.

        A duck-typed imputer may distinguish "series not reported" from an
        explicit NaN; the WAL's presence mask preserves that.
        """
        ticks = [
            {"s0": 1.0, "s1": 10.0, "s2": 5.0, "s3": 2.0},
            {"s0": 2.0},                       # s1..s3 absent, not NaN
            {"s0": float("nan"), "s1": 11.0},  # s0 missing, s2/s3 absent
            {"s1": 12.0, "s2": 6.0},
        ]
        continuation = [{"s0": float("nan"), "s1": float("nan"), "s2": 7.0, "s3": 3.0}]

        reference = ImputationService()
        reference.create_session("s", series_names=NAMES, method="locf")
        expected = []
        for tick in ticks + continuation:
            expected.extend(reference.push("s", tick))

        crashed = ImputationService(durability=_config(tmp_path))
        crashed.create_session("s", series_names=NAMES, method="locf")
        produced = []
        for tick in ticks:
            produced.extend(crashed.push("s", tick))

        survivor = ImputationService()
        report = RecoveryManager(_config(tmp_path)).recover_into(survivor)
        assert report.records_replayed == len(ticks)
        for tick in continuation:
            produced.extend(survivor.push("s", tick))
        assert _flatten(produced) == _flatten(expected)

    def test_multi_session_fleet_recovers(self, tmp_path):
        matrix = _matrix()
        crashed = ImputationService(durability=_config(tmp_path))
        for name, spec in SESSION_SPECS.items():
            crashed.create_session(name, series_names=NAMES, **spec)
            crashed.push_block(name, matrix[:520])

        survivor = ImputationService()
        report = RecoveryManager(_config(tmp_path)).recover_into(survivor)
        assert report.session_ids == sorted(SESSION_SPECS)
        # Continuations are bit-identical per session.
        for name, spec in SESSION_SPECS.items():
            continuation = survivor.push_block(name, matrix[520:])
            ref = ImputationService()
            ref.create_session(name, series_names=NAMES, **spec)
            ref.push_block(name, matrix[:520])
            assert _flatten(continuation) == _flatten(ref.push_block(name, matrix[520:]))


class TestWatermarkRecovery:
    """The ingest-policy watermark must survive crash-replay (DESIGN §2a).

    Timestamps ride in the WAL frames themselves, so a watermark advanced
    *after* the last checkpoint is restored by replaying the tail — a
    duplicate delivery retried across a crash is still rejected.
    """

    def test_duplicate_still_rejected_after_crash_replay(self, tmp_path):
        crashed = ImputationService(durability=_config(tmp_path, checkpoint_every=1000))
        crashed.create_session("s", series_names=["a"], method="locf")
        crashed.push("s", {"a": 1.0}, timestamp=10.0)
        crashed.push("s", {"a": 2.0}, timestamp=11.0)
        # An at-least-once transport retries the last delivery: dropped.
        assert crashed.push("s", {"a": 99.0}, timestamp=11.0) == []
        # The crash: nothing checkpointed since the timestamped pushes —
        # the watermark only exists in the WAL tail.

        survivor = ImputationService()
        report = RecoveryManager(_config(tmp_path)).recover_into(survivor)
        assert report.records_replayed == 2  # dropped rows were never journaled
        session = survivor.session("s")
        assert session.last_timestamp == 11.0
        # The same retry arrives again after recovery: still rejected.
        assert survivor.push("s", {"a": 99.0}, timestamp=11.0) == []
        assert session.stats()["duplicates_dropped"] == 1
        assert survivor.push("s", {"a": 99.0}, timestamp=5.0) == []
        assert session.stats()["stale_dropped"] == 1
        assert session.ticks_seen == 2
        # The stream then resumes normally.
        assert session.push({"a": 3.0}, timestamp=12.0) is not None
        assert session.ticks_seen == 3

    def test_mixed_timestamped_and_bare_pushes_replay_exactly(self, tmp_path):
        crashed = ImputationService(durability=_config(tmp_path, checkpoint_every=1000))
        crashed.create_session("s", series_names=["a", "b"], method="locf")
        crashed.push("s", {"a": 1.0, "b": 1.0}, timestamp=10.0)
        crashed.push("s", {"a": 2.0, "b": 2.0})  # untimestamped: no watermark move
        crashed.push("s", {"a": 3.0})  # partial (mask) and untimestamped
        crashed.push("s", {"b": 4.0}, timestamp=13.0)

        survivor = ImputationService()
        RecoveryManager(_config(tmp_path)).recover_into(survivor)
        session = survivor.session("s")
        assert session.ticks_seen == 4
        assert session.last_timestamp == 13.0
        assert session.stats()["duplicates_dropped"] == 0
        # LOCF state replayed exactly: "a" last saw 3.0.
        (result,) = survivor.push("s", {"a": float("nan"), "b": 5.0}, timestamp=14.0)
        assert result["a"].value == 3.0

    def test_standby_replica_tracks_the_watermark(self, tmp_path):
        from repro.cluster.standby import StandbyWorker

        config = _config(tmp_path, checkpoint_every=1000)
        service = ImputationService(durability=config)
        service.create_session("s", series_names=["a"], method="locf")
        standby = StandbyWorker(config)
        service.push("s", {"a": 1.0}, timestamp=20.0)
        service.push("s", {"a": 2.0}, timestamp=21.0)
        standby.sync()
        from repro.service import ImputationSession

        replica = ImputationSession.restore(standby.snapshot("s"))
        assert replica.last_timestamp == 21.0
        assert replica.push({"a": 9.0}, timestamp=21.0) == []  # duplicate
    def test_checkpoints_trigger_every_n_records(self, tmp_path):
        config = _config(tmp_path, checkpoint_every=50)
        service = ImputationService(durability=config)
        service.create_session("s", series_names=["a"], method="locf")
        for i in range(120):
            service.push("s", {"a": float(i)})
        info = service.store.latest_checkpoint("s")
        # Initial checkpoint at 0, then at 50 and 100 records.
        assert info.tick == 100
        assert info.version == 3
        journal = service.session("s").journal
        assert journal.records_since_checkpoint == 20

    def test_attach_writes_an_initial_checkpoint(self, tmp_path):
        service = ImputationService(durability=_config(tmp_path))
        service.create_session("s", series_names=["a"], method="locf")
        info = service.store.latest_checkpoint("s")
        assert info is not None and info.tick == 0

    def test_reset_checkpoints_the_empty_state(self, tmp_path):
        service = ImputationService(durability=_config(tmp_path))
        service.create_session("s", series_names=["a"], method="locf")
        service.push("s", {"a": 1.0})
        service.session("s").reset()
        survivor = ImputationService()
        RecoveryManager(_config(tmp_path)).recover_into(survivor)
        assert survivor.session("s").ticks_seen == 0

    def test_durability_stats_counters(self, tmp_path):
        service = ImputationService(durability=_config(tmp_path, checkpoint_every=10))
        service.create_session("s", series_names=["a"], method="locf")
        for i in range(25):
            service.push("s", {"a": float(i)})
        stats = service.durability_stats()
        assert stats["checkpoints_written"] >= 3
        assert stats["wal_records"] == 25
        assert stats["wal_bytes"] > 0
        assert ImputationService().durability_stats() is None


class TestArtifactLifecycle:
    def test_remove_session_deletes_on_disk_state(self, tmp_path):
        """Regression: a removed session must leave no orphaned artifacts
        that a later recovery would wrongly resurrect."""
        service = ImputationService(durability=_config(tmp_path))
        service.create_session("s", series_names=["a"], method="locf")
        service.push("s", {"a": 1.0})
        assert service.store.session_ids() == ["s"]
        service.remove_session("s")
        assert service.store.session_ids() == []
        with pytest.raises(RecoveryError):
            RecoveryManager(_config(tmp_path)).recover_into(
                ImputationService(), session_ids=["s"]
            )

    def test_close_session_also_deletes_artifacts(self, tmp_path):
        service = ImputationService(durability=_config(tmp_path))
        service.create_session("s", series_names=["a"], method="locf")
        service.close_session("s")
        assert service.store.session_ids() == []

    def test_close_releases_handles_but_keeps_state(self, tmp_path):
        service = ImputationService(durability=_config(tmp_path))
        service.create_session("s", series_names=["a"], method="locf")
        service.push("s", {"a": 4.0})
        service.close()  # graceful shutdown
        survivor = ImputationService()
        RecoveryManager(_config(tmp_path)).recover_into(survivor)
        assert survivor.push("s", {"a": float("nan")})[0]["a"].value == 4.0

    def test_restore_replaces_journal_and_continues_versioning(self, tmp_path):
        service = ImputationService(durability=_config(tmp_path))
        service.create_session("s", series_names=["a"], method="locf")
        service.push("s", {"a": 2.0})
        blob = service.snapshot("s")
        before = service.store.latest_checkpoint("s").version
        service.restore("s", blob)
        after = service.store.latest_checkpoint("s").version
        assert after == before + 1
        assert service.push("s", {"a": float("nan")})[0]["a"].value == 2.0


class TestServiceRecoverConvenience:
    def test_recover_re_journals_the_fleet(self, tmp_path):
        """service.recover() restores and immediately re-arms durability:
        a second crash right after recovery is itself recoverable."""
        matrix = _matrix()
        first = ImputationService(durability=_config(tmp_path))
        first.create_session("s", series_names=NAMES, **SESSION_SPECS["tkcm"])
        produced = list(first.push_block("s", matrix[:450]))

        second = ImputationService(durability=_config(tmp_path))
        report = second.recover()
        assert report.session_ids == ["s"]
        produced.extend(second.push_block("s", matrix[450:600]))
        # Crash again, recover again — durable state followed the stream.
        third = ImputationService(durability=_config(tmp_path))
        third.recover()
        produced.extend(third.push_block("s", matrix[600:]))
        expected = _flatten(_reference(SESSION_SPECS["tkcm"], matrix))
        assert _flatten(produced) == expected
        assert third.durability_stats()["recoveries"] >= 1

    def test_recover_without_durability_raises(self):
        with pytest.raises(ServiceError, match="no durability"):
            ImputationService().recover()

    def test_recover_unknown_session_raises(self, tmp_path):
        service = ImputationService(durability=_config(tmp_path))
        with pytest.raises(RecoveryError, match="no checkpoint"):
            service.recover(session_ids=["ghost"])

    def test_empty_wal_recovers_checkpoint_only(self, tmp_path):
        """Regression: a 0-byte WAL (crash between rotation and the first
        durable write) must recover from the checkpoint alone, not fail."""
        service = ImputationService(durability=_config(tmp_path))
        service.create_session("s", series_names=["a"], method="locf")
        service.push("s", {"a": 6.0})
        service.session("s").journal.checkpoint(service.session("s"))
        info = service.store.latest_checkpoint("s")
        wal_path = service.store.wal_path("s", info.version)
        with open(wal_path, "r+b") as handle:
            handle.truncate(0)
        survivor = ImputationService()
        report = RecoveryManager(_config(tmp_path)).recover_into(survivor)
        assert report.records_replayed == 0
        assert survivor.push("s", {"a": float("nan")})[0]["a"].value == 6.0

    def test_corrupt_wal_surfaces_instead_of_losing_the_tail(self, tmp_path):
        """Regression: a WAL with a damaged magic must fail recovery loudly
        — silently recovering checkpoint-only would drop acknowledged
        records."""
        from repro.exceptions import DurabilityError

        service = ImputationService(durability=_config(tmp_path))
        service.create_session("s", series_names=["a"], method="locf")
        for i in range(10):
            service.push("s", {"a": float(i)})
        info = service.store.latest_checkpoint("s")
        wal_path = service.store.wal_path("s", info.version)
        with open(wal_path, "r+b") as handle:
            handle.write(b"XXXXXXXX")  # destroy the magic
        with pytest.raises(DurabilityError, match="magic"):
            RecoveryManager(_config(tmp_path)).recover_into(ImputationService())


class TestRecoverUntil:
    """``recover_into(..., until=...)`` rebuilds a session to an earlier tick
    (a crash rollback) instead of the end of its journal."""

    @staticmethod
    def _journal(tmp_path, records, **policy):
        service = ImputationService(durability=_config(tmp_path, **policy))
        service.create_session("s", series_names=["a"], method="locf")
        for i in range(records):
            service.push("s", {"a": float(i)})
        return service

    def test_wal_tail_is_cut_at_the_tick(self, tmp_path):
        self._journal(tmp_path, 10)
        survivor = ImputationService()
        report = RecoveryManager(_config(tmp_path)).recover_into(
            survivor, until={"s": 6}
        )
        assert report.sessions[0].final_tick == 6
        assert survivor.session("s").ticks_seen == 6
        assert survivor.push("s", {"a": float("nan")})[0]["a"].value == 5.0

    def test_an_older_checkpoint_is_used_when_the_latest_is_past_the_tick(
        self, tmp_path
    ):
        self._journal(tmp_path, 10, checkpoint_every=4)
        store = _config(tmp_path, checkpoint_every=4).make_store()
        assert [c.tick for c in store.checkpoints("s")] == [4, 8]
        survivor = ImputationService()
        report = RecoveryManager(store).recover_into(survivor, until={"s": 6})
        assert (report.sessions[0].checkpoint_tick, report.sessions[0].final_tick) == (4, 6)
        assert survivor.push("s", {"a": float("nan")})[0]["a"].value == 5.0

    def test_sessions_without_a_tick_recover_to_the_end(self, tmp_path):
        self._journal(tmp_path, 10)
        survivor = ImputationService()
        RecoveryManager(_config(tmp_path)).recover_into(survivor, until={"other": 1})
        assert survivor.session("s").ticks_seen == 10
