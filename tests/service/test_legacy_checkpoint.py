"""Session checkpoints written before the window store existed still restore.

``tests/fixtures/tkcm_ring_buffer_checkpoint.pkl`` is an
:meth:`ImputationSession.snapshot` blob written by the previous imputer
layout, which kept one ``RingBuffer`` per series.  It was made from
:func:`_stream` with::

    session = ImputationSession(
        "tkcm", series_names=["s0", "s1", "s2"], window_length=60,
        pattern_length=4, num_anchors=3, num_references=2,
        reference_rankings={"s1": ["s2", "s0"]},
    )
    session.prime({name: matrix[:70, j] for j, name in enumerate(["s0", "s1", "s2"])})
    # rows 70-89 pushed as {s0, s1, s2} mappings, then s3 registered
    # (imputer.register_series + session.series_names) and rows 90-107
    # pushed with all four series; snapshot taken mid-gap at tick 108.

So it holds wrapped and unwrapped ring buffers (``s3`` joined late), an
automatically computed ranking (``s0``) and anchor hints.  Restoring it
must rebuild the same windows, and streaming on must give what the
original tick loop (:class:`tests.tkcm_oracle.TickTKCMImputer`, unpickled
from the same blob) gives.
"""

from __future__ import annotations

import io
import pickle
import struct
from pathlib import Path

import numpy as np

from repro.durability import CheckpointStore, RecoveryManager
from repro.service import ImputationSession
from tests.tkcm_oracle import TickTKCMImputer

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "tkcm_ring_buffer_checkpoint.pkl"
NAMES = ["s0", "s1", "s2", "s3"]
SNAPSHOT_TICK = 108


def _stream() -> np.ndarray:
    rng = np.random.default_rng(20261019)
    t = np.arange(240, dtype=float)
    matrix = np.stack(
        [np.sin(2 * np.pi * (t + shift) / 24) + 0.05 * rng.standard_normal(len(t))
         for shift in (0, 5, 9, 14)],
        axis=1,
    )
    matrix[100:112, 0] = np.nan     # target gap, open at the snapshot
    matrix[104:106, 1] = np.nan     # reference gap inside it
    matrix[150:170, 0] = np.nan     # a later gap, streamed after restore
    matrix[160, 2] = np.nan
    matrix[[120, 200, 201], 3] = np.nan  # s3: short window, then full
    return matrix


class _OracleUnpickler(pickle.Unpickler):
    """Loads the blob's imputer as the tick-loop oracle (same state layout)."""

    def find_class(self, module, name):
        if (module, name) == ("repro.core.tkcm", "TKCMImputer"):
            return TickTKCMImputer
        return super().find_class(module, name)


def _oracle() -> TickTKCMImputer:
    return _OracleUnpickler(io.BytesIO(FIXTURE.read_bytes())).load()["imputer"]


def _stream_on(push, rows):
    out = {}
    for index, row in enumerate(rows, start=SNAPSHOT_TICK):
        for name, result in push(dict(zip(NAMES, row))).items():
            out[(index, name)] = (struct.pack("<d", result.value), result.method,
                                  tuple(result.anchor_indices))
    return out


def _session_push(session):
    def push(values):
        results = session.push(values)
        return {name: est.detail for tick in results for name, est in tick.estimates.items()}
    return push


def _expected():
    return _stream_on(_oracle().observe, _stream()[SNAPSHOT_TICK:])


def test_restores_the_same_windows():
    session = ImputationSession.restore(FIXTURE.read_bytes())
    oracle = _oracle()
    imputer = session.imputer
    assert session.ticks_seen == imputer.current_tick == oracle.current_tick == SNAPSHOT_TICK
    assert imputer.series_names == oracle.series_names == NAMES
    assert [len(imputer.window(name)) for name in NAMES] == [60, 60, 60, 18]
    for name in NAMES:
        np.testing.assert_array_equal(imputer.window(name), oracle.window(name))
    assert imputer._rankings == oracle._rankings
    assert imputer._anchor_hint_state.keys() == oracle._anchor_hint_state.keys()


def test_streams_on_like_the_oracle():
    session = ImputationSession.restore(FIXTURE.read_bytes())
    got = _stream_on(_session_push(session), _stream()[SNAPSHOT_TICK:])
    expected = _expected()
    assert len(expected) > 20
    assert {method for _, method, _ in expected.values()} == {"tkcm", "fallback"}
    assert got == expected


def test_recovers_from_disk_and_streams_on(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint("station", FIXTURE.read_bytes(), tick=SNAPSHOT_TICK)
    session, report = RecoveryManager(store).recover_session("station")
    assert report.final_tick == SNAPSHOT_TICK
    got = _stream_on(_session_push(session), _stream()[SNAPSHOT_TICK:])
    assert got == _expected()
    # A checkpoint of the recovered session is in the new layout and
    # restores to the same state.
    again = ImputationSession.restore(session.snapshot())
    for name in NAMES:
        np.testing.assert_array_equal(again.imputer.window(name), session.imputer.window(name))
