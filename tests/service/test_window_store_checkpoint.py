"""Session checkpoints written before the chained cross terms still restore.

``tests/fixtures/tkcm_window_store_checkpoint.pkl`` is an
:meth:`ImputationSession.snapshot` blob written by the window-store layout
that computed the L2 cross terms afresh on every call (its store pickled
the per-call ``_query_row``, ``_query_starts``, ``_candidates`` and
``_cross`` attributes, and no chains).  It was made from :func:`_stream`
with::

    session = ImputationSession(
        "tkcm", series_names=NAMES, window_length=600, pattern_length=12,
        num_anchors=3, num_references=2,
        reference_rankings={"s0": ["s1", "s2", "s3"]},
    )
    session.prime({name: matrix[:PRIMED, j] for j, name in enumerate(NAMES)})
    for row in matrix[PRIMED:SNAPSHOT_TICK]:
        session.push(dict(zip(NAMES, row)))
    blob = session.snapshot()   # mid-gap: s0 is missing from tick 700 to 779

With 577 candidates the anchor DP prunes and takes the carried-over bound.
Restoring the blob must give a store whose chains start fresh, and
streaming on must give what the original tick loop
(:class:`tests.tkcm_oracle.TickTKCMImputer`) gives when it replays the same
stream from the start: same values, methods and anchors.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from repro.service import ImputationSession
from tests.tkcm_oracle import TickTKCMImputer

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "tkcm_window_store_checkpoint.pkl"
NAMES = ["s0", "s1", "s2", "s3"]
PRIMED, SNAPSHOT_TICK = 620, 760


def _stream() -> np.ndarray:
    rng = np.random.default_rng(20261020)
    t = np.arange(900, dtype=float)
    matrix = np.stack(
        [(1.0 + 0.2 * j) * np.sin(2 * np.pi * (t + shift) / 48)
         + 0.05 * rng.standard_normal(len(t))
         for j, shift in enumerate((0, 7, 13, 29))],
        axis=1,
    )
    matrix[700:780, 0] = np.nan     # target gap, open at the snapshot
    matrix[740:743, 1] = np.nan     # a reference gap inside it
    matrix[820:860, 0] = np.nan     # a later gap, streamed after restore
    matrix[840, 2] = np.nan
    return matrix


def _keys(push, rows, first):
    out = {}
    for index, row in enumerate(rows, start=first):
        for name, result in push(dict(zip(NAMES, row))).items():
            out[(index, name)] = (struct.pack("<d", result.value), result.method,
                                  tuple(result.anchor_indices))
    return out


def test_restores_with_fresh_chains_and_streams_on_like_the_oracle():
    session = ImputationSession.restore(FIXTURE.read_bytes())
    store = session.imputer._windows
    assert session.ticks_seen == session.imputer.current_tick == SNAPSHOT_TICK
    assert store._chains == {}
    for stale in ("_query_row", "_query_starts", "_candidates", "_cross"):
        assert not hasattr(store, stale)

    def push(values):
        return {name: estimate.detail for tick in session.push(values)
                for name, estimate in tick.estimates.items()}

    matrix = _stream()
    got = _keys(push, matrix[SNAPSHOT_TICK:], SNAPSHOT_TICK)

    oracle = TickTKCMImputer(
        session.imputer.config, NAMES, {"s0": ["s1", "s2", "s3"]}
    )
    oracle.prime({name: matrix[:PRIMED, j] for j, name in enumerate(NAMES)})
    _keys(oracle.observe, matrix[PRIMED:SNAPSHOT_TICK], PRIMED)
    expected = _keys(oracle.observe, matrix[SNAPSHOT_TICK:], SNAPSHOT_TICK)
    assert len(expected) > 50
    assert {method for _, method, _ in expected.values()} == {"tkcm"}
    assert got == expected
    for name in NAMES:
        np.testing.assert_array_equal(session.imputer.window(name), oracle.window(name))
