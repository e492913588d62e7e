"""The dissimilarity vector ``D`` is a function of the stream alone.

:class:`~repro.core.tkcm.TKCMImputer` keeps the cross terms of every
reference set's latest query and advances them one column along the
diagonal (``_BatchWindows._cross_terms``).  A chain restarts only where the
stream breaks it, so feeding a stream one row at a time, in 12-row blocks
(the serving path's ``blocks_wide`` frames), as one block, or across a
pickle round trip gives bit-identical ``D``, not only the same anchors.
The streams are perfbench's own stations (``perfbench.workloads``, read
only) and a fig17-shape gap longer than ``_CHAIN_RESTART``.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np
import pytest

from perfbench.workloads import WORKLOADS, build_plan
from repro import TKCMConfig, TKCMImputer
from repro.core import tkcm as tkcm_module


def _station(workload: str, seed: int, seconds: float):
    station = build_plan(WORKLOADS[workload], seed, seconds).fleet[0]
    config = TKCMConfig(**{
        key: station.params[key]
        for key in ("window_length", "pattern_length", "num_anchors", "num_references")
    })
    return config, station.params.get("reference_rankings"), station


def _bits(results):
    """Every imputation's value, anchors and ``D`` of the selected anchors, bit for bit."""
    return {
        (tick, name): (
            struct.pack("<d", result.value),
            result.method,
            tuple(result.anchor_indices),
            struct.pack(f"<{len(result.dissimilarities)}d", *result.dissimilarities),
        )
        for tick, per_tick in results.items()
        for name, result in per_tick.items()
    }


def _feed(config, rankings, station, matrix, size, pickle_at=None):
    imputer = TKCMImputer(config, series_names=station.series_names,
                          reference_rankings=rankings)
    imputer.prime(station.history)
    results = {}
    for position in range(0, len(matrix), size):
        if position == pickle_at:
            imputer = pickle.loads(pickle.dumps(imputer))
        block = matrix[position: position + size]
        for offset, per_tick in imputer.observe_batch(block, station.series_names).items():
            results[position + offset] = per_tick
    return _bits(results)


def _fig17_gap():
    """A ``blocks_wide`` station whose target misses more than ``_CHAIN_RESTART`` ticks."""
    config, rankings, station = _station("blocks_wide", 11, 11.0)
    matrix = np.array(station.rows)
    width = tkcm_module._CHAIN_RESTART + 40
    matrix[5: 5 + width, 0] = np.nan
    return config, rankings, station, matrix[: width + 20]


@pytest.mark.parametrize("case", ["records_steady", "blocks_wide", "fig17_gap"])
def test_dissimilarities_do_not_depend_on_the_partition(case):
    if case == "fig17_gap":
        config, rankings, station, matrix = _fig17_gap()
    else:
        seconds = {"records_steady": 12.0, "blocks_wide": 4.0}[case]
        config, rankings, station = _station(case, 3, seconds)
        matrix = np.array(station.rows)
    assert np.isnan(matrix[:, 0]).sum() >= 12
    one_row = _feed(config, rankings, station, matrix, 1)
    assert {method for _, method, _, _ in one_row.values()} == {"tkcm"}
    assert _feed(config, rankings, station, matrix, 12) == one_row
    assert _feed(config, rankings, station, matrix, len(matrix)) == one_row
    # A checkpoint mid-gap carries the live chain.
    gap = np.isnan(matrix[:, 0])
    middle = next(row for row in range(1, len(matrix)) if gap[row - 1] and gap[row])
    assert _feed(config, rankings, station, matrix, 1, pickle_at=middle) == one_row


def test_chained_cross_terms_stay_close_to_a_fresh_product():
    """``_CHAIN_RESTART - 1`` chained updates drift far below the tie guard's scale."""
    config, rankings, station, matrix = _fig17_gap()
    imputer = TKCMImputer(config, series_names=station.series_names,
                          reference_rankings=rankings)
    imputer.prime(station.history)
    store = imputer._windows
    references = station.series_names[1: 1 + config.num_references]
    rows = [store.index[name] for name in references]
    length, window = config.pattern_length, config.window_length
    restart = tkcm_module._CHAIN_RESTART
    complete = np.where(np.isnan(matrix), 0.0, matrix)  # nothing to impute
    # Stream up to a restart column, then query every column of one chain.
    first = -(store._dropped + store.end) % restart
    imputer.observe_batch(complete[:first], station.series_names)
    chain = None
    worst = 0.0
    for row in complete[first: first + restart]:
        imputer.observe_batch(row[None], station.series_names)
        col = store.end - 1
        chained = store.dissimilarities(references, col, window) ** 2
        at, _, cross = store._chains[tuple(rows)]
        assert at == store._dropped + col
        assert chain is None or cross is chain  # advanced in place, never restarted
        chain = cross
        live, store._chains = store._chains, {}
        fresh = store.dissimilarities(references, col, window) ** 2
        store._chains = live
        query = store.values[rows, col + 1 - length: col + 1]
        scale = fresh.max() + np.square(query).sum()
        worst = max(worst, float(np.abs(chained - fresh).max() / scale))
    print(f"worst drift {worst:.3g} of the squared norms")
    assert worst < 1e-3 * tkcm_module._BatchWindows._TIE_GUARD
