"""Any block partition of a stream gives the tick-at-a-time oracle's imputations.

:class:`~repro.core.tkcm.TKCMImputer` has one code path: ``observe`` is a
one-row ``observe_batch``.  These tests feed the same stream one row at a
time, in random blocks and as one block, and require the same value, method
and anchor indices for every imputation as
:class:`tests.tkcm_oracle.TickTKCMImputer`, the original tick loop.  The
values come from noisy sines (hypothesis draws the shape of the stream, a
seeded generator the numbers), so no two candidate patterns are exactly
equally far from a query: the L2 dissimilarities are computed by two
formulas whose last bits differ, and only an exact tie could let that
pick different anchors.
"""

from __future__ import annotations

import itertools
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TKCMConfig, TKCMImputer
from repro.core import tkcm as tkcm_module
from tests.tkcm_oracle import TickTKCMImputer


def _signals(seed: int, ticks: int, series: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(ticks, dtype=float)
    period = rng.uniform(8.0, 20.0)
    return np.stack(
        [
            (1.0 + 0.3 * j) * np.sin(2 * np.pi * (t + 3 * j) / period)
            + 0.1 * rng.standard_normal(ticks)
            for j in range(series)
        ],
        axis=1,
    )


def _key(result):
    value = struct.pack("<d", result.value)  # NaN-safe, bit-exact equality
    return value, result.method, tuple(result.anchor_indices)


def _feed(imputer, matrix, names, sizes, absent=None, reverse=False):
    """Push ``matrix`` in blocks of ``sizes``.

    ``absent`` maps a series to the rows whose blocks leave its column out
    (no block straddles their bounds); ``reverse`` passes the columns in
    reverse order.
    """
    out = {}
    position = 0
    for size in sizes:
        block = matrix[position: position + size]
        columns = [
            name for name in names if position not in (absent or {}).get(name, ())
        ]
        if reverse:
            columns.reverse()
        data = block[:, [names.index(name) for name in columns]]
        if isinstance(imputer, TickTKCMImputer):
            for offset, row in enumerate(data):
                for name, result in imputer.observe(dict(zip(columns, row))).items():
                    out[(position + offset, name)] = _key(result)
        else:
            for offset, per_tick in imputer.observe_batch(data, columns).items():
                for name, result in per_tick.items():
                    out[(position + offset, name)] = _key(result)
        position += size
    return out


def _blocks(sizes, total, cuts=()):
    """Block sizes cycling through ``sizes`` over ``total`` rows, split at ``cuts``."""
    blocks, position = [], 0
    for size in itertools.cycle(sizes):
        if position == total:
            return blocks
        end = min([position + size, total] + [cut for cut in cuts if cut > position])
        blocks.append(end - position)
        position = end


@st.composite
def streams(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    length = draw(st.integers(2, 5))
    anchors = draw(st.integers(1, 3))
    minimum = TKCMConfig.min_window_length(length, anchors)
    config = TKCMConfig(
        window_length=draw(st.integers(minimum, minimum + 30)),
        pattern_length=length,
        num_anchors=anchors,
        num_references=draw(st.integers(1, 2)),
    )
    ticks = draw(st.integers(config.window_length + 1, 3 * config.window_length))
    # Windows may still be filling when the stream starts.
    primed = draw(st.integers(0, min(config.window_length + 5, ticks - 1)))
    matrix = _signals(seed, ticks, len(ALL_NAMES))
    gaps = [(draw(st.integers(primed, ticks - 1)), draw(st.integers(1, 15)))]
    gaps += draw(st.lists(st.tuples(st.integers(0, ticks - 1), st.integers(1, 15)),
                          max_size=3))
    for start, width in gaps:
        matrix[start: start + width, 0] = np.nan
    holes = draw(st.lists(st.tuples(st.integers(1, len(ALL_NAMES) - 1),
                                    st.integers(0, ticks - 1)), max_size=6))
    for column, tick in holes:
        matrix[tick, column] = np.nan
    streamed = ticks - primed
    # s2 is left out of the blocks (so missing) over one stretch of rows.
    gone = sorted(draw(st.lists(st.integers(0, streamed), min_size=2, max_size=2)))
    return {
        "config": config,
        "matrix": matrix,
        "primed": primed,
        # The last series registers this many streamed ticks in.
        "join": draw(st.integers(0, streamed - 1)),
        "gone": range(*gone),
        "sizes": draw(st.lists(st.integers(1, 12), min_size=1, max_size=20)),
        "reverse": draw(st.booleans()),
        "expert": draw(st.booleans()),
        "fallback": draw(st.sampled_from(["locf", "mean", "nan"])),
    }


#: The stream's series; the last one is registered mid-stream.
ALL_NAMES = ["s0", "s1", "s2", "late"]


@settings(max_examples=60, deadline=None)
@given(streams())
def test_any_partition_matches_the_tick_oracle(case):
    matrix, primed, join, gone = case["matrix"], case["primed"], case["join"], case["gone"]
    streamed = matrix[primed:]
    total = len(streamed)
    rankings = {"s0": ["s1", "s2"]} if case["expert"] else None
    absent = {"late": range(join), "s2": gone}
    cuts = (join, gone.start, gone.stop)

    runs = []
    for cls, sizes in (
        (TickTKCMImputer, [1] * total),
        (TKCMImputer, [1] * total),
        (TKCMImputer, _blocks(case["sizes"], total, cuts)),
        (TKCMImputer, _blocks([total], total, cuts)),
    ):
        imputer = cls(case["config"], series_names=ALL_NAMES[:-1],
                      reference_rankings=rankings, fallback=case["fallback"])
        imputer.prime({name: matrix[:primed, j] for j, name in enumerate(ALL_NAMES[:-1])})
        results = _feed(imputer, streamed, ALL_NAMES, sizes, absent, case["reverse"])
        runs.append((results, {name: imputer.window(name) for name in ALL_NAMES}))
    (oracle, oracle_windows), *others = runs
    for results, windows in others:
        assert results == oracle
        for name in ALL_NAMES:
            np.testing.assert_array_equal(windows[name], oracle_windows[name])


# --------------------------------------------------------------------------- #
# Small cases: other metrics and strategies, impute(), prime(), checkpoints
# --------------------------------------------------------------------------- #
NAMES = ["s0", "s1", "s2"]


def _gapped(ticks=160, seed=7):
    matrix = _signals(seed, ticks, len(NAMES))
    matrix[90:110, 0] = np.nan
    matrix[100:104, 1] = np.nan
    matrix[130:135, 0] = np.nan
    return matrix


def _pair(**config):
    config = TKCMConfig(**{"window_length": 60, "pattern_length": 4, "num_anchors": 3,
                           "num_references": 2, **config})
    rankings = {"s0": ["s1", "s2"]}
    return (TickTKCMImputer(config, NAMES, rankings), TKCMImputer(config, NAMES, rankings))


@pytest.mark.parametrize(
    "config",
    [
        {"dissimilarity": "l1"},
        {"dissimilarity": "dtw", "window_length": 30, "pattern_length": 3},
        {"selection": "greedy"},
        {"allow_overlap": True},
    ],
    ids=["l1", "dtw", "greedy", "allow_overlap"],
)
def test_other_metrics_and_strategies_match_the_oracle(config):
    matrix = _gapped()
    oracle, _ = _pair(**config)
    expected = _feed(oracle, matrix, NAMES, [len(matrix)])
    assert expected
    for sizes in ([1] * len(matrix), [7] * 22 + [6], [len(matrix)]):
        _, imputer = _pair(**config)
        assert _feed(imputer, matrix, NAMES, sizes) == expected


def test_prime_then_stream_matches_the_oracle():
    matrix = _gapped()
    oracle, imputer = _pair()
    for each in (oracle, imputer):
        each.prime({name: matrix[:80, j] for j, name in enumerate(NAMES)})
    expected = _feed(oracle, matrix[80:], NAMES, [80])
    assert _feed(imputer, matrix[80:], NAMES, [5] * 16) == expected
    assert imputer.current_tick == oracle.current_tick == 160


def test_priming_a_subset_keeps_the_other_windows():
    matrix = _gapped()
    oracle, imputer = _pair()
    for each in (oracle, imputer):
        _feed(each, matrix[:30], NAMES, [30])  # windows still filling
        each.prime({"s0": matrix[30:35, 0], "s1": matrix[30:35, 1]})
    for name in NAMES:
        np.testing.assert_array_equal(imputer.window(name), oracle.window(name))
    assert len(imputer.window("s2")) == 30
    expected = _feed(oracle, matrix[35:], NAMES, [125])
    assert _feed(imputer, matrix[35:], NAMES, [3] * 41 + [2]) == expected


def test_impute_in_place_matches_the_oracle():
    matrix = _gapped()
    oracle, imputer = _pair()
    history = {name: matrix[:95, j].copy() for j, name in enumerate(NAMES)}
    history["s0"][-1] = np.nan
    for each in (oracle, imputer):
        each.prime(history)
    assert _key(imputer.impute("s0")) == _key(oracle.impute("s0"))
    np.testing.assert_array_equal(imputer.window("s0"), oracle.window("s0"))
    # And on top of a streamed tick whose value is already written back.
    for each in (oracle, imputer):
        each.observe(dict(zip(NAMES, matrix[95])))
    assert _key(imputer.impute("s0")) == _key(oracle.impute("s0"))
    expected = _feed(oracle, matrix[96:], NAMES, [64])
    assert _feed(imputer, matrix[96:], NAMES, [64]) == expected


def test_pickled_imputer_continues_bit_identically():
    """Checkpoints keep only the live windows; norms are recomputed exactly.

    At tick 100 ``s0``'s reference set changes (``s1`` goes missing), so
    every chain of cross terms restarts there anyway; at tick 95 the gap is
    open and ``s0``'s chain is live, so only a checkpoint that carries it
    continues with the same dissimilarities.
    """
    matrix = _gapped()
    for tick in (100, 95):
        _, uninterrupted = _pair()
        _, interrupted = _pair()
        _feed(uninterrupted, matrix[:tick], NAMES, [1] * tick)
        _feed(interrupted, matrix[:tick], NAMES, [1] * tick)
        restored = pickle.loads(pickle.dumps(interrupted))
        assert restored._windows.values.shape[1] <= 60 + tkcm_module._HEADROOM
        full = [uninterrupted.observe(dict(zip(NAMES, row))) for row in matrix[tick:]]
        resumed = [restored.observe(dict(zip(NAMES, row))) for row in matrix[tick:]]
        assert full == resumed  # dissimilarities included: D is bit-identical


def test_window_store_stays_bounded():
    matrix = _signals(3, 400, len(NAMES))
    _, imputer = _pair()
    _feed(imputer, matrix, NAMES, [300, 1])
    assert imputer._windows.values.shape[1] >= 300  # a big block needs room
    _feed(imputer, matrix[301:], NAMES, [1] * 99)
    limit = imputer.config.window_length + tkcm_module._HEADROOM + 1
    assert imputer._windows.values.shape[1] <= limit
    np.testing.assert_array_equal(imputer.window("s1"), matrix[-60:, 1])


@pytest.mark.parametrize("length", [7, 20])
def test_norms_do_not_depend_on_how_many_are_settled_at_once(length):
    rng = np.random.default_rng(11)
    store = tkcm_module._BatchWindows(
        TKCMConfig(window_length=60, pattern_length=length, num_anchors=1,
                   num_references=1)
    )
    store.register(NAMES)
    store.append(rng.standard_normal((50, 3)) * 40.0, NAMES)
    for col in (length + 3, length + 4, length + 5, 40, 41, 49):
        store._settle(col)
    for series in range(3):
        for position in range(49 - length + 1):
            cells = store.values[series, position: position + length]
            assert store.norms[series, position] == (cells * cells).sum()
    assert math.isnan(store.norms[0, 49 - length + 1])  # not settled yet
