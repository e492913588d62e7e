"""Batch/tick parity of the streaming engine.

``StreamingImputationEngine.run_batch`` must be a drop-in replacement for
``run``: same imputed values (bit-identical), same tick accounting, for any
batch size, for batch-aware imputers (TKCM) and for plain online imputers
driven through the default ``observe_batch`` loop fallback.  For TKCM the
tick run is the original tick-at-a-time algorithm
(:class:`tests.tkcm_oracle.TickTKCMImputer`), so every block size is checked
against the oracle rather than against the library's own one-row calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import TKCMConfig, TKCMImputer
from repro.baselines import KnnImputer, LocfImputer, SpiritImputer
from repro.exceptions import ConfigurationError, StreamError
from repro.streams import MultiSeriesStream, StreamingImputationEngine
from tests.tkcm_oracle import TickTKCMImputer

NAMES = ["s0", "s1", "s2", "s3"]


def _synthetic_stream(num_ticks: int = 1200, gap=(700, 900)) -> MultiSeriesStream:
    """Four correlated noisy sines; the target ``s0`` has one long gap."""
    rng = np.random.default_rng(42)
    t = np.arange(num_ticks, dtype=float)
    base = np.sin(2 * np.pi * t / 96)
    data = {}
    for i, shift in enumerate([0, 11, 23, 41]):
        data[NAMES[i]] = (
            (1.0 + 0.1 * i) * np.roll(base, shift)
            + 0.05 * rng.standard_normal(num_ticks)
        )
    data["s0"][gap[0]: gap[1]] = np.nan
    return MultiSeriesStream(data, sample_period_minutes=5.0)


def _tkcm_factory(cls=TKCMImputer, **config):
    config = TKCMConfig(
        window_length=600, pattern_length=24, num_anchors=4, num_references=2,
        **config,
    )
    return cls(config, series_names=NAMES, reference_rankings={"s0": NAMES[1:]})


def _oracle_factory(**config):
    return _tkcm_factory(TickTKCMImputer, **config)


IMPUTER_FACTORIES = {
    "tkcm": _tkcm_factory,
    "locf": lambda: LocfImputer(NAMES),
    "spirit": lambda: SpiritImputer(NAMES, num_hidden=2, ar_order=6),
    "knn": lambda: KnnImputer(NAMES, num_neighbors=3, window_length=300),
}


#: The tick run of each kind: TKCM's is the oracle, the rest run themselves.
TICK_FACTORIES = dict(IMPUTER_FACTORIES, tkcm=_oracle_factory)


@pytest.fixture(scope="module")
def stream():
    return _synthetic_stream()


class TestBatchTickParity:
    @pytest.mark.parametrize("kind", sorted(IMPUTER_FACTORIES))
    @pytest.mark.parametrize("batch_size", [1, 97, 288, 4096])
    def test_run_batch_matches_run_bit_identically(self, stream, kind, batch_size):
        factory = IMPUTER_FACTORIES[kind]
        tick = StreamingImputationEngine(TICK_FACTORIES[kind]()).run(stream)
        batch = StreamingImputationEngine(factory()).run_batch(
            stream, batch_size=batch_size
        )
        assert batch.ticks_processed == tick.ticks_processed
        # Bit-identical imputations: dict equality compares every float with ==.
        assert batch.imputed == tick.imputed
        assert batch.imputed_count() == tick.imputed_count() > 0

    @pytest.mark.parametrize("kind", sorted(IMPUTER_FACTORIES))
    def test_parity_with_warmup_and_range(self, stream, kind):
        factory = IMPUTER_FACTORIES[kind]
        tick = StreamingImputationEngine(TICK_FACTORIES[kind](), warmup_ticks=720).run(
            stream, start=0, stop=850
        )
        batch = StreamingImputationEngine(factory(), warmup_ticks=720).run_batch(
            stream, batch_size=64, start=0, stop=850
        )
        assert batch.imputed == tick.imputed
        assert batch.ticks_processed == tick.ticks_processed == 850

    def test_tkcm_parity_with_priming(self, stream):
        tick = StreamingImputationEngine(_oracle_factory()).run(stream, prime_until=700)
        batch = StreamingImputationEngine(_tkcm_factory()).run_batch(
            stream, batch_size=128, prime_until=700
        )
        assert batch.imputed == tick.imputed
        assert batch.ticks_processed == tick.ticks_processed == 500

    def test_tkcm_details_match(self, stream):
        tick = StreamingImputationEngine(_oracle_factory()).run(stream)
        batch = StreamingImputationEngine(_tkcm_factory()).run_batch(
            stream, batch_size=256
        )
        tick_details, batch_details = tick.details, batch.details
        assert set(batch_details) == set(tick_details)
        for name in tick_details:
            assert sorted(batch_details[name]) == sorted(tick_details[name])
            for index, expected in tick_details[name].items():
                got = batch_details[name][index]
                assert got.method == expected.method
                assert got.value == expected.value
                assert got.anchor_indices == expected.anchor_indices
                assert got.reference_names == expected.reference_names

    def test_tkcm_parity_with_gap_in_reference(self):
        """Write-backs into a reference series must stay order-faithful."""
        rng = np.random.default_rng(3)
        t = np.arange(900, dtype=float)
        data = {
            name: np.sin(2 * np.pi * (t + 13 * i) / 96) + 0.05 * rng.standard_normal(900)
            for i, name in enumerate(NAMES)
        }
        data["s0"][500:650] = np.nan
        data["s1"][560:580] = np.nan  # overlaps the target's gap
        stream = MultiSeriesStream(data, sample_period_minutes=5.0)
        tick = StreamingImputationEngine(_oracle_factory()).run(stream)
        batch = StreamingImputationEngine(_tkcm_factory()).run_batch(stream, batch_size=200)
        assert batch.imputed == tick.imputed

    def test_tkcm_parity_on_noise_free_periodic_data(self):
        """Regression: zero-dissimilarity ties must break like the tick path.

        Exactly periodic, noise-free signals give many candidates a (near-)
        zero distance to the query; the decomposed fast path's cancellation
        error used to flip the anchor DP's first-occurrence tie-breaking
        there.  The cancellation guard must route such ticks through the
        exact formula.
        """
        t = np.arange(1200, dtype=float)
        data = {
            name: np.sin(2 * np.pi * (t + shift) / 96)
            for name, shift in zip(NAMES, [0, 11, 23, 41])
        }
        data["s0"][700:900] = np.nan
        stream = MultiSeriesStream(data, sample_period_minutes=5.0)
        tick = StreamingImputationEngine(_oracle_factory()).run(stream)
        batch = StreamingImputationEngine(_tkcm_factory()).run_batch(stream, batch_size=97)
        assert batch.imputed == tick.imputed
        tick_details, batch_details = tick.details, batch.details
        for name in tick_details:
            for index, expected in tick_details[name].items():
                got = batch_details[name][index]
                assert got.anchor_indices == expected.anchor_indices
                assert got.dissimilarities == expected.dissimilarities

    def test_tkcm_parity_for_non_l2_metric(self, stream):
        """Metrics without a decomposed fast path use the exact fallback."""
        tick = StreamingImputationEngine(_oracle_factory(dissimilarity="l1")).run(stream)
        batch = StreamingImputationEngine(_tkcm_factory(dissimilarity="l1")).run_batch(
            stream, batch_size=256
        )
        assert batch.imputed == tick.imputed


class TestRunBatchBehaviour:
    def test_invalid_batch_size_raises(self, stream):
        engine = StreamingImputationEngine(LocfImputer(NAMES))
        with pytest.raises(StreamError):
            engine.run_batch(stream, batch_size=0)

    def test_imputer_without_batch_api_falls_back_to_tick_loop(self, stream):
        class MinimalImputer:
            """Supports observe() only — no observe_batch."""

            def __init__(self):
                self.last = {}

            def observe(self, values):
                results = {
                    name: self.last[name]
                    for name, value in values.items()
                    if np.isnan(value) and name in self.last
                }
                self.last.update(
                    {n: v for n, v in values.items() if not np.isnan(v)}
                )
                return results

        tick = StreamingImputationEngine(MinimalImputer()).run(stream)
        batch = StreamingImputationEngine(MinimalImputer()).run_batch(
            stream, batch_size=128
        )
        assert batch.imputed == tick.imputed

    def test_tkcm_observe_batch_rejects_bad_block(self):
        imputer = _tkcm_factory()
        with pytest.raises(ConfigurationError):
            imputer.observe_batch(np.zeros((4, 2)), NAMES)

    def test_tkcm_observe_batch_empty_block_is_a_noop(self):
        imputer = _tkcm_factory()
        before = imputer.current_tick
        assert imputer.observe_batch(np.empty((0, len(NAMES))), NAMES) == {}
        assert imputer.current_tick == before

    def test_tkcm_tick_counter_advances_per_block(self, stream):
        imputer = _tkcm_factory()
        imputer.observe_batch(stream.to_matrix(0, 50), stream.names)
        assert imputer.current_tick == 50


class TestColumnarAccess:
    def test_to_matrix_matches_records(self, stream):
        matrix = stream.to_matrix(10, 20)
        assert matrix.shape == (10, len(stream.names))
        for offset in range(10):
            record = stream.record(10 + offset)
            for i, name in enumerate(stream.names):
                a, b = matrix[offset, i], record.values[name]
                assert (np.isnan(a) and np.isnan(b)) or a == b

    def test_to_matrix_validates_range(self, stream):
        with pytest.raises(StreamError):
            stream.to_matrix(-1, 10)
        with pytest.raises(StreamError):
            stream.to_matrix(5, len(stream) + 1)

    def test_iter_blocks_covers_stream_exactly_once(self, stream):
        blocks = list(stream.iter_blocks(97))
        assert blocks[0][0] == 0
        total = sum(len(block) for _, block in blocks)
        assert total == len(stream)
        starts = [base for base, _ in blocks]
        assert starts == sorted(starts)
        reassembled = np.vstack([block for _, block in blocks])
        expected = stream.to_matrix()
        assert np.array_equal(reassembled, expected, equal_nan=True)

    def test_iter_blocks_validates_batch_size(self, stream):
        with pytest.raises(StreamError):
            list(stream.iter_blocks(0))

    def test_column_is_read_only(self, stream):
        column = stream.column("s1")
        with pytest.raises(ValueError):
            column[0] = 1.0
        with pytest.raises(StreamError):
            stream.column("nope")
