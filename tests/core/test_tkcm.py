"""Unit tests for the TKCM streaming imputer (paper Sec. 4 and 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import TKCMConfig, TKCMImputer
from repro.exceptions import ConfigurationError
from tests.tkcm_oracle import TickTKCMImputer


@pytest.fixture
def sine_streams():
    """Three phase-related sines, long enough for several pattern repetitions."""
    t = np.arange(1200, dtype=float)
    period = 120.0
    return {
        "s": np.sin(2 * np.pi * t / period),
        "r1": 1.5 * np.sin(2 * np.pi * t / period) + 1.0,
        "r2": np.sin(2 * np.pi * (t - 30) / period),
    }


@pytest.fixture
def small_cfg():
    return TKCMConfig(window_length=600, pattern_length=20, num_anchors=3, num_references=2)


class TestConstruction:
    def test_series_registered_at_construction(self, small_cfg):
        imputer = TKCMImputer(small_cfg, series_names=["a", "b"])
        assert imputer.series_names == ["a", "b"]

    def test_reference_ranking_registers_series(self, small_cfg):
        imputer = TKCMImputer(small_cfg, reference_rankings={"s": ["r1", "r2"]})
        assert set(imputer.series_names) == {"s", "r1", "r2"}

    def test_target_cannot_reference_itself(self, small_cfg):
        with pytest.raises(ConfigurationError):
            TKCMImputer(small_cfg, reference_rankings={"s": ["s", "r1"]})

    def test_unknown_fallback_raises(self, small_cfg):
        with pytest.raises(ConfigurationError):
            TKCMImputer(small_cfg, fallback="zeros")

    def test_default_config_is_papers(self):
        imputer = TKCMImputer()
        assert imputer.config.num_references == 3
        assert imputer.config.num_anchors == 5
        assert imputer.config.pattern_length == 72


class TestPriming:
    def test_prime_fills_windows(self, small_cfg, sine_streams):
        imputer = TKCMImputer(small_cfg)
        imputer.prime({name: values[:700] for name, values in sine_streams.items()})
        assert imputer.current_tick == 700
        window = imputer.window("s")
        assert len(window) == small_cfg.window_length
        np.testing.assert_allclose(window, sine_streams["s"][100:700])

    def test_prime_length_mismatch_raises(self, small_cfg):
        imputer = TKCMImputer(small_cfg)
        with pytest.raises(ConfigurationError):
            imputer.prime({"a": [1.0, 2.0], "b": [1.0]})

    def test_window_of_unknown_series_raises(self, small_cfg):
        imputer = TKCMImputer(small_cfg)
        with pytest.raises(ConfigurationError):
            imputer.window("ghost")


class TestObserve:
    def test_complete_tick_returns_no_results(self, small_cfg):
        imputer = TKCMImputer(small_cfg, series_names=["a", "b"])
        assert imputer.observe({"a": 1.0, "b": 2.0}) == {}
        assert imputer.current_tick == 1

    def test_missing_value_is_imputed_and_written_back(self, small_cfg, sine_streams):
        imputer = TKCMImputer(small_cfg, reference_rankings={"s": ["r1", "r2"]})
        imputer.prime({name: values[:800] for name, values in sine_streams.items()})
        tick = {name: values[800] for name, values in sine_streams.items()}
        truth = tick["s"]
        tick["s"] = float("nan")
        results = imputer.observe(tick)
        assert set(results) == {"s"}
        result = results["s"]
        assert result.method == "tkcm"
        assert abs(result.value - truth) < 0.15
        assert imputer.window("s")[-1] == pytest.approx(result.value)

    def test_imputation_result_metadata(self, small_cfg, sine_streams):
        imputer = TKCMImputer(small_cfg, reference_rankings={"s": ["r1", "r2"]})
        imputer.prime({name: values[:800] for name, values in sine_streams.items()})
        tick = {name: values[800] for name, values in sine_streams.items()}
        tick["s"] = float("nan")
        result = imputer.observe(tick)["s"]
        assert result.series == "s"
        assert result.reference_names == ("r1", "r2")
        assert len(result.anchor_indices) == small_cfg.num_anchors
        assert len(result.anchor_values) == small_cfg.num_anchors
        assert len(result.dissimilarities) == small_cfg.num_anchors
        assert result.epsilon >= 0.0
        assert result.total_dissimilarity == pytest.approx(sum(result.dissimilarities))
        # Anchors are non-overlapping (Def. 3 condition 2).
        gaps = np.diff(sorted(result.anchor_indices))
        assert np.all(gaps >= small_cfg.pattern_length)

    def test_imputed_value_is_mean_of_anchor_values(self, small_cfg, sine_streams):
        imputer = TKCMImputer(small_cfg, reference_rankings={"s": ["r1", "r2"]})
        imputer.prime({name: values[:800] for name, values in sine_streams.items()})
        tick = {name: values[800] for name, values in sine_streams.items()}
        tick["s"] = float("nan")
        result = imputer.observe(tick)["s"]
        assert result.value == pytest.approx(float(np.mean(result.anchor_values)))

    def test_unseen_series_is_registered_on_the_fly(self, small_cfg):
        imputer = TKCMImputer(small_cfg)
        imputer.observe({"new": 3.0})
        assert "new" in imputer.series_names

    def test_missing_series_in_tick_is_treated_as_missing(self, small_cfg):
        imputer = TKCMImputer(small_cfg, series_names=["a", "b"])
        results = imputer.observe({"a": 1.0})
        assert "b" in results

    def test_consecutive_missing_values_keep_being_imputed(self, small_cfg, sine_streams):
        """TKCM never feeds on its own errors: long gaps stay accurate."""
        imputer = TKCMImputer(small_cfg, reference_rankings={"s": ["r1", "r2"]})
        imputer.prime({name: values[:800] for name, values in sine_streams.items()})
        errors = []
        for i in range(800, 1000):
            tick = {name: values[i] for name, values in sine_streams.items()}
            truth = tick["s"]
            tick["s"] = float("nan")
            result = imputer.observe(tick)["s"]
            assert result.method == "tkcm"
            errors.append(abs(result.value - truth))
        assert float(np.mean(errors)) < 0.15

    def test_reference_with_missing_value_is_skipped(self, small_cfg, sine_streams):
        """Sec. 3: the d best candidates *with a value at t_n* are used."""
        imputer = TKCMImputer(small_cfg, reference_rankings={"s": ["r1", "r2", "extra"]})
        streams = dict(sine_streams)
        streams["extra"] = np.cos(2 * np.pi * np.arange(1200) / 120.0)
        imputer.prime({name: values[:800] for name, values in streams.items()})
        tick = {name: values[800] for name, values in streams.items()}
        tick["s"] = float("nan")
        tick["r1"] = float("nan")    # best candidate unavailable at t_n
        result = imputer.observe(tick)["s"]
        assert result.method == "tkcm"
        assert result.reference_names == ("r2", "extra")


class TestImputeInPlace:
    def test_impute_does_not_advance_the_stream(self, small_cfg, sine_streams):
        imputer = TKCMImputer(small_cfg, reference_rankings={"s": ["r1", "r2"]})
        history = {name: values[:800].copy() for name, values in sine_streams.items()}
        history["s"][-1] = np.nan
        imputer.prime(history)
        ticks_before = imputer.current_tick
        result = imputer.impute("s")
        assert imputer.current_tick == ticks_before
        assert result.method == "tkcm"
        assert imputer.window("s")[-1] == pytest.approx(result.value)

    def test_impute_unknown_series_raises(self, small_cfg):
        imputer = TKCMImputer(small_cfg)
        with pytest.raises(ConfigurationError):
            imputer.impute("ghost")


class TestFallback:
    def test_locf_fallback_before_window_is_full(self, small_cfg):
        imputer = TKCMImputer(small_cfg, series_names=["s", "r1"], fallback="locf")
        imputer.observe({"s": 5.0, "r1": 1.0})
        result = imputer.observe({"s": float("nan"), "r1": 2.0})["s"]
        assert result.method == "fallback"
        assert result.value == 5.0

    def test_mean_fallback(self, small_cfg):
        imputer = TKCMImputer(small_cfg, series_names=["s", "r1"], fallback="mean")
        imputer.observe({"s": 4.0, "r1": 1.0})
        imputer.observe({"s": 6.0, "r1": 1.0})
        result = imputer.observe({"s": float("nan"), "r1": 1.0})["s"]
        assert result.method == "fallback"
        assert result.value == pytest.approx(5.0)

    def test_nan_fallback_refuses_to_impute(self, small_cfg):
        imputer = TKCMImputer(small_cfg, series_names=["s", "r1"], fallback="nan")
        imputer.observe({"s": 4.0, "r1": 1.0})
        result = imputer.observe({"s": float("nan"), "r1": 1.0})["s"]
        assert np.isnan(result.value)
        # The window keeps the NaN (nothing sensible to write back).
        assert np.isnan(imputer.window("s")[-1])

    def test_fallback_with_no_history_returns_nan(self, small_cfg):
        imputer = TKCMImputer(small_cfg, series_names=["s"], fallback="locf")
        result = imputer.observe({"s": float("nan")})["s"]
        assert np.isnan(result.value)

    def test_fallback_when_not_enough_references(self, small_cfg):
        """Only one reference registered but d=2: TKCM falls back gracefully."""
        imputer = TKCMImputer(small_cfg, reference_rankings={"s": ["r1"]})
        t = np.arange(700, dtype=float)
        imputer.prime({"s": np.sin(t / 10), "r1": np.cos(t / 10)})
        result = imputer.observe({"s": float("nan"), "r1": 0.5})["s"]
        assert result.method == "fallback"


class TestAutomaticRanking:
    def test_series_without_ranking_gets_automatic_references(self, small_cfg, sine_streams):
        imputer = TKCMImputer(small_cfg)   # no expert ranking provided
        imputer.prime({name: values[:800] for name, values in sine_streams.items()})
        tick = {name: values[800] for name, values in sine_streams.items()}
        truth = tick["s"]
        tick["s"] = float("nan")
        result = imputer.observe(tick)["s"]
        assert result.method == "tkcm"
        assert len(result.reference_names) == small_cfg.num_references
        assert "s" not in result.reference_names
        assert abs(result.value - truth) < 0.25


class TestMissingDataInReferences:
    def test_candidate_patterns_touching_nan_are_excluded(self, small_cfg, sine_streams):
        """A NaN hole in a reference's history must not corrupt the imputation."""
        imputer = TKCMImputer(small_cfg, reference_rankings={"s": ["r1", "r2"]})
        history = {name: values[:800].copy() for name, values in sine_streams.items()}
        history["r1"][400:410] = np.nan   # a hole well inside the window
        imputer.prime(history)
        tick = {name: values[800] for name, values in sine_streams.items()}
        truth = tick["s"]
        tick["s"] = float("nan")
        result = imputer.observe(tick)["s"]
        assert result.method == "tkcm"
        assert np.isfinite(result.value)
        assert abs(result.value - truth) < 0.25


class TestAnchorHintReuse:
    """The carried-over anchor-DP pruning bound must be invisible in the
    results — same imputations one row at a time and in one block, and the
    same as the tick-at-a-time oracle's."""

    def _imputer(self, use_hints: bool, cls=TKCMImputer) -> TKCMImputer:
        config = TKCMConfig(
            window_length=1200, pattern_length=12, num_anchors=3,
            num_references=2,
        )
        imputer = cls(
            config,
            series_names=["s0", "s1", "s2"],
            reference_rankings={"s0": ["s1", "s2"]},
        )
        imputer._use_anchor_hints = use_hints
        return imputer

    def _stream(self):
        rng = np.random.default_rng(1234)
        t = np.arange(1500, dtype=float)
        matrix = np.stack(
            [
                np.sin(2 * np.pi * (t + shift) / 96)
                + 0.05 * rng.standard_normal(len(t))
                for shift in (0, 7, 13)
            ],
            axis=1,
        )
        matrix[1260:1380, 0] = np.nan  # long missing block: consecutive ticks
        return matrix

    def _run(self, imputer, matrix, batch: bool):
        history = {f"s{j}": matrix[:1200, j] for j in range(3)}
        imputer.prime(history)
        outputs = {}
        if batch:
            results = imputer.observe_batch(
                matrix[1200:], ["s0", "s1", "s2"]
            )
            for offset, per_tick in results.items():
                for name, result in per_tick.items():
                    outputs[(offset, name)] = (result.value, result.method,
                                               result.anchor_indices)
        else:
            for offset, row in enumerate(matrix[1200:]):
                per_tick = imputer.observe(
                    {f"s{j}": row[j] for j in range(3)}
                )
                for name, result in per_tick.items():
                    outputs[(offset, name)] = (result.value, result.method,
                                               result.anchor_indices)
        return outputs

    def test_hints_do_not_change_results_and_are_actually_used(self):
        matrix = self._stream()
        lowered = pytest.MonkeyPatch()
        try:
            # Make pruning (and hence the hint) active at this test's window.
            from repro.core import anchor_selection

            lowered.setattr(anchor_selection, "_PRUNE_THRESHOLD", 64)
            for batch in (False, True):
                with_hints = self._imputer(True)
                without = self._imputer(False)
                got = self._run(with_hints, matrix, batch)
                expected = self._run(without, matrix, batch)
                assert got == expected
                assert with_hints._anchor_hint_state, (
                    "the hint state should have been populated"
                )
        finally:
            lowered.undo()

    def test_batch_and_tick_paths_agree_with_hints_on(self):
        matrix = self._stream()
        tick_outputs = self._run(self._imputer(True, TickTKCMImputer), matrix, batch=False)
        batch_outputs = self._run(self._imputer(True), matrix, batch=True)
        assert tick_outputs == batch_outputs

    def test_reset_clears_hint_state(self):
        matrix = self._stream()
        imputer = self._imputer(True)
        self._run(imputer, matrix, batch=True)
        assert imputer._anchor_hint_state
        imputer.reset()
        assert imputer._anchor_hint_state == {}

    def test_hint_is_often_the_chosen_total(self, monkeypatch):
        """The previous anchors moved one column along the diagonal are often
        still the optimum (38 of this gap's 119 hinted ticks), so the hint is
        as tight as a bound gets."""
        from repro.core import tkcm as tkcm_module

        calls = []
        select = tkcm_module.select_anchors

        def spy(*args, **kwargs):
            selection = select(*args, **kwargs)
            calls.append((kwargs["bound_hint"], selection.total_dissimilarity))
            return selection

        monkeypatch.setattr(tkcm_module, "select_anchors", spy)
        self._run(self._imputer(True), self._stream(), batch=False)
        hinted = [(hint, total) for hint, total in calls if hint is not None]
        assert len(hinted) == len(calls) - 1  # every tick of the gap but its first
        share = sum(hint == total for hint, total in hinted) / len(hinted)
        print(f"hint equals the chosen total on {share:.0%} of {len(hinted)} ticks")
        assert share >= 0.25
