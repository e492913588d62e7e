"""The tick-at-a-time TKCM imputer: the parity oracle of the test suite.

This is the imputer's original algorithm, kept verbatim: one
:class:`~repro.core.ring_buffer.RingBuffer` of length ``L`` per series, and
for every missing value the reference windows re-extracted and the
dissimilarity vector ``D`` computed with the exact formula of
:func:`repro.core.dissimilarity.candidate_dissimilarities`.  It speaks the
same protocol as :class:`repro.core.tkcm.TKCMImputer` (``observe``,
``impute``, ``prime``, ``reset``, ``window``) but has no block path, so the
tests compare the library's imputer, fed in any block partition, against
this loop: same values, methods and anchor indices.

Its pickled state has the layout of checkpoints written before the window
store existed (``_buffers``: one ring buffer per series), which is what
``tests/service/test_legacy_checkpoint.py`` restores it from.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.config import TKCMConfig
from repro.core.anchor_selection import AnchorSelection, select_anchors
from repro.core.consistency import epsilon_of_anchors
from repro.core.dissimilarity import candidate_dissimilarities
from repro.core.reference import ReferenceRanking, rank_candidates, select_reference_series
from repro.core.ring_buffer import RingBuffer
from repro.core.tkcm import ImputationResult
from repro.exceptions import (
    ConfigurationError,
    ImputationError,
    InsufficientDataError,
    MissingReferenceError,
)

__all__ = ["TickTKCMImputer"]


class TickTKCMImputer:
    """Streaming Top-k Case Matching imputer, one tick at a time.

    Parameters
    ----------
    config:
        TKCM parameters (window length ``L``, pattern length ``l``, number of
        anchors ``k``, number of reference series ``d``, dissimilarity metric,
        selection strategy).
    series_names:
        Names of all streams handled by this imputer.  Streams can also be
        registered later with :meth:`register_series`.
    reference_rankings:
        Mapping from an incomplete series name to its ordered candidate
        reference series (best first) — the expert ranking of paper Sec. 3.
        Series without a ranking get one computed automatically from the
        window history (Pearson by default) the first time they need to be
        imputed.
    ranking_method:
        Method used for automatic rankings (``"pearson"``,
        ``"cross_correlation"`` or ``"euclidean"``).
    fallback:
        Estimate used while the window does not yet contain enough data for a
        TKCM imputation: ``"locf"`` (last observation carried forward),
        ``"mean"`` (mean of the available history) or ``"nan"`` (return NaN,
        i.e. refuse to impute).
    """

    #: Escape hatch for the parity tests: with ``False`` the anchor DP never
    #: receives the carried-over pruning bound and always recomputes its own.
    #: The selected anchors are identical either way (the bound is exact).
    _use_anchor_hints = True

    def __init__(
        self,
        config: Optional[TKCMConfig] = None,
        series_names: Optional[Iterable[str]] = None,
        reference_rankings: Optional[Mapping[str, Sequence[str]]] = None,
        ranking_method: str = "pearson",
        fallback: str = "locf",
    ) -> None:
        self.config = config or TKCMConfig()
        if fallback not in ("locf", "mean", "nan"):
            raise ConfigurationError(
                f"unknown fallback {fallback!r}; expected 'locf', 'mean' or 'nan'"
            )
        self._fallback = fallback
        self._ranking_method = ranking_method
        self._buffers: Dict[str, RingBuffer] = {}
        self._rankings: Dict[str, List[str]] = {}
        self._tick = 0
        #: Per-target (tick, window size, candidate indices) of the latest
        #: anchor selection — the carried-over DP pruning bound.
        self._anchor_hint_state: Dict[str, tuple] = {}

        for name in series_names or []:
            self.register_series(name)
        for target, candidates in (reference_rankings or {}).items():
            self.set_reference_ranking(target, candidates)

    # ------------------------------------------------------------------ #
    # Stream management
    # ------------------------------------------------------------------ #
    @property
    def series_names(self) -> List[str]:
        """Names of all registered streams, in registration order."""
        return list(self._buffers)

    @property
    def current_tick(self) -> int:
        """Number of ticks observed so far."""
        return self._tick

    def register_series(self, name: str) -> None:
        """Add a stream; its ring buffer starts empty."""
        if name not in self._buffers:
            self._buffers[name] = RingBuffer(self.config.window_length)

    def set_reference_ranking(self, target: str, candidates: Sequence[str]) -> None:
        """Set the expert-provided candidate reference ordering for ``target``."""
        candidates = [str(c) for c in candidates]
        if target in candidates:
            raise ConfigurationError(
                f"series {target!r} cannot be its own reference candidate"
            )
        self.register_series(target)
        for candidate in candidates:
            self.register_series(candidate)
        self._rankings[target] = candidates

    def window(self, name: str) -> np.ndarray:
        """Current window contents of ``name`` in chronological order."""
        if name not in self._buffers:
            raise ConfigurationError(f"unknown series {name!r}")
        return self._buffers[name].view()

    def reset(self) -> None:
        """Forget all observed data, keeping the registered series and rankings.

        Empties every ring buffer and rewinds the tick counter so the imputer
        can be reused for a fresh stream (the :class:`repro.service` session
        API relies on this).  Reference rankings — expert-provided or already
        auto-computed — are treated as configuration and survive the reset.
        """
        for name in self._buffers:
            self._buffers[name] = RingBuffer(self.config.window_length)
        self._tick = 0
        self._anchor_hint_state = {}

    def prime(self, history: Mapping[str, Sequence[float]]) -> None:
        """Pre-fill the windows with historical values (no imputation performed).

        All provided histories must have the same length.  This is how the
        evaluation harness warms TKCM up before the streaming phase begins.
        """
        lengths = {len(values) for values in history.values()}
        if len(lengths) > 1:
            raise ConfigurationError(
                f"all primed histories must have the same length, got lengths {sorted(lengths)}"
            )
        for name, values in history.items():
            self.register_series(name)
            self._buffers[name].extend(np.asarray(values, dtype=float))
        if lengths:
            self._tick += lengths.pop()

    # ------------------------------------------------------------------ #
    # Streaming protocol
    # ------------------------------------------------------------------ #
    def observe(self, values: Mapping[str, float]) -> Dict[str, ImputationResult]:
        """Advance the stream by one tick and impute every missing value.

        Parameters
        ----------
        values:
            New measurement of every stream at the current time; ``NaN``
            marks a missing value.  Streams not present in the mapping are
            treated as missing.

        Returns
        -------
        dict
            One :class:`ImputationResult` per series whose value was missing
            at this tick.  The imputed value is also written into the
            internal window.
        """
        for name in values:
            self.register_series(name)

        missing: List[str] = []
        for name, buffer in self._buffers.items():
            value = float(values.get(name, np.nan))
            buffer.append(value)
            if np.isnan(value):
                missing.append(name)
        self._tick += 1

        results: Dict[str, ImputationResult] = {}
        for name in missing:
            result = self._impute_latest(name)
            if not np.isnan(result.value):
                self._buffers[name].replace_latest(result.value)
            results[name] = result
        return results

    def impute(self, target: str) -> ImputationResult:
        """Impute the value of ``target`` at the current time from the window.

        Unlike :meth:`observe` this does not advance the stream; it assumes
        the latest appended value of ``target`` is the missing one and leaves
        the buffers untouched apart from writing back the imputed value.
        """
        if target not in self._buffers:
            raise ConfigurationError(f"unknown series {target!r}")
        result = self._impute_latest(target)
        if not np.isnan(result.value):
            self._buffers[target].replace_latest(result.value)
        return result

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _impute_latest(self, target: str) -> ImputationResult:
        try:
            return self._impute_with_tkcm(target)
        except (InsufficientDataError, MissingReferenceError, ImputationError):
            return self._fallback_result(target, self._buffers[target].view())

    def _impute_with_tkcm(self, target: str) -> ImputationResult:
        cfg = self.config
        target_window = self._buffers[target].view()
        window_size = len(target_window)
        if window_size < cfg.min_window_length(cfg.pattern_length, cfg.num_anchors):
            raise InsufficientDataError(
                f"window holds {window_size} values but at least "
                f"{cfg.min_window_length(cfg.pattern_length, cfg.num_anchors)} are required"
            )

        references = self._current_references(target, window_size)
        reference_windows = np.vstack(
            [self._buffers[name].latest(window_size) for name in references]
        )

        dissimilarities = self._candidate_dissimilarities(reference_windows)
        if not np.any(np.isfinite(dissimilarities)):
            raise ImputationError(
                "no candidate pattern without missing values exists in the window"
            )

        selection = select_anchors(
            dissimilarities,
            cfg.num_anchors,
            cfg.pattern_length,
            strategy=cfg.selection,
            allow_overlap=cfg.allow_overlap,
            bound_hint=self._anchor_bound_hint(target, self._tick, dissimilarities),
        )
        self._remember_selection(target, self._tick, window_size, selection)
        return self._result_from_selection(target, target_window, references, selection)

    # ------------------------------------------------------------------ #
    # Anchor-selection pruning-bound reuse
    # ------------------------------------------------------------------ #
    # The anchor DP prunes candidates against a *feasible-total* upper bound
    # (see repro.core.anchor_selection).  During a missing block the anchors
    # of consecutive ticks rarely change, so the previous tick's selection —
    # shifted by how far the window slid — is itself a feasible selection
    # under the current D, and its total is a near-optimal bound obtained in
    # O(k).  Reusing it replaces the generic chunk bound with a much tighter
    # one, shrinking the DP to a handful of surviving candidates.  Exactness
    # is untouched: any feasible total >= the optimal total, which is all the
    # pruning proof requires.
    def _anchor_bound_hint(
        self, target: str, abs_tick: int, dissimilarities: np.ndarray
    ) -> Optional[float]:
        """Feasible-total bound carried over from the previous tick, or ``None``."""
        cfg = self.config
        if (
            not self._use_anchor_hints
            or cfg.selection != "dp"
            or cfg.allow_overlap
        ):
            return None
        state = getattr(self, "_anchor_hint_state", None)
        previous = state.get(target) if state else None
        if previous is None:
            return None
        prev_tick, prev_window_size, prev_candidates = previous
        if abs_tick != prev_tick + 1:
            return None
        # A full window slides one position per tick (candidate j becomes
        # j - 1); a still-growing window keeps old indices in place.
        shift = 1 if prev_window_size >= cfg.window_length else 0
        shifted = prev_candidates - shift
        if shifted[0] < 0 or shifted[-1] >= len(dissimilarities):
            return None
        total = float(dissimilarities[shifted].sum())
        return total if np.isfinite(total) else None

    def _remember_selection(
        self, target: str, abs_tick: int, window_size: int, selection: AnchorSelection
    ) -> None:
        """Record a successful selection for the next tick's bound hint."""
        state = getattr(self, "_anchor_hint_state", None)
        if state is None:
            state = self._anchor_hint_state = {}
        state[target] = (
            abs_tick,
            window_size,
            np.asarray(selection.candidate_indices, dtype=int),
        )

    def _current_references(self, target: str, window_size: int) -> List[str]:
        ranking = self._rankings.get(target)
        if ranking is None:
            ranking = self._auto_rank(target, window_size)
        availability = {
            name: self._buffers[name].size >= window_size
            and not np.isnan(self._buffers[name].latest_value())
            for name in ranking
            if name in self._buffers
        }
        return select_reference_series(ranking, availability, self.config.num_references)

    def _auto_rank(self, target: str, window_size: int) -> List[str]:
        history = {
            name: buffer.latest(min(window_size, buffer.size))
            for name, buffer in self._buffers.items()
            if buffer.size >= window_size
        }
        if target not in history:
            raise MissingReferenceError(
                f"series {target!r} has no ranking and not enough history for automatic ranking"
            )
        ranking: ReferenceRanking = rank_candidates(
            target, history, method=self._ranking_method
        )
        self._rankings[target] = list(ranking.candidates)
        return self._rankings[target]

    def _candidate_dissimilarities(self, reference_windows: np.ndarray) -> np.ndarray:
        """Dissimilarity vector D, with NaN-containing candidates excluded.

        Cells where the *query pattern* itself is NaN are ignored (treated as
        zero contribution); candidate patterns containing NaN in any remaining
        cell receive an infinite dissimilarity so they cannot be selected.
        """
        cfg = self.config
        windows = np.array(reference_windows, dtype=float)
        l = cfg.pattern_length
        query = windows[:, -l:]
        query_nan = np.isnan(query)
        if query_nan.any():
            # Neutralise NaN query cells in every comparison.
            windows = windows.copy()
            query = np.where(query_nan, 0.0, query)
            windows[:, -l:] = query
        candidate_nan = np.isnan(windows)
        filled = np.where(candidate_nan, 0.0, windows)
        dissimilarities = candidate_dissimilarities(filled, l, metric=cfg.dissimilarity)

        if candidate_nan.any():
            # Mark candidates whose pattern touches a NaN cell as unusable.
            nan_any = candidate_nan.any(axis=0).astype(float)
            counts = np.convolve(nan_any, np.ones(l), mode="valid")
            num_candidates = len(dissimilarities)
            dissimilarities = dissimilarities.copy()
            dissimilarities[counts[:num_candidates] > 0] = np.inf
        return dissimilarities

    def _result_from_selection(
        self,
        target: str,
        target_window: np.ndarray,
        references: Sequence[str],
        selection: AnchorSelection,
    ) -> ImputationResult:
        anchor_values = target_window[list(selection.anchor_indices)]
        usable = ~np.isnan(anchor_values)
        if not np.any(usable):
            raise ImputationError(
                "the incomplete series has no observed value at any selected anchor point"
            )
        value = float(np.mean(anchor_values[usable]))
        return ImputationResult(
            series=target,
            value=value,
            method="tkcm",
            reference_names=tuple(references),
            anchor_indices=tuple(int(i) for i in selection.anchor_indices),
            anchor_values=tuple(anchor_values.tolist()),
            dissimilarities=tuple(selection.dissimilarities),
            epsilon=epsilon_of_anchors(anchor_values[usable]),
        )

    def _fallback_result(self, target: str, window: np.ndarray) -> ImputationResult:
        history = window[:-1] if len(window) else window
        observed = history[~np.isnan(history)]
        if self._fallback == "nan" or len(observed) == 0:
            value = float("nan")
        elif self._fallback == "locf":
            value = float(observed[-1])
        else:  # mean
            value = float(np.mean(observed))
        return ImputationResult(series=target, value=value, method="fallback")
