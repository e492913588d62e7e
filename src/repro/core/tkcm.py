"""The Top-k Case Matching (TKCM) streaming imputer (paper Sec. 4 and 6).

:class:`TKCMImputer` keeps the last ``L`` values of every time series and
imputes the current value of an incomplete series in three steps:

1. *Pattern extraction* — compute the dissimilarity of every candidate
   pattern in the window to the query pattern anchored at the current time
   (Def. 1, 2; Algorithm 1 lines 1-7).
2. *Pattern selection* — pick the ``k`` most similar non-overlapping patterns
   with the dynamic program of Eq. 5 (Algorithm 1 lines 8-23).
3. *Value imputation* — average the incomplete series' values at the selected
   anchor points (Def. 4; Algorithm 1 lines 24-27).

Missing values are represented as ``NaN``.  The imputer follows the streaming
protocol of :class:`repro.baselines.base.OnlineImputer`: call
:meth:`TKCMImputer.observe` once per tick with the new measurement of every
series, or :meth:`TKCMImputer.observe_batch` with a block of ticks; the two
run the same code, so any block partition of a stream gives the same
imputations.  Imputed values are written back into the window so subsequent
imputations can use them, exactly as in the paper (e.g. the imputed
``r2(13:40)`` of Table 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..config import TKCMConfig
from ..exceptions import (
    ConfigurationError,
    ImputationError,
    InsufficientDataError,
    MissingReferenceError,
)
from . import anchor_selection
from .anchor_selection import AnchorSelection, select_anchors
from .dissimilarity import candidate_dissimilarities
from .reference import ReferenceRanking, rank_candidates, select_reference_series

__all__ = ["TKCMImputer", "ImputationResult"]


@dataclass(frozen=True)
class ImputationResult:
    """Outcome of imputing one missing value.

    Attributes
    ----------
    series:
        Name of the imputed (incomplete) time series ``s``.
    value:
        The imputed value ``s_hat(t_n)``.
    method:
        ``"tkcm"`` for a regular imputation, ``"fallback"`` when the window
        did not yet contain enough data and the fallback estimate was used.
    reference_names:
        The reference series ``R_s`` used to build the query pattern.
    anchor_indices:
        Window indices of the selected anchor points (``L - 1`` is the
        current time).
    anchor_values:
        Values of ``s`` at the anchor points (the values averaged by Def. 4).
    dissimilarities:
        Pattern dissimilarities of the selected anchors to the query pattern.
    epsilon:
        Spread of the anchor values (Def. 5); ``nan`` for fallback results.
    """

    series: str
    value: float
    method: str = "tkcm"
    reference_names: tuple = ()
    anchor_indices: tuple = ()
    anchor_values: tuple = ()
    dissimilarities: tuple = ()
    epsilon: float = float("nan")

    @property
    def total_dissimilarity(self) -> float:
        """Sum of the selected anchors' dissimilarities (objective of Def. 3)."""
        return float(sum(self.dissimilarities)) if self.dissimilarities else float("nan")


class TKCMImputer:
    """Streaming Top-k Case Matching imputer.

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
        self._windows = _BatchWindows(self.config)
        self._rankings: Dict[str, List[str]] = {}
        self._tick = 0
        #: Per-target (tick, window size, candidate indices) of the latest
        #: anchor selection — the carried-over DP pruning bound.
        self._anchor_hint_state: Dict[str, tuple] = {}

        self._windows.register(series_names or [])
        for target, candidates in (reference_rankings or {}).items():
            self.set_reference_ranking(target, candidates)

    def __setstate__(self, state: dict) -> None:
        # Checkpoints written before the window store existed hold one
        # ``RingBuffer`` per series; rebuild the store from their contents.
        buffers = state.pop("_buffers", None)
        self.__dict__.update(state)
        if buffers is not None:
            self._windows = _BatchWindows.from_buffers(self.config, buffers)
            # Checkpoints older than the anchor hints lack their state.
            self.__dict__.setdefault("_anchor_hint_state", {})

    # ------------------------------------------------------------------ #
    # Stream management
    # ------------------------------------------------------------------ #
    @property
    def series_names(self) -> List[str]:
        """Names of all registered streams, in registration order."""
        return list(self._windows.names)

    @property
    def current_tick(self) -> int:
        """Number of ticks observed so far."""
        return self._tick

    def register_series(self, name: str) -> None:
        """Add a stream; its window starts empty."""
        self._windows.register([name])

    def set_reference_ranking(self, target: str, candidates: Sequence[str]) -> None:
        """Set the expert-provided candidate reference ordering for ``target``."""
        candidates = [str(c) for c in candidates]
        if target in candidates:
            raise ConfigurationError(
                f"series {target!r} cannot be its own reference candidate"
            )
        self._windows.register([target, *candidates])
        self._rankings[target] = candidates

    def window(self, name: str) -> np.ndarray:
        """Current window contents of ``name`` in chronological order."""
        windows = self._windows
        if name not in windows.index:
            raise ConfigurationError(f"unknown series {name!r}")
        return windows.window(windows.index[name], windows.end - 1).copy()

    def reset(self) -> None:
        """Forget all observed data, keeping the registered series and rankings.

        Empties every window and rewinds the tick counter so the imputer
        can be reused for a fresh stream (the :class:`repro.service` session
        API relies on this).  Reference rankings — expert-provided or already
        auto-computed — are treated as configuration and survive the reset.
        """
        names = self._windows.names
        self._windows = _BatchWindows(self.config)
        self._windows.register(names)
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
        self._windows.register(history)
        if lengths:
            length = lengths.pop()
            self._windows.prime(
                {name: np.asarray(values, dtype=float) for name, values in history.items()},
                length,
            )
            self._tick += length

    # ------------------------------------------------------------------ #
    # Streaming protocol
    # ------------------------------------------------------------------ #
    def observe(self, values: Mapping[str, float]) -> Dict[str, ImputationResult]:
        """Advance the stream by one tick and impute every missing value.

        A one-row :meth:`observe_batch`.

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
        names = list(values)
        row = np.array([[float(values[name]) for name in names]])
        return self.observe_batch(row, names).get(0, {})

    def observe_batch(
        self, block: np.ndarray, names: Sequence[str]
    ) -> Dict[int, Dict[str, ImputationResult]]:
        """Advance the stream by a whole block of ticks at once.

        The rows are appended to the persistent window store
        (:class:`_BatchWindows`) and every missing value is imputed in stream
        order — row by row, and within a row in series registration order —
        with each imputed value written back before the next one is computed.
        Nothing is rebuilt per call: only the cross terms of the L2
        dissimilarity are, as one matrix product per reference set covering
        every row of the block.

        Parameters
        ----------
        block:
            ``(ticks, num_series)`` matrix, one row per tick in stream order;
            ``NaN`` marks a missing value.  Registered series absent from
            ``names`` are treated as missing at every tick, exactly as in
            :meth:`observe`.
        names:
            Stream names aligned with the block's columns.

        Returns
        -------
        dict
            ``{row offset: {series: ImputationResult}}`` for every tick that
            had at least one missing value.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != len(names):
            raise ConfigurationError(
                f"block must be 2-D with {len(names)} columns, got shape {block.shape}"
            )
        windows = self._windows
        windows.register(names)
        num_ticks = block.shape[0]
        if num_ticks == 0:
            return {}

        base = windows.append(block, names)
        tick = self._tick
        self._tick += num_ticks
        missing = np.isnan(windows.values[:, base: base + num_ticks])
        results: Dict[int, Dict[str, ImputationResult]] = {}
        if not missing.any():
            return results
        # (row, series) pairs in stream order: by row, then registration.
        offsets, series = (index.tolist() for index in missing.T.nonzero())
        windows.begin([base + offset for offset in dict.fromkeys(offsets)])
        try:
            for offset, j in zip(offsets, series):
                results.setdefault(offset, {})[windows.names[j]] = self._impute(
                    j, base + offset, tick + offset + 1
                )
        finally:
            windows.finish()
        return results

    def impute(self, target: str) -> ImputationResult:
        """Impute the value of ``target`` at the current time from the window.

        Unlike :meth:`observe` this does not advance the stream; it assumes
        the latest appended value of ``target`` is the missing one and leaves
        the windows untouched apart from writing back the imputed value.
        """
        windows = self._windows
        if target not in windows.index:
            raise ConfigurationError(f"unknown series {target!r}")
        col = windows.end - 1
        windows.begin([col])
        try:
            return self._impute(windows.index[target], col, self._tick)
        finally:
            windows.finish()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _impute(self, series: int, col: int, abs_tick: int) -> ImputationResult:
        """Impute ``series`` at store column ``col`` and write the value back."""
        windows = self._windows
        try:
            result = self._tkcm(series, col, abs_tick)
        except (InsufficientDataError, MissingReferenceError, ImputationError):
            result = self._fallback_result(
                windows.names[series], windows.window(series, col)
            )
        if not math.isnan(result.value):
            windows.values[series, col] = result.value
        return result

    def _tkcm(self, series: int, col: int, abs_tick: int) -> ImputationResult:
        """The three TKCM phases for the query ending at store column ``col``."""
        cfg = self.config
        windows = self._windows
        target = windows.names[series]
        window_size = windows.size(series, col)
        minimum = cfg.min_window_length(cfg.pattern_length, cfg.num_anchors)
        if window_size < minimum:
            raise InsufficientDataError(
                f"window holds {window_size} values but at least {minimum} are required"
            )

        references = self._references(target, window_size, col)
        dissimilarities = windows.dissimilarities(references, col, window_size)
        if not np.minimum.reduce(dissimilarities) < np.inf:
            raise ImputationError(
                "no candidate pattern without missing values exists in the window"
            )

        selection = select_anchors(
            dissimilarities,
            cfg.num_anchors,
            cfg.pattern_length,
            strategy=cfg.selection,
            allow_overlap=cfg.allow_overlap,
            bound_hint=self._anchor_bound_hint(target, abs_tick, dissimilarities),
        )
        self._remember_selection(target, abs_tick, window_size, selection)
        return self._result_from_selection(
            target, windows.window(series, col), references, selection
        )

    def _references(self, target: str, window_size: int, col: int) -> List[str]:
        """``R_s``: the first ``d`` ranked candidates with a value at ``col`` (Sec. 3)."""
        ranking = self._rankings.get(target)
        if ranking is None:
            ranking = self._rank(target, window_size, col)
        windows = self._windows
        index = windows.index
        latest = windows.values[:, col].tolist()
        availability = {
            name: windows.size(index[name], col) >= window_size
            and not math.isnan(latest[index[name]])
            for name in ranking
            if name in index
        }
        return select_reference_series(ranking, availability, self.config.num_references)

    def _rank(self, target: str, window_size: int, col: int) -> List[str]:
        """Rank every series with a full-length window as ``target``'s candidates."""
        windows = self._windows
        history = {
            name: windows.window(j, col)[-window_size:]
            for j, name in enumerate(windows.names)
            if windows.size(j, col) >= window_size
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
            # Too few candidates for the DP to prune: it ignores the bound.
            or len(dissimilarities) < anchor_selection._PRUNE_THRESHOLD
        ):
            return None
        previous = self._anchor_hint_state.get(target)
        if previous is None:
            return None
        prev_tick, prev_window_size, prev_candidates = previous
        if abs_tick != prev_tick + 1:
            return None
        # A full window slides one position per tick (candidate j becomes
        # j - 1); a still-growing window keeps old indices in place.
        shift = 1 if prev_window_size >= cfg.window_length else 0
        shifted = np.asarray(prev_candidates) - shift
        if shifted[0] < 0 or shifted[-1] >= len(dissimilarities):
            return None
        total = float(dissimilarities[shifted].sum())
        return total if np.isfinite(total) else None

    def _remember_selection(
        self, target: str, abs_tick: int, window_size: int, selection: AnchorSelection
    ) -> None:
        """Record a successful selection for the next tick's bound hint."""
        self._anchor_hint_state[target] = (
            abs_tick, window_size, selection.candidate_indices
        )

    def _result_from_selection(
        self,
        target: str,
        target_window: np.ndarray,
        references: Sequence[str],
        selection: AnchorSelection,
    ) -> ImputationResult:
        anchor_values = target_window[list(selection.anchor_indices)].tolist()
        usable = [value for value in anchor_values if not math.isnan(value)]
        if not usable:
            raise ImputationError(
                "the incomplete series has no observed value at any selected anchor point"
            )
        return ImputationResult(
            series=target,
            # The mean of the usable anchor values, as ``np.mean`` computes it.
            value=float(np.add.reduce(usable)) / len(usable),
            method="tkcm",
            reference_names=tuple(references),
            anchor_indices=selection.anchor_indices,
            anchor_values=tuple(anchor_values),
            dissimilarities=selection.dissimilarities,
            # Def. 5's spread, as ``consistency.epsilon_of_anchors`` computes it.
            epsilon=max(usable) - min(usable),
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


#: Spare columns allocated past the live windows, so appends only move the
#: windows back to the front of the store once every this many ticks.
_HEADROOM = 32


class _BatchWindows:
    """Persistent window store of one :class:`TKCMImputer`.

    ``values`` holds every series as one row, sharing one column axis: the
    latest tick of every series sits in column ``end - 1``, and the window of
    series ``j`` ending at column ``c`` is ``values[j, c + 1 - size(j, c):
    c + 1]``, its size capped at ``L``.  Appending a block writes its rows
    into spare columns; once the spare columns run out, the last ``L``
    columns move back to the front (amortised over ``_HEADROOM`` ticks).

    Next to the values, ``norms[j, p]`` is the squared norm of the
    length-``l`` subsequence of series ``j`` starting at column ``p``.  It
    is computed once, when every cell of the subsequence is final (all
    rows before the current query have been imputed), so the L2
    dissimilarity of candidate ``p`` to the query at column ``c`` is::

        D2[p] = sum over references of norms[p] - 2 * cross[p] + ||query||^2

    where ``cross[p]`` is the dot product of the query pattern with the
    subsequence at ``p``: one matrix product per reference set and call,
    covering every query row of the call.  The exact formula is used
    instead for non-L2 metrics, for windows that hold a NaN (their
    decomposed terms are NaN), and where the decomposition's rounding could
    order candidates differently from it (the two guards below).
    """

    #: A squared dissimilarity below this fraction of the query's squared
    #: norm is dominated by the decomposition's cancellation error.
    _CANCELLATION_GUARD = 1e-9
    #: Two squared dissimilarities closer than this fraction of the largest
    #: plus the query's squared norm may swap order.  Common: a reference
    #: imputed with k = 2 anchors is their midpoint, as far from one as from
    #: the other.  Ties between sums of different candidates go undetected.
    _TIE_GUARD = 1e-11

    def __init__(self, config: TKCMConfig) -> None:
        self._window_length = config.window_length
        self._pattern_length = config.pattern_length
        self._metric = config.dissimilarity
        self.names: List[str] = []
        self.index: Dict[str, int] = {}
        #: Per series, the column of its first value (``-L`` once it is older
        #: than any window can reach).
        self._first: List[int] = []
        self.values = np.empty((0, _HEADROOM))
        self.norms = np.empty((0, _HEADROOM))
        #: One past the latest column written.
        self.end = 0
        #: Norms of every subsequence starting before this column are computed.
        self._norm_end = 0
        self.finish()

    @classmethod
    def from_buffers(cls, config: TKCMConfig, buffers: Mapping[str, object]) -> "_BatchWindows":
        """Build the store from per-series ring buffers (same window contents)."""
        store = cls(config)
        contents = {name: buffer.view() for name, buffer in buffers.items()}
        store.register(contents)
        keep = max((len(window) for window in contents.values()), default=0)
        store._reserve(keep)
        for j, window in enumerate(contents.values()):
            store.values[j, keep - len(window): keep] = window
            store._first[j] = keep - len(window)
        store.end = keep
        return store

    def __getstate__(self) -> dict:
        # Only the live windows are saved; norms are recomputed on demand
        # (bit for bit: each norm depends on its own subsequence alone).
        keep = min(self.end, self._window_length)
        shift = self.end - keep
        state = self.__dict__.copy()
        state.update(
            values=self.values[:, shift: self.end].copy(),
            norms=None,
            _first=[max(first - shift, -self._window_length) for first in self._first],
            end=keep,
            _norm_end=0,
        )
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        live = self.values
        self.values = np.full((len(self.names), self.end + _HEADROOM), np.nan)
        self.values[:, : self.end] = live
        self.norms = np.full_like(self.values, np.nan)
        self.finish()

    def register(self, names: Iterable[str]) -> None:
        """Add the unknown ``names``; their windows start at the next appended column."""
        new = [name for name in dict.fromkeys(names) if name not in self.index]
        if not new:
            return
        for name in new:
            self.index[name] = len(self.names)
            self.names.append(name)
            self._first.append(self.end)
        blank = np.full((len(new), self.values.shape[1]), np.nan)
        self.values = np.concatenate((self.values, blank))
        self.norms = np.concatenate((self.norms, blank))

    def size(self, series: int, col: int) -> int:
        """Window size of ``series`` for the window ending at column ``col``."""
        return min(col + 1 - self._first[series], self._window_length)

    def window(self, series: int, col: int) -> np.ndarray:
        """View of the window of ``series`` ending at column ``col``."""
        return self.values[series, col + 1 - self.size(series, col): col + 1]

    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` more columns, dropping what no window reaches."""
        if self.end + rows <= self.values.shape[1]:
            return
        keep = min(self.end, self._window_length)
        shift = self.end - keep
        # Grow geometrically while the windows fill, then stay at L + headroom.
        capacity = max(keep + rows, min(2 * keep, self._window_length)) + _HEADROOM
        values = np.full((len(self.names), capacity), np.nan)
        values[:, :keep] = self.values[:, shift: self.end]
        norms = np.full_like(values, np.nan)
        norms[:, :keep] = self.norms[:, shift: self.end]
        self.values, self.norms = values, norms
        self.end = keep
        self._norm_end = max(self._norm_end - shift, 0)
        self._first = [max(first - shift, -self._window_length) for first in self._first]

    def append(self, block: np.ndarray, names: Sequence[str]) -> int:
        """Append ``block``'s rows (absent series get NaN); returns the first column."""
        rows = block.shape[0]
        self._reserve(rows)
        base = self.end
        cells = self.values[:, base: base + rows]
        if list(names) == self.names:
            cells[...] = block.T
        else:
            cells.fill(np.nan)
            for k, name in enumerate(names):
                cells[self.index[name]] = block[:, k]
        self.end = base + rows
        return base

    def prime(self, history: Mapping[str, np.ndarray], length: int) -> None:
        """Append ``length`` values to every series in ``history``.

        Series left out keep their window, which still ends at the latest
        column: their values move right by the appended width.
        """
        width = min(length, self._window_length)
        if width == 0:
            return
        self._reserve(width)
        end = self.end
        for j, name in enumerate(self.names):
            if name in history:
                self.values[j, end: end + width] = history[name][length - width:]
                continue
            size = self.size(j, end - 1)
            kept = self.values[j, end - size: end].copy()
            self.values[j, end - size: end + width] = np.nan
            self.values[j, end + width - size: end + width] = kept
            self._first[j] += width
            self._norm_end = 0  # this series' subsequences moved
        self.end = end + width

    # ------------------------------------------------------------------ #
    # Dissimilarities
    # ------------------------------------------------------------------ #
    def begin(self, query_cols: List[int]) -> None:
        """Start a call whose queries end at ``query_cols`` (ascending)."""
        length = self._pattern_length
        self._query_row = {col: row for row, col in enumerate(query_cols)}
        # Query patterns too early to be complete are clamped; they are never
        # read (the window-size check rejects them first).
        self._query_starts = [max(col + 1 - length, 0) for col in query_cols]
        # The candidates any query of the call can use: from the oldest
        # window start to the newest query's last candidate.
        self._candidates = (
            max(query_cols[0] + 1 - self._window_length, 0),
            query_cols[-1] + 2 - 2 * length,
        )

    def finish(self) -> None:
        """End the call: drop its cross terms."""
        self._query_row, self._query_starts, self._candidates = {}, [], (0, 0)
        self._cross: Dict[tuple, tuple] = {}

    def dissimilarities(
        self, references: Sequence[str], col: int, window_size: int
    ) -> np.ndarray:
        """Candidate dissimilarity vector ``D`` for the query ending at ``col``."""
        rows = [self.index[name] for name in references]
        start = col + 1 - window_size
        if self._metric == "l2":
            decomposed = self._decomposed(rows, col, start, window_size)
            if decomposed is not None:
                return decomposed
        return self._exact(self.values[rows, start: col + 1])

    def _decomposed(
        self, rows: List[int], col: int, start: int, window_size: int
    ) -> Optional[np.ndarray]:
        """L2 ``D`` from norms and cross terms, or ``None`` where it is unsafe."""
        count = window_size - 2 * self._pattern_length + 1
        self._settle(col)
        key = tuple(rows)
        terms = self._cross.get(key)
        if terms is None:
            terms = self._cross[key] = self._cross_terms(rows)
        cross, query_norms = terms
        query = self._query_row[col]
        offset = start - self._candidates[0]
        total = self.norms[rows, start: start + count].sum(axis=0)
        total -= cross[query, offset: offset + count]
        query_norm = query_norms[query]
        total += query_norm
        ordered = np.sort(total)
        closest = np.minimum.reduce(ordered[1:] - ordered[:-1], initial=np.inf)
        # NaN (a missing cell in some window) fails the comparisons too.
        if not (ordered[0] >= self._CANCELLATION_GUARD * query_norm
                and closest > self._TIE_GUARD * (ordered[-1] + query_norm)):
            return None
        return np.sqrt(total, out=total)

    def _settle(self, col: int) -> None:
        """Compute the norms of every subsequence lying wholly before ``col``."""
        length = self._pattern_length
        stop = col + 1 - length
        start = self._norm_end
        if stop <= start:
            return
        squares = np.square(self.values[:, start: stop + length - 1])
        # Each subsequence copied out contiguously, so every norm is summed
        # the same way whatever the number settled at once.
        runs = np.ascontiguousarray(_runs(squares, 0, stop - start, length))
        np.add.reduce(runs, axis=2, out=self.norms[:, start: stop].T)
        self._norm_end = stop

    def _cross_terms(self, rows: List[int]) -> tuple:
        """``(cross, query_norms)`` of the reference set ``rows`` for this call.

        ``cross[q, p - _candidates[0]]`` is twice the dot product of query
        ``q``'s pattern with the pattern at candidate ``p`` (both the ``d``
        reference subsequences, concatenated), for every query of the call
        and every candidate any of them can use: one matrix product, and
        each query's candidate range is one contiguous slice.
        ``query_norms[q]`` is the squared norm of query ``q``'s pattern.
        """
        length = self._pattern_length
        low, high = self._candidates
        cells = self.values[rows]
        candidates = _runs(cells, low, high - low, length).reshape(high - low, -1)
        queries = _runs(cells, 0, cells.shape[1] - length + 1, length)[self._query_starts]
        queries = queries.reshape(len(queries), -1)
        cross = queries @ candidates.T
        cross *= 2.0
        return cross, (queries * queries).sum(axis=1)

    def _exact(self, windows: np.ndarray) -> np.ndarray:
        """Dissimilarity vector D by the exact formula, NaN candidates excluded.

        Cells where the *query pattern* itself is NaN are ignored (treated as
        zero contribution); candidate patterns containing NaN in any remaining
        cell receive an infinite dissimilarity so they cannot be selected.
        """
        l = self._pattern_length
        query = windows[:, -l:]
        query_nan = np.isnan(query)
        if query_nan.any():
            # Neutralise NaN query cells in every comparison.
            windows[:, -l:] = np.where(query_nan, 0.0, query)
        candidate_nan = np.isnan(windows)
        filled = np.where(candidate_nan, 0.0, windows)
        dissimilarities = candidate_dissimilarities(filled, l, metric=self._metric)

        if candidate_nan.any():
            # Mark candidates whose pattern touches a NaN cell as unusable.
            nan_any = candidate_nan.any(axis=0).astype(float)
            counts = np.convolve(nan_any, np.ones(l), mode="valid")
            dissimilarities = dissimilarities.copy()
            dissimilarities[counts[: len(dissimilarities)] > 0] = np.inf
        return dissimilarities


def _runs(cells: np.ndarray, start: int, count: int, length: int) -> np.ndarray:
    """View of C-contiguous 2-D ``cells`` with ``[p, r]`` = ``cells[r, start + p:][:length]``."""
    step = cells.itemsize
    return np.ndarray(
        (count, cells.shape[0], length), cells.dtype, cells, start * step,
        (step, cells.strides[0], step),
    )
