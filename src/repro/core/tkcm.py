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
from numpy.lib.stride_tricks import as_strided

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
        Nothing is rebuilt per call: the window store and its chained cross
        terms persist between calls, so how the stream is cut into blocks
        changes no imputation, not even in the last bit of a dissimilarity.

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
        for offset, j in zip(offsets, series):
            results.setdefault(offset, {})[windows.names[j]] = self._impute(
                j, base + offset, tick + offset + 1
            )
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
        return self._impute(windows.index[target], windows.end - 1, self._tick)

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
    # (see repro.core.anchor_selection).  During a missing block the query
    # moves one column per tick, and a candidate that matched it well moves
    # with it: the pattern one column after an anchor shares l - 1 columns
    # with the old anchor's pattern, just as the new query does with the old
    # one.  So the previous tick's anchors, each moved one column along the
    # diagonal, are a feasible selection under the current D whose total is
    # usually the optimum itself, obtained in O(k).  Exactness is untouched:
    # any feasible total bounds the optimal one, which is all the pruning
    # proof requires.
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
        # One column later is the same candidate index once the window is
        # full (it slid too), and the next index while it still grows.
        shift = 0 if prev_window_size >= cfg.window_length else 1
        if prev_candidates[-1] + shift >= len(dissimilarities):
            return None
        total = sum(dissimilarities.item(j + shift) for j in prev_candidates)
        return total if math.isfinite(total) else None

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

#: Every chain of cross terms restarts at the absolute columns divisible by
#: this, so the rounding of chained updates adds up over at most this many
#: steps (about 1e-15 of the squared norms at the fig17 scale, against the
#: tie guard's 1e-11).
_CHAIN_RESTART = 256


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
    subsequence at ``p``.  Each reference set keeps the cross terms of its
    latest query (a *chain*).  A query one column later advances them
    along the diagonal (the STOMP recurrence of Zhu et al., "Matrix
    Profile II", ICDM 2016), two vector products per reference::

        cross_new[p] = cross_old[p - 1] - x[c - l] * x[p - 1] + x[c] * x[p + l - 1]

    A chain restarts with one product per reference only where the stream
    breaks it: the set's previous query was not one column earlier with the
    same window size, its vector held a NaN or failed a guard, the store
    was primed, or the query's absolute column is a multiple of
    ``_CHAIN_RESTART``.  None of these depends on how the stream was cut
    into calls, on compaction or on a checkpoint (checkpoints carry the
    live chains), so ``D`` is a function of the stream alone.  The exact
    formula is used instead for non-L2 metrics, for windows that hold a NaN
    (their decomposed terms are NaN), and where the decomposition's
    rounding could order candidates differently from it (the two guards
    below).
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
        #: Columns compaction has dropped: store column ``c`` is absolute
        #: column ``c + _dropped`` of the stream.
        self._dropped = 0
        #: Reference rows -> (absolute query column, window size, doubled
        #: cross terms of that query): the live chains.
        self._chains: Dict[tuple, tuple] = {}

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
        # Only the chains the next query can continue travel with them.
        keep = min(self.end, self._window_length)
        shift = self.end - keep
        state = self.__dict__.copy()
        state.update(
            values=self.values[:, shift: self.end].copy(),
            norms=None,
            _first=[max(first - shift, -self._window_length) for first in self._first],
            end=keep,
            _norm_end=0,
            _dropped=self._dropped + shift,
            _chains=self._live_chains(),
        )
        return state

    def __setstate__(self, state: dict) -> None:
        # Stores pickled before the chains kept per-call cross terms; their
        # chains start fresh.
        for stale in ("_query_row", "_query_starts", "_candidates", "_cross"):
            state.pop(stale, None)
        state.setdefault("_dropped", 0)
        state.setdefault("_chains", {})
        self.__dict__.update(state)
        live = self.values
        self.values = np.full((len(self.names), self.end + _HEADROOM), np.nan)
        self.values[:, : self.end] = live
        self.norms = np.full_like(self.values, np.nan)

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
        self._dropped += shift
        self._norm_end = max(self._norm_end - shift, 0)
        self._first = [max(first - shift, -self._window_length) for first in self._first]

    def append(self, block: np.ndarray, names: Sequence[str]) -> int:
        """Append ``block``'s rows (absent series get NaN); returns the first column."""
        rows = block.shape[0]
        # A chain whose latest query was older can never be advanced again.
        self._chains = self._live_chains()
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
        self._chains = {}
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
        """L2 ``D`` from norms and chained cross terms, or ``None`` where it is unsafe."""
        length = self._pattern_length
        count = window_size - 2 * length + 1
        self._settle(col)
        cross = self._cross_terms(rows, col, start, count, window_size)
        query = self.values[rows, col + 1 - length: col + 1]
        query_norm = float(np.square(query, out=query).sum())
        norms = self.norms[:, start: start + count]
        total = norms[rows[0]] - cross
        for row in rows[1:]:
            total += norms[row]
        total += query_norm
        ordered = np.sort(total)
        closest = np.minimum.reduce(ordered[1:] - ordered[:-1], initial=np.inf)
        # NaN (a missing cell in some window) fails the comparisons too.
        if not (ordered[0] >= self._CANCELLATION_GUARD * query_norm
                and closest > self._TIE_GUARD * (ordered[-1] + query_norm)):
            # Never carried forward: the next query restarts the chain.
            del self._chains[tuple(rows)]
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

    def _live_chains(self) -> Dict[tuple, tuple]:
        """The chains whose latest query ended at the latest column."""
        latest = self._dropped + self.end - 1
        return {key: chain for key, chain in self._chains.items() if chain[0] == latest}

    def _cross_terms(
        self, rows: List[int], col: int, start: int, count: int, window_size: int
    ) -> np.ndarray:
        """Twice the dot products of the query at ``col`` with candidates ``start..``.

        Both patterns are the ``d`` reference subsequences, concatenated.
        The reference set's chain is advanced one column along the diagonal
        when its latest query ended one column earlier with the same window
        size (a full window's candidates all move with it), reused when it
        ended at ``col``, and restarted otherwise.
        """
        key = tuple(rows)
        at = col + self._dropped
        chain = self._chains.get(key)
        if chain is not None and chain[1] == window_size:
            if chain[0] == at:
                return chain[2]
            if chain[0] == at - 1 and at % _CHAIN_RESTART:
                cross = chain[2]
                self._advance(cross, rows, col, start, count)
                self._chains[key] = (at, window_size, cross)
                return cross
        cross = self._fresh_cross_terms(rows, col, start, count)
        self._chains[key] = (at, window_size, cross)
        return cross

    def _advance(
        self, cross: np.ndarray, rows: List[int], col: int, start: int, count: int
    ) -> None:
        """Move the previous column's ``cross`` to the query at ``col``, in place."""
        length = self._pattern_length
        scratch = np.empty(count)
        for row in rows:
            series = self.values[row]
            np.multiply(series[start - 1: start - 1 + count], 2.0 * series[col - length],
                        out=scratch)
            cross -= scratch
            np.multiply(series[start + length - 1: start + length - 1 + count],
                        2.0 * series[col], out=scratch)
            cross += scratch

    def _fresh_cross_terms(
        self, rows: List[int], col: int, start: int, count: int
    ) -> np.ndarray:
        """``_cross_terms`` by one vector-matrix product per reference.

        The candidates of one reference are an ``(l, count)`` view whose
        rows overlap (a row stride of one element), which is no BLAS
        operand: numpy sums each entry in order over the pattern, so the
        result depends on the values alone, never on where they lie in
        memory.
        """
        length = self._pattern_length
        step = self.values.itemsize
        return sum(
            (2.0 * series[col + 1 - length: col + 1])
            @ as_strided(series[start:], (length, count), (step, step), writeable=False)
            for series in self.values[rows]
        )

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
