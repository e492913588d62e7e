"""Simple imputation baselines from the paper's related-work section (Sec. 2).

These are the naive techniques the paper uses to motivate TKCM: mean
imputation, last-observation-carried-forward, moving averages, and linear /
spline interpolation.  The interpolation methods illustrate the failure mode
the introduction describes — "if an entire period of a sine wave is missing,
linear interpolation would replace the gap with a straight line" — and are
exercised by the examples and the ablation benchmarks.

All classes implement the :class:`~repro.baselines.base.OnlineImputer`
protocol so the streaming harness can drive them.  The interpolation imputers
are necessarily *retrospective*: while a gap is open they fall back to
carrying the last observation forward, and they cannot revise earlier
estimates once emitted (a fundamental limitation of causal interpolation that
the streaming setting exposes).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from .base import OnlineImputer

__all__ = [
    "MeanImputer",
    "LocfImputer",
    "MovingAverageImputer",
    "LinearInterpolationImputer",
    "SplineInterpolationImputer",
    "interpolate_gaps",
]


class _PerSeriesOnlineImputer(OnlineImputer):
    """Shared bookkeeping for baselines that treat each series independently."""

    def __init__(self, series_names: Sequence[str]) -> None:
        self.series_names = list(series_names)

    def observe(self, values: Mapping[str, float]) -> Dict[str, float]:
        results: Dict[str, float] = {}
        for name in self.series_names:
            value = float(values.get(name, np.nan))
            if np.isnan(value):
                estimate = self._estimate(name)
                results[name] = estimate
                self._update(name, estimate if not np.isnan(estimate) else np.nan)
            else:
                self._update(name, value)
        return results

    def _estimate(self, name: str) -> float:
        raise NotImplementedError

    def _update(self, name: str, value: float) -> None:
        raise NotImplementedError


class MeanImputer(_PerSeriesOnlineImputer):
    """Impute with the running mean of all previously observed values."""

    def __init__(self, series_names: Sequence[str]) -> None:
        super().__init__(series_names)
        self._sums = {name: 0.0 for name in self.series_names}
        self._counts = {name: 0 for name in self.series_names}

    def _estimate(self, name: str) -> float:
        if self._counts[name] == 0:
            return float("nan")
        return self._sums[name] / self._counts[name]

    def _update(self, name: str, value: float) -> None:
        if not np.isnan(value):
            self._sums[name] += value
            self._counts[name] += 1

    def reset(self) -> None:
        self._sums = {name: 0.0 for name in self.series_names}
        self._counts = {name: 0 for name in self.series_names}


class LocfImputer(_PerSeriesOnlineImputer):
    """Last observation carried forward.

    ``carry_imputed`` controls whether imputed values themselves become the
    carried value (the default mirrors what a streaming system would do).
    """

    def __init__(self, series_names: Sequence[str], carry_imputed: bool = True) -> None:
        super().__init__(series_names)
        self._carry_imputed = carry_imputed
        self._last = {name: float("nan") for name in self.series_names}

    def _estimate(self, name: str) -> float:
        return self._last[name]

    def _update(self, name: str, value: float) -> None:
        if np.isnan(value) and not self._carry_imputed:
            return
        if not np.isnan(value):
            self._last[name] = value

    def reset(self) -> None:
        self._last = {name: float("nan") for name in self.series_names}


class MovingAverageImputer(_PerSeriesOnlineImputer):
    """Impute with the mean of the last ``window`` observed values."""

    def __init__(self, series_names: Sequence[str], window: int = 12) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        super().__init__(series_names)
        self.window = int(window)
        self._buffers: Dict[str, Deque[float]] = {
            name: deque(maxlen=self.window) for name in self.series_names
        }

    def _estimate(self, name: str) -> float:
        buffer = self._buffers[name]
        if not buffer:
            return float("nan")
        return float(np.mean(buffer))

    def _update(self, name: str, value: float) -> None:
        if not np.isnan(value):
            self._buffers[name].append(value)

    def reset(self) -> None:
        self._buffers = {name: deque(maxlen=self.window) for name in self.series_names}


class LinearInterpolationImputer(OnlineImputer):
    """Causal linear extrapolation from the last two observations.

    A truly linear *interpolation* needs the value after the gap, which a
    streaming imputer never has; the causal analogue extrapolates the straight
    line through the last two genuine observations.  Over long gaps this
    produces exactly the pathological straight-line recovery the paper's
    introduction warns about.
    """

    def __init__(self, series_names: Sequence[str]) -> None:
        self.series_names = list(series_names)
        self._history: Dict[str, List[float]] = {name: [] for name in self.series_names}
        self._gap_length: Dict[str, int] = {name: 0 for name in self.series_names}

    def observe(self, values: Mapping[str, float]) -> Dict[str, float]:
        results: Dict[str, float] = {}
        for name in self.series_names:
            value = float(values.get(name, np.nan))
            history = self._history[name]
            if np.isnan(value):
                self._gap_length[name] += 1
                estimate = self._extrapolate(history, self._gap_length[name])
                results[name] = estimate
            else:
                history.append(value)
                if len(history) > 2:
                    history.pop(0)
                self._gap_length[name] = 0
        return results

    @staticmethod
    def _extrapolate(history: List[float], steps_ahead: int) -> float:
        if not history:
            return float("nan")
        if len(history) == 1:
            return history[0]
        slope = history[1] - history[0]
        return history[1] + slope * steps_ahead

    def reset(self) -> None:
        self._history = {name: [] for name in self.series_names}
        self._gap_length = {name: 0 for name in self.series_names}


class SplineInterpolationImputer(OnlineImputer):
    """Causal cubic-spline extrapolation from the recent observed history."""

    def __init__(self, series_names: Sequence[str], history_length: int = 24) -> None:
        if history_length < 4:
            raise ConfigurationError(
                f"history_length must be >= 4 for a cubic spline, got {history_length}"
            )
        self.series_names = list(series_names)
        self.history_length = int(history_length)
        self._times: Dict[str, List[int]] = {name: [] for name in self.series_names}
        self._values: Dict[str, List[float]] = {name: [] for name in self.series_names}
        self._tick = 0

    def observe(self, values: Mapping[str, float]) -> Dict[str, float]:
        results: Dict[str, float] = {}
        for name in self.series_names:
            value = float(values.get(name, np.nan))
            if np.isnan(value):
                results[name] = self._extrapolate(name)
            else:
                self._times[name].append(self._tick)
                self._values[name].append(value)
                if len(self._times[name]) > self.history_length:
                    self._times[name].pop(0)
                    self._values[name].pop(0)
        self._tick += 1
        return results

    def _extrapolate(self, name: str) -> float:
        times = self._times[name]
        values = self._values[name]
        if len(times) < 4:
            return values[-1] if values else float("nan")
        from scipy.interpolate import CubicSpline  # heavy: imported on use

        spline = CubicSpline(times, values, extrapolate=True)
        return float(spline(self._tick))

    def reset(self) -> None:
        self._times = {name: [] for name in self.series_names}
        self._values = {name: [] for name in self.series_names}
        self._tick = 0


def interpolate_gaps(values: np.ndarray, kind: str = "linear") -> np.ndarray:
    """Offline gap filling of a single series by interpolation.

    Used to initialise the matrix-decomposition methods (CD / SVD), which the
    original papers seed with linear interpolation before iterating.

    Parameters
    ----------
    values:
        1-D array with ``NaN`` marking missing entries.
    kind:
        Any kind accepted by :func:`scipy.interpolate.interp1d` (``"linear"``,
        ``"nearest"``, ``"cubic"``, ...).

    Returns
    -------
    numpy.ndarray
        Copy of ``values`` with NaNs replaced.  Leading/trailing gaps are
        filled with the nearest observed value; an all-NaN input is filled
        with zeros.
    """
    series = np.asarray(values, dtype=float).copy()
    observed = ~np.isnan(series)
    if not observed.any():
        return np.zeros_like(series)
    if observed.all():
        return series
    from scipy.interpolate import interp1d  # heavy: imported on use

    indices = np.arange(len(series))
    if observed.sum() == 1 or kind == "nearest":
        fill = interp1d(
            indices[observed],
            series[observed],
            kind="nearest",
            bounds_error=False,
            fill_value=(series[observed][0], series[observed][-1]),
        )
    else:
        fill = interp1d(
            indices[observed],
            series[observed],
            kind=kind,
            bounds_error=False,
            fill_value=(series[observed][0], series[observed][-1]),
        )
    series[~observed] = fill(indices[~observed])
    return series
