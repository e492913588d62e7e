"""In-memory span recorder wrapped around each serving layer's public calls.

:func:`install` replaces the functions named in :data:`TARGETS` with thin
wrappers that record one span per call: name, start, end, parent span,
and a count of the work the call did (frames decoded, records pushed,
imputations made).  The wrappers are installed in the server process
before the cluster forks its workers, so the workers inherit them;
:func:`multiprocessing.util.register_after_fork` gives each worker a fresh
span buffer and a finaliser that writes it out when the worker exits.
Nothing is written while the benchmark runs: every process keeps its spans
in flat arrays and writes one ``spans-<pid>.npz`` file at the end.

Spans are recorded around the calls *into* each layer, from the
benchmark's side; the program itself is unchanged.  The recorder assumes
the wrapped calls run on one thread per process, which holds for the
gateway's event-loop thread and for the single-threaded workers.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing.util
import os
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np


def _one(args, result) -> int:
    return 1


def _len_result(args, result) -> int:
    return len(result)


def _rows_decoded(args, result) -> int:
    return len(result[2][1])


def _results_arg(args, result) -> int:
    return len(args[1])


def _results_flushed(args, result) -> int:
    return sum(len(ticks) for ticks in result.values())


def _frames_encoded(args, result) -> int:
    return len(result[0])


def _results_decoded(args, result) -> int:
    return len(result[1])


def _block_rows(args, result) -> int:
    return len(args[1])


def _imputations(args, result) -> int:
    return sum(len(per_tick) for per_tick in result.values())


@dataclass(frozen=True)
class Target:
    """One traced call: ``module:attribute`` (``Class.method`` allowed)."""

    span: str
    module: str
    attribute: str
    count: Callable = _one


#: Every traced call, outermost layers first.  Functions a module imported
#: by name are patched where that module looks them up ("as bound in").
TARGETS = (
    Target("protocol.feed", "repro.gateway.protocol", "FrameDecoder.feed", _len_result),
    Target("protocol.decode_push", "repro.gateway.protocol", "decode_push_payload", _rows_decoded),
    Target("protocol.encode_result", "repro.gateway.protocol", "encode_result_payloads", _results_arg),
    Target("coordinator.push_nowait", "repro.cluster.coordinator", "ClusterCoordinator.push_nowait"),
    Target("coordinator.flush", "repro.cluster.coordinator", "ClusterCoordinator.flush", _results_flushed),
    Target("shm.encode_push", "repro.cluster.worker", "encode_push_frames", _frames_encoded),
    Target("shm.decode_result", "repro.cluster.worker", "decode_result_frame", _results_decoded),
    Target("worker.decode_push", "repro.cluster.worker", "decode_push_frame"),
    Target("session.push_block", "repro.service.session", "ImputationSession.push_block", _block_rows),
    Target("tkcm.observe_batch", "repro.core.tkcm", "TKCMImputer.observe_batch", _imputations),
    Target("tkcm.select_reference_series", "repro.core.tkcm", "select_reference_series"),
    Target("tkcm.rank_candidates", "repro.core.tkcm", "rank_candidates"),
    Target("tkcm.dissimilarities", "repro.core.tkcm", "_BatchWindows.dissimilarities"),
    Target("tkcm.select_anchors", "repro.core.tkcm", "select_anchors"),
)

SPAN_NAMES = tuple(target.span for target in TARGETS)


class Tracer:
    """Per-process span buffer; see the module docstring."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        #: Slots of the spans open right now (the wrappers close over it).
        self._stack: List[int] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.count = array("q")
        self._stack.clear()

    def wrap(self, index: int, function: Callable, count: Callable) -> Callable:
        """Return ``function`` recording a span named ``SPAN_NAMES[index]``."""
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            slot = len(self.start)
            self.name.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.count.append(0)
            self.end.append(0.0)
            stack.append(slot)
            started = clock()
            self.start.append(started)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end[slot] = clock()
                stack.pop()
            self.count[slot] = count(args, result)
            return result

        return traced

    def _after_fork(self) -> None:
        self._reset()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    def dump(self) -> Path:
        """Write this process's spans to ``<directory>/spans-<pid>.npz``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"spans-{self.pid}.npz"
        np.savez(
            path,
            pid=np.int64(self.pid),
            names=np.asarray(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.uint8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            count=np.frombuffer(self.count, dtype=np.int64),
        )
        return path


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, attribute = target.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


def install(directory: Path) -> Tracer:
    """Wrap every :data:`TARGETS` call in this process (and future forks)."""
    tracer = Tracer(directory)
    for index, target in enumerate(TARGETS):
        owner, attribute = _resolve(target)
        setattr(owner, attribute, tracer.wrap(index, getattr(owner, attribute), target.count))
    multiprocessing.util.register_after_fork(tracer, Tracer._after_fork)
    return tracer


# --------------------------------------------------------------------------- #
# Reading spans back
# --------------------------------------------------------------------------- #
@dataclass
class ProcessSpans:
    """All spans one process recorded."""

    pid: int
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    count: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent span."""
        child = np.flatnonzero(self.parent >= 0)
        parent = self.parent[child]
        outside = (self.start[child] < self.start[parent]) | (self.end[child] > self.end[parent])
        return int(outside.sum())

    def child_time(self) -> np.ndarray:
        """Per span, the time its direct children cover."""
        covered = np.zeros(len(self.start))
        child = np.flatnonzero(self.parent >= 0)
        np.add.at(covered, self.parent[child], self.duration[child])
        return covered


def load_spans(directory: Path) -> List[ProcessSpans]:
    """Read every ``spans-*.npz`` file under ``directory``."""
    processes = []
    for path in sorted(Path(directory).glob("spans-*.npz")):
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            if tuple(names) != SPAN_NAMES:
                raise ValueError(f"{path} was written with another span table")
            processes.append(ProcessSpans(
                pid=int(data["pid"]),
                name=data["name"].astype(np.int64),
                start=data["start"],
                end=data["end"],
                parent=data["parent"].astype(np.int64),
                count=data["count"],
            ))
    return processes


@dataclass
class SpanTotals:
    """Per span name, summed over processes within a time window."""

    calls: Dict[str, int]
    seconds: Dict[str, float]
    counts: Dict[str, int]
    self_seconds: Dict[str, float]
    durations: Dict[str, np.ndarray]


def totals(processes: List[ProcessSpans], window: Optional[tuple] = None) -> SpanTotals:
    """Sum spans by name; with ``window=(t0, t1)`` keep spans inside it."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    seconds = dict.fromkeys(SPAN_NAMES, 0.0)
    counts = dict.fromkeys(SPAN_NAMES, 0)
    self_seconds = dict.fromkeys(SPAN_NAMES, 0.0)
    durations = {name: [] for name in SPAN_NAMES}
    for spans in processes:
        keep = np.ones(len(spans.start), dtype=bool)
        if window is not None:
            keep = (spans.start >= window[0]) & (spans.end <= window[1])
        own = spans.duration - spans.child_time()
        for index, name in enumerate(SPAN_NAMES):
            mask = keep & (spans.name == index)
            calls[name] += int(mask.sum())
            seconds[name] += float(spans.duration[mask].sum())
            counts[name] += int(spans.count[mask].sum())
            self_seconds[name] += float(own[mask].sum())
            durations[name].append(spans.duration[mask])
    return SpanTotals(
        calls, seconds, counts, self_seconds,
        {name: np.concatenate(parts) for name, parts in durations.items()},
    )
