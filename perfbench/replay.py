"""In-process reference replay and the parity check against served results."""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.cluster.bench import flatten_results, results_identical
from repro.results import TickResult
from repro.service import ImputationService

from .workloads import Plan


def replay(plan: Plan) -> Tuple[Dict[str, List[TickResult]], float]:
    """Push each station's whole stream through one ``push_block``.

    Single process, no transport: the reference the served estimates must
    equal bit for bit.  Returns ``(results, µs per imputation)``; only the
    ``push_block`` calls are timed.
    """
    service = ImputationService()
    for station in plan.fleet:
        service.create_session(
            station.station,
            method=station.method,
            series_names=station.series_names,
            **station.params,
        )
        service.prime(station.station, station.history)
    reference: Dict[str, List[TickResult]] = {}
    elapsed = 0.0
    for station in plan.fleet:
        block = np.stack(station.rows)
        started = time.perf_counter()
        reference[station.station] = service.push_block(station.station, block)
        elapsed += time.perf_counter() - started
    imputations = sum(len(tick) for ticks in reference.values() for tick in ticks)
    return reference, elapsed * 1e6 / max(1, imputations)


def mismatched_ticks(
    served: Mapping[str, List[TickResult]], reference: Mapping[str, List[TickResult]]
) -> Tuple[bool, int]:
    """``(identical, number of ticks missing, extra or different)``."""
    identical = results_identical(served, reference)
    if identical:
        return True, 0
    left, right = flatten_results(served), flatten_results(reference)
    bad = set()
    for key in left.keys() | right.keys():
        a, b = left.get(key), right.get(key)
        if a is None or b is None or a[1] != b[1] or not (
            a[0] == b[0] or (np.isnan(a[0]) and np.isnan(b[0]))
        ):
            bad.add(key[:2])
    return False, max(1, len(bad))
