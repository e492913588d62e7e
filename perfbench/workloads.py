"""The benchmark's workloads: seeded fleets, open-loop schedules, encoded frames.

A workload is a fleet of stations (built by :mod:`repro.scenarios`), a frame
shape (one record per PUSH, or ``rows_per_frame`` records per PUSH_BLOCK)
and an offered rate.  :func:`build_plan` turns a workload, a seed and a run
length into everything the load generator needs: per-station streams, the
station -> connection map, and the Poisson due time of every frame.  The
program under test only ever sees the frames.

Missingness is the scenario tier's block mask over a short period, tiled
along each station's stream and phase-shifted per station, so about half
of all streamed ticks are imputed and the imputations are spread evenly
over the run instead of bunching in its middle.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.gateway import protocol
from repro.scenarios.generator import StationWorkload, station_workloads
from repro.scenarios.spec import (
    ArrivalSpec,
    MissingnessSpec,
    ScenarioSpec,
    StationLayout,
    arrival_times,
    missing_masks,
)

#: Client connections per run: one per core of the 2-vCPU reference host,
#: so the generator never opens more connections than ``nproc``.
CONNECTIONS = 2

#: Sub-seed tags so the schedule and the gaps draw independent streams.
_ARRIVAL_TAG = 1
_GAP_TAG = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix: fleet shape, frame shape and offered rate."""

    name: str
    why: str
    stations: int
    series: int
    window_length: int
    pattern_length: int
    num_anchors: int
    num_references: int
    season_ticks: int
    rows_per_frame: int
    #: Offered records (rows) per second.
    rate: float
    #: Rows per missingness period; the middle half of each period is a gap.
    gap_period: int

    def params(self) -> Dict[str, object]:
        """JSON-ready parameters for the result's provenance block."""
        return dataclasses.asdict(self)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="records_steady",
            why="one record per frame at 1k/s below capacity: per-record wire, "
            "admit, ring and stop-and-wait flush costs set the latency",
            stations=400, series=3, window_length=144, pattern_length=12,
            num_anchors=3, num_references=2, season_ticks=48,
            rows_per_frame=1, rate=1000.0, gap_period=24,
        ),
        Workload(
            name="blocks_wide",
            why="16 fig17-scale stations, 12-row blocks at 500 rows/s: TKCM "
            "phases dominate and wire cost is amortised 12x",
            stations=16, series=4, window_length=2880, pattern_length=36,
            num_anchors=5, num_references=3, season_ticks=288,
            rows_per_frame=12, rate=500.0, gap_period=72,
        ),
    )
}


@dataclass
class Plan:
    """A workload materialised for one seed and run length."""

    workload: Workload
    seed: int
    seconds: float
    fleet: List[StationWorkload]
    #: Frames per station; frame ``f`` of station ``s`` is event ``f * stations + s``.
    frames_per_station: int
    #: Due offset (seconds from the run's start) of every event, non-decreasing.
    due: np.ndarray

    @property
    def events(self) -> int:
        return len(self.due)

    def station_of(self, event: int) -> int:
        return event % self.workload.stations

    def frame_of(self, event: int) -> int:
        return event // self.workload.stations

    def connection_of(self, station_index: int) -> int:
        return station_index % CONNECTIONS

    @property
    def frame_kind(self) -> int:
        if self.workload.rows_per_frame == 1:
            return protocol.FRAME_PUSH
        return protocol.FRAME_PUSH_BLOCK


def _gap_masks(workload: Workload, rows: int, seed: int) -> np.ndarray:
    """``(stations, rows)`` target-series gaps: tiled, phase-shifted blocks."""
    period = workload.gap_period
    block = missing_masks(MissingnessSpec(kind="block"), 1, period, [seed, _GAP_TAG])[0]
    tiled = np.resize(block, rows + period)
    return np.stack([
        tiled[(s * period) // workload.stations % period:][:rows]
        for s in range(workload.stations)
    ])


def build_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    """Materialise ``workload`` for at least ``seconds`` of offered load at ``seed``.

    Each station gets a whole number of frames, rounded up, so the schedule
    may run a fraction of a frame interval past ``seconds``.
    """
    rpf = workload.rows_per_frame
    frames = max(1, math.ceil(workload.rate * seconds / (workload.stations * rpf) - 1e-9))
    rows = frames * rpf
    spec = ScenarioSpec(
        name=workload.name,
        layout=StationLayout(
            num_stations=workload.stations,
            series_per_station=workload.series,
            window_length=workload.window_length,
            records_per_station=rows,
            pattern_length=workload.pattern_length,
            num_anchors=workload.num_anchors,
            num_references=workload.num_references,
            season_ticks=workload.season_ticks,
        ),
        missingness=MissingnessSpec(kind="none"),
        seed=seed,
    )
    gaps = _gap_masks(workload, rows, seed)
    fleet = []
    for index, station in enumerate(station_workloads(spec)):
        matrix = np.stack(station.rows)
        matrix[gaps[index], 0] = np.nan
        fleet.append(dataclasses.replace(station, rows=list(matrix)))
    due = arrival_times(
        ArrivalSpec(process="poisson", rate=workload.rate / rpf),
        frames * workload.stations,
        [seed, _ARRIVAL_TAG],
    )
    # Condition the Poisson process on its count: scaled so the last frame
    # is due at the end of the run, the offered rate is exactly the nominal
    # one on every seed and only the arrival pattern varies.
    due *= frames * workload.stations / (workload.rate / rpf) / due[-1]
    return Plan(workload, seed, float(seconds), fleet, frames, due)


def encode_payloads(plan: Plan) -> Tuple[List[bytes], float]:
    """Pre-encode every event's PUSH payload; returns ``(payloads, µs/record)``.

    Each payload carries its station's frame ordinal as the push sequence
    number, so the frames can be written verbatim through
    ``AsyncGatewayClient.send_frames``.  The timing covers
    ``encode_push_payloads`` plus ``encode_frame`` (the header and CRC that
    ``send_frames`` adds on the wire).
    """
    rpf = plan.workload.rows_per_frame
    kind = plan.frame_kind
    payloads: List[bytes] = []
    started = time.perf_counter()
    for event in range(plan.events):
        station = plan.fleet[plan.station_of(event)]
        frame = plan.frame_of(event)
        encoded, _ = protocol.encode_push_payloads(
            frame, station.station, station.rows[frame * rpf: (frame + 1) * rpf],
            protocol.DEFAULT_MAX_FRAME_PAYLOAD,
        )
        (payload,) = encoded
        protocol.encode_frame(kind, payload)
        payloads.append(payload)
    elapsed = time.perf_counter() - started
    return payloads, elapsed * 1e6 / max(1, plan.events * rpf)
