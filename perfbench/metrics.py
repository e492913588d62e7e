"""End-to-end and per-layer metrics, with their units.

End-to-end metrics come from an untraced run: what the load generator saw
plus the server's own CPU and memory.  Per-layer metrics come from a traced
run: span totals over the measured window (first due time to the return of
the final FLUSH, when every result has been delivered) plus the
differences of the public ``GatewayServer.stats()`` and
``ClusterCoordinator.stats()`` counters over the same window.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from .loadgen import LoadResult
from .server import WORKERS
from .spans import SpanTotals

#: End-to-end metric -> unit (reported with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "records/s",
    "served_ok_ratio": "ratio",
    "cpu_us_per_record": "us",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit (reported with ``--trace 1``).
PER_LAYER = {
    "loadgen.late_p99_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "loadgen.cpu_s": "s",
    "loadgen.encode_us_per_record": "us",
    "drain_s": "s",
    "protocol.feed_us_per_frame": "us",
    "protocol.decode_push_us_per_frame": "us",
    "protocol.encode_result_us_per_result": "us",
    "protocol.wire_bytes_per_record": "B",
    "server.flushes": "count",
    "server.records_per_flush": "records",
    "server.flush_ms_p50": "ms",
    "server.flush_ms_p99": "ms",
    "server.flush_blocked_share": "ratio",
    "server.pause_events": "count",
    "server.pending_peak": "records",
    "coordinator.push_nowait_us": "us",
    "coordinator.backlog_peak": "records",
    "coordinator.pipe_messages_per_1k_records": "count",
    "shm.encode_push_us_per_frame": "us",
    "shm.decode_result_us_per_frame": "us",
    "shm.bytes_per_record": "B",
    "shm.ring_full_stalls": "count",
    "worker.busy_share": "ratio",
    "worker.avg_batch_records": "records",
    "worker.queue_depth_max": "count",
    "worker.loop_ticks": "count",
    "worker.decode_push_us_per_frame": "us",
    "session.push_block_us_per_record": "us",
    "tkcm.observe_batch_us_per_call": "us",
    "tkcm.us_per_imputation": "us",
    "tkcm.reference_us_per_imputation": "us",
    "tkcm.dissimilarity_us_per_imputation": "us",
    "tkcm.anchor_dp_us_per_imputation": "us",
    "tkcm.self_us_per_imputation": "us",
    "tkcm.inprocess_us_per_imputation": "us",
    "error_rate": "ratio",
    "trace.overhead_pct": "%",
}


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


#: Width (seconds of due time) of the windows ``latency_p99_ms`` is taken over.
P99_WINDOW_S = 8.0


def _percentile_ms(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def windowed_p99_ms(latencies: np.ndarray, due: np.ndarray) -> float:
    """Median over ``P99_WINDOW_S`` windows of each window's p99, in ms.

    A neighbour stealing the CPU for a second moves a whole run's p99; the
    median over windows only moves when most of the run is affected.  Only
    windows with at least 10 samples beyond their p99 count; a run too
    short to have one reports its plain p99.
    """
    windows = (due // P99_WINDOW_S).astype(np.int64)
    tails = [
        np.percentile(latencies[windows == w], 99.0)
        for w in np.unique(windows)
        if np.count_nonzero(windows == w) >= 1000
    ]
    if not tails:
        return _percentile_ms(latencies, 99.0)
    return float(np.median(tails)) * 1e3


def _window(server: Mapping) -> Dict[str, float]:
    """Gateway counters, CPU seconds and peak RSS over the measured window."""
    mark, end = server["mark"], server["end"]
    delta = {key: end["gateway"][key] - mark["gateway"][key]
             for key in ("records_in", "flushes", "pause_events",
                         "shed_records", "unavailable_records")}
    delta["cpu_s"] = sum(p["cpu_s"] for p in end["processes"].values()) - sum(
        p["cpu_s"] for p in mark["processes"].values()
    )
    delta["peak_rss_mb"] = max(p["peak_rss_mb"] for p in end["processes"].values())
    return delta


def refused_records(server: Mapping) -> int:
    """Records the gateway shed or refused as unavailable over the window."""
    window = _window(server)
    return int(window["shed_records"] + window["unavailable_records"])


def end_to_end(
    load: LoadResult, server: Mapping, setup_s: float, errors: int
) -> Dict[str, float]:
    """The user-visible numbers of one untraced run."""
    window = _window(server)
    applied = window["records_in"]
    return {
        "setup_s": setup_s,
        "latency_p50_ms": _percentile_ms(load.latencies, 50.0),
        "latency_p99_ms": windowed_p99_ms(load.latencies, load.latency_due),
        "throughput_rps": _ratio(applied, load.done - load.first_due),
        "served_ok_ratio": 1.0 - _ratio(errors, load.records_sent),
        "cpu_us_per_record": _ratio(window["cpu_s"] * 1e6, applied),
        "peak_rss_mb": window["peak_rss_mb"],
    }


def per_layer(
    load: LoadResult,
    server: Mapping,
    spans: SpanTotals,
    *,
    encode_us: float,
    inprocess_us: float,
    error_rate: float,
    overhead_pct: float,
) -> Dict[str, float]:
    """Layer breakdown of one traced run (see ``perfbench/README.md``)."""
    wall = load.done - load.first_due
    gateway = _window(server)
    records = gateway["records_in"]
    peaks = server["end"]["gateway"]
    before, after = server["mark"]["cluster"], server["end"]["cluster"]
    delta = {key: after[key] - before[key] for key in after}
    seconds, calls, counts = spans.seconds, spans.calls, spans.counts

    def per_call(name: str) -> float:
        return _ratio(seconds[name] * 1e6, calls[name])

    def per_count(name: str) -> float:
        return _ratio(seconds[name] * 1e6, counts[name])

    imputations = counts["tkcm.observe_batch"]
    flushes = spans.durations["coordinator.flush"]
    return {
        "loadgen.late_p99_ms": _percentile_ms(load.lateness, 99.0),
        "loadgen.late_max_ms": float(load.lateness.max()) * 1e3 if len(load.lateness) else 0.0,
        "loadgen.cpu_s": load.cpu_s,
        "loadgen.encode_us_per_record": encode_us,
        "drain_s": load.done - load.last_due,
        "protocol.feed_us_per_frame": per_count("protocol.feed"),
        "protocol.decode_push_us_per_frame": per_call("protocol.decode_push"),
        "protocol.encode_result_us_per_result": per_count("protocol.encode_result"),
        "protocol.wire_bytes_per_record": _ratio(load.wire_bytes, load.records_sent),
        "server.flushes": gateway["flushes"],
        "server.records_per_flush": _ratio(records, gateway["flushes"]),
        "server.flush_ms_p50": _percentile_ms(flushes, 50.0),
        "server.flush_ms_p99": _percentile_ms(flushes, 99.0),
        "server.flush_blocked_share": _ratio(seconds["coordinator.flush"], wall),
        "server.pause_events": gateway["pause_events"],
        "server.pending_peak": peaks["pending_records_peak"],
        "coordinator.push_nowait_us": per_call("coordinator.push_nowait"),
        "coordinator.backlog_peak": after["pending_records_peak"],
        "coordinator.pipe_messages_per_1k_records": _ratio(delta["pipe_messages"] * 1e3, records),
        "shm.encode_push_us_per_frame": per_count("shm.encode_push"),
        "shm.decode_result_us_per_frame": per_call("shm.decode_result"),
        "shm.bytes_per_record": _ratio(delta["bytes_via_shm"], records),
        "shm.ring_full_stalls": delta["ring_full_stalls"],
        "worker.busy_share": _ratio(delta["push_seconds"], WORKERS * wall),
        "worker.avg_batch_records": _ratio(delta["records_routed"], delta["blocks_executed"]),
        "worker.queue_depth_max": after["queue_depth_max"],
        "worker.loop_ticks": delta["loop_ticks"],
        "worker.decode_push_us_per_frame": per_call("worker.decode_push"),
        "session.push_block_us_per_record": per_count("session.push_block"),
        "tkcm.observe_batch_us_per_call": per_call("tkcm.observe_batch"),
        "tkcm.us_per_imputation": _ratio(seconds["tkcm.observe_batch"] * 1e6, imputations),
        "tkcm.reference_us_per_imputation": _ratio(
            (seconds["tkcm.select_reference_series"] + seconds["tkcm.rank_candidates"]) * 1e6,
            imputations,
        ),
        "tkcm.dissimilarity_us_per_imputation": _ratio(
            seconds["tkcm.dissimilarities"] * 1e6, imputations
        ),
        "tkcm.anchor_dp_us_per_imputation": _ratio(
            seconds["tkcm.select_anchors"] * 1e6, imputations
        ),
        "tkcm.self_us_per_imputation": _ratio(
            spans.self_seconds["tkcm.observe_batch"] * 1e6, imputations
        ),
        "tkcm.inprocess_us_per_imputation": inprocess_us,
        "error_rate": error_rate,
        "trace.overhead_pct": overhead_pct,
    }
