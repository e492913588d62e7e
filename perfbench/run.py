"""Run one workload of the serving-path benchmark and print its metrics.

    python3 perfbench/run.py --workload records_steady --seed 1 --seconds 40 --trace 0

Starts the gateway + 2-worker shm cluster in a child process, drives it
from this process on the workload's open-loop schedule, checks every
served estimate against an in-process replay, and prints each metric by
name with its unit.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full result with
its provenance block goes to ``.perfbench/`` in the checkout.

``--trace 0`` reports the end-to-end metrics (set-up is repeated
``SETUP_REPEATS`` times and its median reported).  ``--trace 1`` runs the
workload once untraced and once traced and reports the per-layer metrics
plus the tracing overhead.  ``--workload all`` runs every workload in turn.
Exits 1 if any served estimate differs from the replay, 2 if the checkout
holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SCHEMA_VERSION = 1

#: Server set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 7


@dataclass
class Pass:
    """One server lifetime driven by the generator."""

    setup_s: float
    ring_counter_shim: bool
    load: object = None
    server: Optional[Dict] = None
    errors: int = 0


def _one_pass(plan, payloads, trace_dir: Optional[Path]) -> Pass:
    """Start a server, HELLO + PRIME the fleet, and (with payloads) drive it."""
    from perfbench.loadgen import close_fleet, drive, open_fleet
    from perfbench.server import ServerProcess

    async def body() -> Pass:
        with ServerProcess(trace_dir) as server:
            clients = await open_fleet("127.0.0.1", server.port, plan)
            result = Pass(time.perf_counter() - server.started, server.ring_counter_shim)
            try:
                if payloads is not None:
                    server.mark()
                    result.load = await drive(clients, plan, payloads)
                    result.server = server.report()
            finally:
                await close_fleet(clients)
            server.close()
        return result

    return asyncio.run(body())


def provenance(
    workload, seed: int, seconds: float, trace: int, ring_counter_shim: bool
) -> Dict:
    """Who/what/where of one result: versions, pins, patches, workload parameters."""
    import numpy

    from perfbench.server import THREAD_PINS, WORKERS
    from perfbench.workloads import CONNECTIONS

    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top, commit = None, None
    if top is None or Path(top).resolve() != ROOT:
        commit = None  # not a checkout of its own, e.g. an exported tree
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": THREAD_PINS,
        "cluster_workers": WORKERS,
        "connections": CONNECTIONS,
        "setup_repeats": 1 if trace else SETUP_REPEATS,
        # Whether the server replaced the shm ring's counter accessors
        # (see perfbench/server.py::_word_atomic_ring_counters).
        "ring_counter_shim": ring_counter_shim,
        "workload": workload.params(),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Run one workload; returns the full result (summary under ``"summary"``)."""
    from perfbench import metrics
    from perfbench.replay import mismatched_ticks, replay
    from perfbench.spans import load_spans, totals
    from perfbench.workloads import WORKLOADS, build_plan, encode_payloads

    workload = WORKLOADS[name]
    plan = build_plan(workload, seed, seconds)
    payloads, encode_us = encode_payloads(plan)
    spans_dir = OUT / f"spans-{name}-seed{seed}"
    shutil.rmtree(spans_dir, ignore_errors=True)

    if trace:
        passes = [_one_pass(plan, payloads, None), _one_pass(plan, payloads, spans_dir)]
        setup_s = passes[0].setup_s
    else:
        # Set-up-only lifetimes on both sides of the measured one, so a busy
        # spell at either end of the run moves only a minority of samples.
        before = (SETUP_REPEATS - 1) // 2
        setups = [_one_pass(plan, None, None).setup_s for _ in range(before)]
        passes = [_one_pass(plan, payloads, None)]
        setups += [_one_pass(plan, None, None).setup_s for _ in range(SETUP_REPEATS - 1 - before)]
        setup_s = statistics.median(setups + [passes[0].setup_s])

    reference, inprocess_us = replay(plan)
    identical, attempted, failed = True, 0, 0
    for p in passes:
        same, bad = mismatched_ticks(p.load.results, reference)
        p.errors = metrics.refused_records(p.server) + p.load.error_frames + bad
        identical &= same and not p.errors
        attempted += p.load.records_sent
        failed += p.errors

    untraced = metrics.end_to_end(passes[0].load, passes[0].server, setup_s, passes[0].errors)
    if trace:
        traced = passes[1]
        e2e_traced = metrics.end_to_end(traced.load, traced.server, setup_s, traced.errors)
        overhead = 100.0 * (e2e_traced["latency_p50_ms"] / untraced["latency_p50_ms"] - 1.0)
        window = (traced.load.first_due, traced.load.done)
        values = metrics.per_layer(
            traced.load, traced.server, totals(load_spans(spans_dir), window),
            encode_us=encode_us, inprocess_us=inprocess_us,
            error_rate=traced.errors / max(1, traced.load.records_sent),
            overhead_pct=overhead,
        )
        units = metrics.PER_LAYER
    else:
        values, units = untraced, metrics.END_TO_END
    summary = {
        "correct": bool(identical),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    return {
        "provenance": provenance(
            workload, seed, seconds, int(trace), any(p.ring_counter_shim for p in passes)
        ),
        "imputed_ticks": int(len(passes[-1].load.latencies)),
        "summary": summary,
    }


def _print_table(name: str, result: Dict) -> None:
    summary = result["summary"]
    print(f"{name}: correct={summary['correct']} attempted={summary['attempted']} "
          f"failed={summary['failed']} imputed_ticks={result['imputed_ticks']}")
    for metric, entry in summary["metrics"].items():
        print(f"  {metric:<40} {entry['value']:>14.4f} {entry['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.server import THREAD_PINS

    os.environ.update(THREAD_PINS)  # before numpy is imported
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    OUT.mkdir(exist_ok=True)
    results = {}
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=2)
        )
        print(json.dumps({"provenance": result["provenance"]}))
        _print_table(name, result)
        results[name] = result["summary"]
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, r in results.items() for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
