"""The system under test, run in its own process.

``python3 perfbench/server.py [--trace-dir DIR]`` forks a 2-worker
shared-memory :class:`~repro.cluster.coordinator.ClusterCoordinator`,
fronts it with a :class:`~repro.gateway.server.GatewayServer` and then
talks JSON lines with its parent: it prints ``{"port": ...,
"ring_counter_shim": ...}`` once listening, then reads commands from stdin: ``mark`` (start of the measured
window), ``report`` (gateway and cluster counters, and CPU time and peak
RSS of the server and its workers, at the mark and now) and ``exit``.
With ``--trace-dir`` the layer wrappers of :mod:`perfbench.spans` are
installed before the workers fork, and every process writes its spans
there on exit.

:class:`ServerProcess` is the parent-side handle.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Pins every BLAS / OpenMP pool to one thread so two workers do not
#: oversubscribe two cores.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

WORKERS = 2


def _counters(cluster_stats: Dict) -> Dict[str, float]:
    """The cluster counters the per-layer metrics difference over the window."""
    workers = cluster_stats["workers"].values()
    aggregate = cluster_stats["cluster"]
    transport = aggregate["transport"]
    return {
        "records_routed": aggregate["records_routed"],
        "blocks_executed": aggregate["blocks_executed"],
        "push_seconds": aggregate["push_seconds"],
        "loop_ticks": sum(w["loop_ticks"] for w in workers),
        "queue_depth_max": aggregate["queue_depth_max"],
        "pending_records_peak": aggregate["pending_records_peak"],
        "pipe_messages": transport["pipe_messages"],
        "bytes_via_shm": transport["bytes_via_shm"],
        "ring_full_stalls": transport["ring_full_stalls"],
    }


def _proc_stats():
    """``(pid, stat fields from the state on)`` of every process in /proc."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we looked
        yield int(entry), stat[stat.rindex(")") + 2:].split()


def _process_tree(pid: int) -> Dict[int, Dict[str, float]]:
    """CPU seconds and peak RSS (MB) of ``pid`` and its direct children."""
    tick = os.sysconf("SC_CLK_TCK")
    tree = {}
    for member, fields in _proc_stats():
        if member != pid and int(fields[1]) != pid:
            continue
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        peak_kb = next(
            (int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:")),
            0,
        )
        tree[member] = {
            "cpu_s": (int(fields[11]) + int(fields[12])) / tick,
            "peak_rss_mb": peak_kb / 1024.0,
        }
    return tree


def _uses_struct(function, call: str) -> bool:
    """Whether ``function`` is the ring's own accessor built on ``struct.<call>``."""
    code = getattr(function, "__code__", None)
    return (
        code is not None
        and function.__module__ == "repro.cluster.shm"
        and "struct" in code.co_names
        and call in code.co_names
    )


def _word_atomic_ring_counters() -> bool:
    """Make the shm ring's head/tail loads and stores single 8-byte accesses.

    Known issue in ``repro.cluster.shm.SharedRingBuffer``: ``_load`` and
    ``_store`` go through ``struct``, which reads and writes the u64
    counters one byte at a time, so a reader can see a torn tail that lies
    beyond what the writer has published and decode an unwritten frame (the
    worker dies in ``decode_push_frame``).  Under this benchmark's load
    that killed a worker in 4 of 40 three-second runs; with the counters
    accessed as one aligned word it happened in none of 40.

    The word-sized accessors replace the ring's own only while both are
    still the ``struct``-based originals, before the workers fork; any other
    version of the ring is left alone.  Returns whether the program was
    patched, which every result records as ``ring_counter_shim``.
    """
    from repro.cluster.shm import SharedRingBuffer

    if not (
        _uses_struct(SharedRingBuffer._load, "unpack_from")
        and _uses_struct(SharedRingBuffer._store, "pack_into")
    ):
        return False

    def load(ring, offset: int) -> int:
        return ring._buf[offset: offset + 8].cast("Q")[0]

    def store(ring, offset: int, value: int) -> None:
        ring._buf[offset: offset + 8].cast("Q")[0] = value

    SharedRingBuffer._load = load
    SharedRingBuffer._store = store
    return True


def serve(trace_dir: Optional[str]) -> None:
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.gateway.server import GatewayServer

    shimmed = _word_atomic_ring_counters()
    tracer = None
    if trace_dir:
        from perfbench.spans import install

        tracer = install(Path(trace_dir))

    def emit(message: Dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    def snapshot() -> Dict:
        return {
            "gateway": gateway.stats(),
            "cluster": _counters(cluster.stats()),
            "processes": _process_tree(os.getpid()),
        }

    mark: Dict = {}
    with ClusterCoordinator(num_workers=WORKERS, transport="shm") as cluster:
        gateway = GatewayServer(cluster)
        with gateway.background():
            emit({"port": gateway.port, "ring_counter_shim": shimmed})
            # The gateway is idle whenever a command arrives (no client is
            # pushing), so reading the cluster from this thread is safe.
            for line in sys.stdin:
                command = line.strip()
                if command == "mark":
                    mark = snapshot()
                    emit({"ok": True})
                elif command == "report":
                    emit({"mark": mark, "end": snapshot()})
                elif command == "exit":
                    break
            # Let the handlers of the closed client connections finish.
            deadline = time.monotonic() + 10.0
            while gateway.stats()["connections_current"] and time.monotonic() < deadline:
                time.sleep(0.01)
    if tracer is not None:
        tracer.dump()


class ServerProcess:
    """Parent-side handle: start, mark, report, close; always reaps the child."""

    def __init__(self, trace_dir: Optional[Path] = None, timeout: float = 60.0) -> None:
        self.started = time.perf_counter()
        command = [sys.executable, str(Path(__file__).resolve())]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self._timeout = timeout
        self._process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, **THREAD_PINS},
            text=True,
            # Its own process group: the workers and the shared-memory
            # resource tracker join it, so kill() can reach all of them.
            start_new_session=True,
        )
        try:
            hello = self._reply()
        except BaseException:
            self.kill()
            raise
        self.port: int = hello["port"]
        #: Whether the server replaced the ring's counter accessors.
        self.ring_counter_shim: bool = hello["ring_counter_shim"]

    def _reply(self) -> Dict:
        line = self._process.stdout.readline()
        if not line:
            code = self._process.wait(timeout=self._timeout)
            raise RuntimeError(f"benchmark server exited with code {code}")
        return json.loads(line)

    def _command(self, command: str) -> Dict:
        self._process.stdin.write(command + "\n")
        self._process.stdin.flush()
        return self._reply()

    def mark(self) -> None:
        """Start of the measured window (CPU and counter baselines)."""
        self._command("mark")

    def report(self) -> Dict:
        """Counters, CPU and peak RSS at the mark and now."""
        return self._command("report")

    def close(self) -> None:
        """Shut the server down and wait for it (and its workers) to exit."""
        try:
            self._process.stdin.write("exit\n")
            self._process.stdin.close()
            code = self._process.wait(timeout=self._timeout)
            if code:
                raise RuntimeError(f"benchmark server exited with code {code}")
        finally:
            self.kill()

    def kill(self) -> None:
        """Stop whatever is left of the server's process group, and reap it.

        A server that dies abruptly leaves its forked workers behind, and
        they keep each other alive through the pipe ends each inherited, so
        the whole group is signalled, then waited for.  After a clean exit
        only the resource tracker may linger; it ignores SIGTERM and leaves
        on its own once the server is gone, so it gets a moment first.
        """
        group = self._process.pid
        escalation = [signal.SIGTERM, signal.SIGKILL]
        if self._process.poll() is not None:
            escalation.insert(0, None)
        for signal_number in escalation:
            if signal_number is not None:
                try:
                    os.killpg(group, signal_number)
                except ProcessLookupError:
                    break
            if self._group_gone(group, timeout=5.0):
                break
        self._process.wait()
        for stream in (self._process.stdin, self._process.stdout):
            if stream is not None and not stream.closed:
                stream.close()

    def _group_gone(self, group: int, timeout: float) -> bool:
        """Wait until no member of ``group`` is still running.

        Orphaned members stay zombies until the container's init reaps
        them; they have ended, so they do not count.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self._process.poll()
            if not any(
                int(fields[2]) == group and fields[0] != "Z" for _, fields in _proc_stats()
            ):
                return True
            time.sleep(0.01)
        return False

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()


if __name__ == "__main__":
    import argparse

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    serve(parser.parse_args().trace_dir)
