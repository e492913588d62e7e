"""Forked workers close what they inherit from their coordinator's process.

A worker inherits the coordinator-side ends of every pipe created before
it; holding one, it never sees EOF on its own command pipe and would keep
running after a SIGKILL of its coordinator.  A worker forked while a
gateway serves the cluster (heal, rebalance, autoscale) inherits the
gateway's sockets too; holding them, it keeps a stopped gateway's clients
connected and its port bound.
"""

import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterCoordinator
from repro.gateway import GatewayServer
from tests.timing import wait_until

ROOT = Path(__file__).resolve().parents[2]

COORDINATOR = """
import sys, time
from repro.cluster.coordinator import ClusterCoordinator
cluster = ClusterCoordinator(num_workers=int(sys.argv[1]))
print(" ".join(str(w._process.pid) for w in cluster._workers), flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie (an unreaped exit)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("workers", [2, 3])
def test_workers_exit_when_their_coordinator_is_killed(workers):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    coordinator = subprocess.Popen(
        [sys.executable, "-c", COORDINATOR, str(workers)],
        # stderr off: the killed coordinator's resource tracker reports the
        # shared-memory segments it unlinks on its behalf.
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    pids = []
    try:
        pids = [int(pid) for pid in coordinator.stdout.readline().split()]
        assert len(pids) == workers
        coordinator.send_signal(signal.SIGKILL)
        coordinator.wait(timeout=10)
        wait_until(
            lambda: not any(_running(pid) for pid in pids),
            timeout=10.0,
            message=f"workers {[p for p in pids if _running(p)]} outlived "
            "their killed coordinator",
        )
    finally:
        coordinator.kill()
        coordinator.wait(timeout=10)
        coordinator.stdout.close()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def _sees_eof(client: socket.socket) -> bool:
    try:
        return client.recv(1) == b""
    except socket.timeout:
        return False
    except ConnectionResetError:
        return True


def test_workers_forked_under_a_gateway_drop_its_sockets():
    with ClusterCoordinator(num_workers=1) as cluster:
        server = GatewayServer(cluster)
        with server.background():
            port = server.port
            client = socket.create_connection(("127.0.0.1", port))
            wait_until(lambda: server.stats()["connections_current"] == 1,
                       message="the gateway never accepted the client")
            cluster.rebalance(2)  # forks a worker while both sockets are open
        with client:
            client.settimeout(0.05)
            wait_until(lambda: _sees_eof(client), timeout=5.0,
                       message="the client saw no EOF from the stopped gateway")
        assert cluster.dead_workers() == []
        # The forked worker is alive and the port is free again.
        with socket.create_server(("127.0.0.1", port)):
            pass
