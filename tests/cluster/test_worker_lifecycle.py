"""A cluster's workers must not outlive a coordinator that dies abruptly.

Forked workers inherit the coordinator-side ends of every pipe created
before them; a worker still holding one never sees EOF on its own command
pipe, so it would keep running after a SIGKILL of its coordinator.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

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
