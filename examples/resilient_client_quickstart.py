"""Resilience quickstart: survive disconnects, a worker kill, and a wedge.

The gateway quickstart showed TKCM serving over a TCP socket; this one
breaks that socket — and the cluster behind it — on purpose, and shows
the stream coming through bit-identical anyway:

1. **Lease + resume** — the :class:`repro.GatewayServer` runs with
   ``lease_ttl`` set, so a dropped connection's sessions are parked under
   a capability token instead of destroyed.  The
   :class:`repro.gateway.ResilientGatewayClient` keeps every
   unacknowledged frame in a sequence-numbered outbox; after
   ``inject_disconnect()`` severs the socket mid-stream it reconnects,
   resumes its lease, and replays exactly what the server never applied.
2. **Supervised healing** — a :class:`repro.cluster.ClusterSupervisor`
   probes worker health each ``tick()``.  A hard-killed worker probes
   dead and is recovered from its checkpoint + WAL shard; a *wedged*
   worker (process alive, serving loop hung) fails the ping deadline,
   gets fenced, and is recovered the same way — no operator involved.
3. **Parity** — after two disconnects, one kill, and one wedge, the
   imputed ticks are compared against an in-process run of the identical
   stream: bit-identical.

Run it with ``python examples/resilient_client_quickstart.py``.
"""

from __future__ import annotations

import random
import tempfile
import time

import numpy as np

from repro import (
    ClusterCoordinator,
    DurabilityConfig,
    DurabilityPolicy,
    GatewayServer,
    ImputationService,
)
from repro.cluster import (
    ClusterHealthSource,
    ClusterSupervisor,
    HealthController,
    SupervisorConfig,
)
from repro.cluster.bench import results_identical
from repro.datasets import generate_sbr_shifted
from repro.gateway import ReconnectPolicy, ResilientGatewayClient

NUM_SERIES = 3
WINDOW = 288              # one day of 5-minute samples
STREAM = 96               # eight streamed hours
OUTAGE = 24               # the target series goes dark for two hours

SESSION_PARAMS = dict(
    method="tkcm", window_length=WINDOW, pattern_length=24,
    num_anchors=4, num_references=2,
)


def build_station(seed):
    dataset = generate_sbr_shifted(num_series=NUM_SERIES, num_days=2, seed=seed)
    names = list(dataset.names)
    matrix = np.stack([dataset.values(n) for n in names], axis=1)
    history = {name: matrix[:WINDOW, j] for j, name in enumerate(names)}
    stream = matrix[WINDOW: WINDOW + STREAM].copy()
    stream[20: 20 + OUTAGE, 0] = np.nan
    return names, history, stream


def params_for(names):
    return dict(SESSION_PARAMS, reference_rankings={names[0]: names[1:]})


def heal(supervisor, what):
    """Tick the supervisor until the fleet is whole again."""
    cluster = supervisor.cluster
    started = time.perf_counter()
    for _ in range(10):
        supervisor.tick()
        if not cluster.dead_workers():
            seconds = time.perf_counter() - started
            print(f"supervisor healed the {what} in {seconds * 1e3:.0f} ms "
                  f"(restarts so far: {supervisor.restarts})")
            return
    raise SystemExit(f"supervisor failed to heal the {what}")


def main() -> None:
    names, history, stream = build_station(41)

    with tempfile.TemporaryDirectory(prefix="tkcm-resilience-") as root:
        durability = DurabilityConfig(
            root, policy=DurabilityPolicy(checkpoint_every=64)
        )
        with ClusterCoordinator(num_workers=2, durability=durability) as cluster:
            supervisor = ClusterSupervisor(
                cluster=cluster,
                # No restart pacing here: the backoff + crash-loop brake
                # get their own drill (``tkcm-repro resilience-bench``).
                controller=HealthController(
                    SupervisorConfig(ping_timeout=0.25, restart_backoff_base=0.0)
                ),
                source=ClusterHealthSource(cluster, ping_timeout=0.25),
            )
            server = GatewayServer(cluster, lease_ttl=30.0)
            with server.background():
                print(f"leased gateway on {server.host}:{server.port} "
                      f"in front of a durable 2-worker cluster")
                wire_results = []
                with ResilientGatewayClient(
                    "127.0.0.1", server.port,
                    policy=ReconnectPolicy(backoff_base=0.01, backoff_cap=0.25),
                    rng=random.Random(7),
                ) as client:
                    client.create_session(
                        "rooftop", series_names=names, **params_for(names)
                    )
                    client.prime("rooftop", history)

                    for t, row in enumerate(stream):
                        client.push("rooftop", row)
                        if t in (15, 55):
                            # No flush first: the outbox holds genuinely
                            # unacknowledged frames when the socket dies.
                            client.inject_disconnect()
                            print(f"t={t}: socket severed mid-stream")
                        elif t == 35:
                            wire_results.extend(client.flush().get("rooftop", []))
                            cluster.terminate_worker(0)
                            print(f"t={t}: worker 0 hard-killed")
                            heal(supervisor, "kill")
                        elif t == 75:
                            wire_results.extend(client.flush().get("rooftop", []))
                            cluster.wedge_worker(1)
                            print(f"t={t}: worker 1 wedged (alive, hung)")
                            heal(supervisor, "wedge")
                    wire_results.extend(client.flush().get("rooftop", []))

                    print(f"client: {client.reconnects} reconnects, "
                          f"{client.frames_replayed} frames replayed, "
                          f"{client.outbox_frames} left unacknowledged")
                stats = server.stats()
                print(f"server: {stats['leases_created']} leases created, "
                      f"{stats['leases_resumed']} resumed, "
                      f"{stats['records_in']} records applied")
            supervisor.tick()   # a closing probe round: all healthy again
            states = dict(supervisor.controller.states)
            print(f"fleet health after the drill: {states}")

    # The same stream, in process, nothing ever failing — the faults must
    # have changed nothing.
    with ImputationService() as service:
        service.create_session("ref", series_names=names, **params_for(names))
        service.prime("ref", history)
        expected = []
        for row in stream:
            expected.extend(service.push("ref", row))

    identical = results_identical({"s": wire_results}, {"s": expected})
    print(f"{len(wire_results)} imputed ticks despite 2 disconnects, "
          f"1 kill and 1 wedge; bit-identical to the unbroken run: "
          f"{identical}")
    if not identical:
        raise SystemExit("resilient serving diverged from the reference")


if __name__ == "__main__":
    main()
