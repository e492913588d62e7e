"""Network ingest gateway: the tier that puts a wire in front of serving.

Everything below this package (engine → service → cluster → durability →
shm transport) is driven by an in-process caller; :mod:`repro.gateway`
makes the serving story end-to-end over TCP:

* :mod:`repro.gateway.protocol` — the length-prefixed, CRC-checked binary
  frame protocol (pickle-free; payload layouts shared with the cluster's
  shared-memory BlockCodec).
* :mod:`repro.gateway.server` — :class:`GatewayServer`, an asyncio
  front-end multiplexing thousands of connections onto one cluster's
  pipelined path, forwarding PUSH blocks and result frames as bytes and
  streaming results back as the workers apply them, with watermark
  backpressure.
* :mod:`repro.gateway.client` — :class:`GatewayClient` (sync) and
  :class:`AsyncGatewayClient` (asyncio core).
* :mod:`repro.gateway.resilient` — :class:`ResilientGatewayClient` /
  :class:`AsyncResilientGatewayClient`: reconnect with backoff + jitter,
  session-lease resume, and an unacknowledged-frame replay outbox.
* :mod:`repro.gateway.loadgen` — the open-loop load generator behind the
  ``gateway-bench`` CLI subcommand and ``BENCH_gateway.json``.
"""

from .client import AsyncGatewayClient, GatewayClient
from .loadgen import (
    LoadgenReport,
    LoadgenStation,
    arrival_schedule,
    build_loadgen_workload,
    gateway_bench_record,
    run_loadgen,
)
from .resilient import (
    AsyncResilientGatewayClient,
    ReconnectPolicy,
    ResilientGatewayClient,
)
from .server import GatewayServer

__all__ = [
    "AsyncGatewayClient",
    "AsyncResilientGatewayClient",
    "GatewayClient",
    "GatewayServer",
    "LoadgenReport",
    "LoadgenStation",
    "ReconnectPolicy",
    "ResilientGatewayClient",
    "arrival_schedule",
    "build_loadgen_workload",
    "gateway_bench_record",
    "run_loadgen",
]
