"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so a
caller embedding the library can catch a single base class.  Subclasses are
kept narrow and descriptive so that error handling at call sites can be
specific (e.g. distinguish a configuration error from a data problem).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A parameter combination is invalid (e.g. window too small for k patterns)."""


class InsufficientDataError(ReproError):
    """The streaming window does not contain enough data for the requested operation."""


class MissingReferenceError(ReproError):
    """No usable reference time series is available at the current time point."""


class DatasetError(ReproError):
    """A dataset is malformed, unknown, or cannot be generated with the given parameters."""


class StreamError(ReproError):
    """A streaming operation was used incorrectly (e.g. out-of-order timestamps)."""


class ImputationError(ReproError):
    """An imputer failed to produce an estimate for a missing value."""


class NotFittedError(ReproError):
    """An offline imputer was asked to transform data before being fitted."""


class ServiceError(ReproError):
    """A service-level operation failed (e.g. unknown or duplicate session id)."""


class ClusterError(ReproError):
    """A cluster-level operation failed (e.g. a worker process died or an
    invalid shard was addressed)."""


class WorkerCrashedError(ClusterError):
    """A cluster worker process died while the coordinator was talking to it
    (mid-RPC, or while frames were being exchanged over its shared-memory
    rings).  Subclasses :class:`ClusterError`, so existing handlers keep
    working; on a durable cluster the usual follow-up is
    :meth:`~repro.cluster.coordinator.ClusterCoordinator.heal`."""


class RolledBackError(ClusterError):
    """The session's stream was rolled back by a worker crash: records that
    were in flight to the dead worker, and everything queued behind them,
    were not kept (the recovered shard holds exactly the state its worker
    had confirmed).  Pushes are refused until the caller acknowledges with
    :meth:`~repro.cluster.coordinator.ClusterCoordinator.rewind`, which
    returns ``applied`` — the session's confirmed pipelined record count —
    so the caller can re-send from there."""

    def __init__(self, message: str, *, applied: int = 0) -> None:
        super().__init__(message)
        self.applied = int(applied)


class GatewayError(ReproError):
    """A network-gateway operation failed (connection refused, handshake
    rejected, server-side push failure reported over the wire)."""


class ProtocolError(GatewayError):
    """A wire frame is malformed (bad CRC, oversized length prefix, garbage
    bytes, unknown frame kind).  The connection that produced it cannot be
    resynchronised and is closed."""


class OverloadedError(GatewayError):
    """The gateway shed a push because the serving tier's backlog crossed the
    configured shed watermark; the record was **not** applied.  Retry later
    or slow the producer down."""


class UnavailableError(ClusterError, GatewayError):
    """The target shard is degraded (its worker is crash-looping and the
    supervisor's circuit breaker opened), so the operation was refused
    instead of hanging; the record was **not** applied.  Healthy shards keep
    serving.  ``retry_after`` is the suggested back-off in seconds.  Raised
    by the coordinator and relayed over the wire as ``ERROR(UNAVAILABLE)``,
    so it derives from both :class:`ClusterError` and
    :class:`GatewayError`."""

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class DurabilityError(ReproError):
    """A durable-storage operation failed (corrupt checkpoint, bad WAL frame,
    unwritable store directory)."""


class RecoveryError(DurabilityError):
    """A crash-recovery operation could not restore the requested state."""
