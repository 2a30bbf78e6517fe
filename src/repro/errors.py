"""Exception hierarchy for the Kyrix reproduction.

Every error raised by the library derives from :class:`KyrixError` so that
callers can catch a single base class.  Sub-hierarchies mirror the major
subsystems: the storage engine, the mini SQL layer, the declarative
specification / compiler, the backend server and the frontend client.
"""

from __future__ import annotations


class KyrixError(Exception):
    """Base class for every error raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Storage engine
# ---------------------------------------------------------------------------


class StorageError(KyrixError):
    """Base class for storage-engine failures."""


class SchemaError(StorageError):
    """A table schema is malformed or violated (unknown column, bad type)."""


class DuplicateTableError(StorageError):
    """An attempt was made to create a table that already exists."""


class UnknownTableError(StorageError):
    """A statement referenced a table that does not exist in the catalog."""


class DuplicateIndexError(StorageError):
    """An attempt was made to create an index whose name is already taken."""


class UnknownIndexError(StorageError):
    """An index name could not be resolved in the catalog."""


class DuplicateKeyError(StorageError):
    """A unique index rejected an insert because the key already exists."""


class RecordNotFoundError(StorageError):
    """A record id (rid) did not resolve to a live record."""


class PageError(StorageError):
    """A page could not be read, written or allocated."""


class TypeMismatchError(SchemaError):
    """A value's Python type does not match the declared column type."""


# ---------------------------------------------------------------------------
# Mini SQL layer
# ---------------------------------------------------------------------------


class SQLError(KyrixError):
    """Base class for SQL-layer failures."""


class SQLSyntaxError(SQLError):
    """The query text could not be tokenised or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class SQLPlanError(SQLError):
    """The query is syntactically valid but cannot be planned
    (unknown table/column, unsupported construct)."""


class SQLExecutionError(SQLError):
    """A runtime failure while executing a planned query."""


# ---------------------------------------------------------------------------
# Declarative model and compiler
# ---------------------------------------------------------------------------


class SpecError(KyrixError):
    """Base class for errors in the declarative application specification."""


class ValidationError(SpecError):
    """The compiler's constraint checker rejected the specification.

    ``issues`` carries the full list of human-readable problems so that a
    developer can fix all of them in one pass.
    """

    def __init__(self, issues: list[str]) -> None:
        super().__init__("; ".join(issues) if issues else "invalid specification")
        self.issues = list(issues)


class CompileError(SpecError):
    """The specification passed validation but could not be compiled."""


# ---------------------------------------------------------------------------
# Backend server
# ---------------------------------------------------------------------------


class ServerError(KyrixError):
    """Base class for backend-server failures."""


class UnknownCanvasError(ServerError):
    """A request referenced a canvas id that is not part of the application."""


class UnknownLayerError(ServerError):
    """A request referenced a layer index that does not exist on the canvas."""


class FetchError(ServerError):
    """A data-fetch request could not be satisfied."""


class PrecomputeError(ServerError):
    """Placement precomputation / indexing failed."""


class ReplicaTimeoutError(ServerError):
    """A replica answered, but only after the replica set's timeout budget.

    Raised by :class:`~repro.serving.replica.ReplicaService` when the
    (virtual) clock advanced past ``timeout_ms`` during one replica call;
    the slow response is discarded and the request fails over to the next
    healthy replica.
    """


class AllReplicasFailedError(ServerError):
    """Every attempted replica of a shard failed for one request.

    Raised by :class:`~repro.serving.replica.ReplicaService` only once the
    replica set is exhausted (or the configured retry limit is hit).
    ``causes`` maps each attempted replica index to the exception it raised,
    so operators can attribute the outage per replica.
    """

    def __init__(
        self, causes: dict[int, BaseException], attempts: int | None = None
    ) -> None:
        self.causes = dict(causes)
        self.attempts = attempts if attempts is not None else len(self.causes)
        detail = "; ".join(
            f"replica{index}: {type(error).__name__}: {error}"
            for index, error in sorted(self.causes.items())
        )
        super().__init__(
            f"all replicas failed after {self.attempts} attempt(s): "
            f"{detail or 'no replica was available to attempt'}"
        )


class WorkerError(ServerError):
    """Base class for shard-worker-process failures."""


class WorkerSpawnError(WorkerError):
    """A shard worker process failed to start (or to report ready in time)."""


class WorkerConnectionError(WorkerError):
    """The TCP connection to a shard worker failed (refused, reset, torn).

    Raised by :class:`~repro.net.socket_transport.SocketTransport` whenever a
    round-trip cannot complete at the socket level — the worker process is
    dead or unreachable, as opposed to the worker *answering* with an error.
    A replica set treats this as fatal for the replica and opens its circuit
    breaker immediately (a refused connection will not heal by retrying the
    very next request).
    """


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class ProtocolError(KyrixError):
    """A payload cannot cross the wire protocol losslessly.

    Raised when an encoder meets a value the codec has no representation
    for (e.g. a ``datetime`` column value in a JSON response), or when a
    decoder meets bytes that do not parse as the message they claim to be.
    Typed so callers can tell a protocol defect from a transport failure —
    silently coercing the value (the old ``default=str`` behaviour) would
    break the round-trip-is-lossless invariant without any error at all.
    """


# ---------------------------------------------------------------------------
# Socket framing
# ---------------------------------------------------------------------------


class FrameError(KyrixError):
    """Base class for length-prefixed frame codec failures."""


class FrameTooLargeError(FrameError):
    """A frame's declared (or encoded) size exceeds the codec's limit."""


class TruncatedFrameError(FrameError):
    """The stream ended mid-frame (inside a header or a payload)."""


class ProtocolViolationError(TruncatedFrameError):
    """The peer broke the one-frame-out/one-frame-back conversation.

    Raised by :func:`~repro.net.socket_transport.read_frame` when a peer
    sends *extra* frames for a single round-trip, and by
    :class:`~repro.net.socket_transport.SocketTransport` when a reply
    echoes another request's number — a protocol violation by a live,
    chatty peer, not a stream that died mid-frame.  Subclasses
    :class:`TruncatedFrameError` for compatibility with callers that treat
    any framing failure as a desynchronised connection.
    """


# ---------------------------------------------------------------------------
# Frontend client
# ---------------------------------------------------------------------------


class ClientError(KyrixError):
    """Base class for frontend failures."""


class JumpError(ClientError):
    """A jump was requested that is not defined from the current canvas."""


class ViewportError(ClientError):
    """A viewport move would place the viewport outside the canvas."""
