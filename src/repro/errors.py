"""Exception hierarchy shared across the Cloudburst reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can distinguish reproduction-library failures from ordinary Python errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class KeyNotFoundError(ReproError, KeyError):
    """A requested key does not exist in the key-value store."""

    def __init__(self, key: str):
        super().__init__(f"key not found: {key!r}")
        self.key = key


class LatticeTypeError(ReproError, TypeError):
    """Two lattice values of incompatible types were merged."""


class FunctionNotFoundError(ReproError):
    """A function name was invoked before being registered."""

    def __init__(self, name: str):
        super().__init__(f"function not registered: {name!r}")
        self.name = name


class DagNotFoundError(ReproError):
    """A DAG name was invoked before being registered."""

    def __init__(self, name: str):
        super().__init__(f"DAG not registered: {name!r}")
        self.name = name


class DagDeletedError(DagNotFoundError):
    """A DAG was invoked after ``delete_dag`` removed it (paper Table 1).

    Distinct from :class:`DagNotFoundError` so callers can tell a typo from a
    deliberate deletion: a deleted DAG must be re-registered before it can be
    called again.
    """

    def __init__(self, name: str):
        ReproError.__init__(
            self, f"DAG {name!r} has been deleted; re-register it before calling")
        self.name = name


class FutureTimeoutError(ReproError, TimeoutError):
    """A :class:`CloudburstFuture` did not resolve within its timeout.

    ``future.get(timeout_ms=...)`` advances virtual time and raises this
    when the deadline passes (or the engine drains) with the future still
    unresolved.
    """

    def __init__(self, timeout_ms=None):
        message = "future did not resolve"
        if timeout_ms is not None:
            message += f" within {timeout_ms:g} ms of virtual time"
        super().__init__(message)
        self.timeout_ms = timeout_ms


class InvalidDagError(ReproError):
    """A DAG definition is malformed (cycles, unknown functions, ...)."""


class SchedulingError(ReproError):
    """The scheduler could not place a function on any executor."""


class ExecutorFailedError(ReproError):
    """An executor crashed (or was killed by fault injection) mid-request."""

    def __init__(self, executor_id: str, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"executor {executor_id} failed{detail}")
        self.executor_id = executor_id


class DagExecutionError(ReproError):
    """A DAG failed even after the configured number of retries."""


class ConsistencyError(ReproError):
    """A consistency-protocol invariant could not be satisfied."""


class StorageOverloadError(ReproError):
    """Every replica's storage-node work queue rejected the request.

    Bounded per-node FIFO queues push back on writers instead of growing
    without limit, and a multi-master put that finds *all* of a key's
    replicas saturated fails fast rather than queueing unboundedly.
    """

    def __init__(self, key: str, owners=()):
        detail = f" (replicas: {', '.join(owners)})" if owners else ""
        super().__init__(f"all storage replicas overloaded for {key!r}{detail}")
        self.key = key
        self.owners = list(owners)


class MessagingError(ReproError):
    """Direct executor-to-executor messaging failed."""
