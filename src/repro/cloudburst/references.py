"""Client-facing handles: KVS references and futures (§3, Figure 2).

* A :class:`CloudburstReference` names a KVS key in a function's argument
  list.  The runtime resolves it (through the executor-local cache) before
  invoking the function, and the scheduler uses references to make
  locality-aware placement decisions.
* A :class:`CloudburstFuture` is what every invocation returns
  (``client.call`` / ``client.call_dag``): the one handle to its outcome.
  The invocation's :class:`~repro.cloudburst.sessions.DagSession` creates it
  and is the only code that resolves it; ``get()`` blocks (in virtual time)
  through the session's wait until the outcome appears, with an optional
  timeout.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from ..errors import FutureTimeoutError


class CloudburstReference:
    """A reference to a KVS key, resolved by the runtime at invocation time."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        if not key:
            raise ValueError("a CloudburstReference needs a non-empty key")
        self.key = key

    def __repr__(self) -> str:
        return f"CloudburstReference({self.key!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CloudburstReference):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


def extract_references(args: Iterable[Any]) -> List[CloudburstReference]:
    """All KVS references appearing (possibly nested) in an argument list."""
    found: List[CloudburstReference] = []
    stack = list(args)
    while stack:
        item = stack.pop()
        if isinstance(item, CloudburstReference):
            found.append(item)
        elif isinstance(item, (list, tuple, set)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
    return found


class CloudburstFuture:
    """Handle to the result of a Cloudburst invocation (paper Table 1).

    Every ``client.call``/``client.call_dag`` returns one of these.  A
    ``call`` ran in the caller's request context, so its future arrives
    already resolved.  A ``call_dag`` was enqueued as discrete events on the
    cluster's engine: ``get(timeout_ms=...)`` *advances virtual time* —
    firing engine events — until the result appears or the timeout elapses,
    and leaves the engine at the request's completion time;
    ``add_done_callback`` delivers the resolution without blocking (the only
    option from inside an engine event, where the loop cannot be re-entered).

    ``is_ready()`` is the non-raising probe and never advances time.
    ``get()`` returns the invocation's *value*; ``result()`` returns the full
    :class:`~repro.cloudburst.scheduler.ExecutionResult` payload (latency,
    retries, session state).  Failed invocations re-raise their error from
    ``get()``/``result()``; ``exception()`` inspects it without raising.
    With ``store_in_kvs`` the value is also written to the KVS under
    ``result_key``, read from the payload once the future resolves.
    """

    def __init__(self, advance: Optional[
            Callable[["CloudburstFuture", Optional[float]], None]] = None):
        """``advance`` is the hook that makes progress (fires engine events)
        until the future resolves or a deadline passes; it is dropped when
        the future settles."""
        self._advance = advance
        self._done = False
        self._result = None  # the ExecutionResult payload
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["CloudburstFuture"], None]] = []

    @property
    def result_key(self) -> Optional[str]:
        """The KVS key a ``store_in_kvs`` result was written under (else None)."""
        return None if self._result is None else self._result.result_key

    # -- probes (never advance time, never raise) ---------------------------------------
    def done(self) -> bool:
        """True once the future has an outcome — a value *or* an error."""
        return self._done

    def is_ready(self) -> bool:
        """True when ``get()`` would return a value without blocking."""
        return self._done and self._exception is None

    def exception(self) -> Optional[BaseException]:
        """The invocation's error, or None — a non-raising, non-blocking probe.

        Like :meth:`is_ready` this never advances time: None means the
        invocation succeeded *or* is still pending (check :meth:`done` to
        distinguish).  Use ``get()``/``result()`` to block until an outcome
        exists.
        """
        return self._exception

    # -- blocking access -----------------------------------------------------------------
    def get(self, timeout_ms: Optional[float] = None) -> Any:
        """Return the resolved value.

        Advances virtual time (fires engine events) until the result
        appears; ``timeout_ms`` bounds how far virtual time may advance (None
        = until the engine drains), and a future still unresolved then raises
        :class:`~repro.errors.FutureTimeoutError`.  Use :meth:`is_ready` to
        probe without raising, and :meth:`add_done_callback` to wait without
        blocking.
        """
        return self.result(timeout_ms).value

    def result(self, timeout_ms: Optional[float] = None):
        """The full :class:`ExecutionResult` payload (blocking like ``get``)."""
        self._wait(timeout_ms)
        if self._exception is not None:
            raise self._exception
        return self._result

    # -- ExecutionResult conveniences ------------------------------------------------------
    @property
    def value(self) -> Any:
        """The resolved value (blocks like ``get()`` with no deadline)."""
        return self.get()

    @property
    def latency_ms(self) -> float:
        return self.result().latency_ms

    @property
    def execution_id(self) -> str:
        return self.result().execution_id

    @property
    def retries(self) -> int:
        return self.result().retries

    @property
    def ctx(self):
        return self.result().ctx

    @property
    def session(self):
        return self.result().session

    # -- completion delivery ---------------------------------------------------------------
    def add_done_callback(self, fn: Callable[["CloudburstFuture"], None]) -> None:
        """Call ``fn(future)`` when the future resolves (now, if it already has).

        This is how code inside engine events consumes results: callbacks fire from
        the engine event that completes the invocation, so no virtual time is
        spent waiting.  Callbacks added after resolution run immediately.
        """
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    # -- resolution hooks --------------------------------------------------------------------
    def _set_result(self, result) -> None:
        """Resolve with an ExecutionResult payload (completion hook)."""
        self._result = result
        self._settle()

    def _set_exception(self, exc: BaseException) -> None:
        """Resolve with an error (failure hook); ``get()`` re-raises."""
        self._exception = exc
        self._settle()

    def _settle(self) -> None:
        # The hook holds the session that resolved us: drop it, so a settled
        # future does not keep its finished session alive.
        self._done = True
        self._advance = None
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def _wait(self, timeout_ms: Optional[float]) -> None:
        if self._done:
            return
        if self._advance is not None:
            self._advance(self, timeout_ms)
        if not self._done:
            raise FutureTimeoutError(timeout_ms)

    def __repr__(self) -> str:
        if not self._done:
            state = "pending"
        elif self._exception is not None:
            state = f"failed: {self._exception!r}"
        else:
            state = "ready"
        return f"CloudburstFuture({self.result_key!r}, {state})"
