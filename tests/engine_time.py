"""The request context of a scheduler call issued at the engine's time."""

from repro.sim import RequestContext, SimClock


def at_engine_time(scheduler) -> RequestContext:
    """A fresh context starting at the engine's current virtual time.

    ``Scheduler.call``/``call_dag`` require their request's context; tests
    that drive a scheduler directly, outside any client, start each call on
    this one.
    """
    return RequestContext(clock=SimClock(scheduler.engine.now_ms))
