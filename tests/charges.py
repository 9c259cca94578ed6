"""Queries over a request's charge log (``RequestContext.charges``).

Tests assert on what a request was charged for; the system itself only
appends to the log.  Each query filters by service and, optionally, by
operation.
"""

from typing import Dict, List, Optional, Tuple

from repro.sim import ChargeRecord, RequestContext


def charges_for(ctx: RequestContext, service: str,
                operation: Optional[str] = None) -> List[ChargeRecord]:
    """The charges of ``service`` (and ``operation``, when given), in order."""
    return [charge for charge in ctx.charges
            if charge.service == service
            and (operation is None or charge.operation == operation)]


def count(ctx: RequestContext, service: str, operation: Optional[str] = None) -> int:
    return len(charges_for(ctx, service, operation))


def total(ctx: RequestContext, service: str, operation: Optional[str] = None) -> float:
    return sum(charge.latency_ms for charge in charges_for(ctx, service, operation))


def breakdown(ctx: RequestContext) -> Dict[Tuple[str, str], float]:
    """Charged latency summed by ``(service, operation)``."""
    totals: Dict[Tuple[str, str], float] = {}
    for charge in ctx.charges:
        key = (charge.service, charge.operation)
        totals[key] = totals.get(key, 0.0) + charge.latency_ms
    return totals
