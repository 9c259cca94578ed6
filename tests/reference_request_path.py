"""The Retwis request-path code DR-16 replaced, kept as the reference.

DR-16 made two host-only rewrites on Fig 12's request path:

* ``ReservationQueue.reserve`` walks runs of exactly touching intervals
  instead of stepping over every back-to-back interval of a backlog;
* the timeline's top ``TIMELINE_LENGTH`` ids come from ``heapq.nlargest``
  over one set union (``retwis.newest_tweet_ids``) instead of a
  comprehension and a full sort, in ``cb_get_timeline`` and in the Redis
  baseline.

Returned starts, interval lists, counters and timelines must be exactly what
the bodies below — copied from the parent commit — produce.
``tests/property/test_request_path_reference.py`` compares reservation by
reservation and timeline by timeline;
``tests/integration/test_host_only_request_path.py`` patches them in with
:func:`patch_in` and compares whole seeded runs.
"""

from bisect import bisect_right
from typing import Iterable, List

from repro.apps import retwis
from repro.apps.retwis import TIMELINE_LENGTH
from repro.sim import ReservationQueue


def reserve(self: ReservationQueue, arrival_ms: float, service_ms: float) -> float:
    """``ReservationQueue.reserve`` before DR-16: one step per interval."""
    arrival = float(arrival_ms)
    service = float(service_ms)
    if service <= 0.0:
        return arrival
    starts = self._starts
    ends = self._ends
    index = bisect_right(ends, arrival)
    start = arrival
    count = len(starts)
    while index < count:
        if start + service <= starts[index]:
            break
        if start < ends[index]:
            start = ends[index]
        index += 1
    starts.insert(index, start)
    ends.insert(index, start + service)
    self.busy_ms += service
    self.completed += 1
    if count + 1 > self._COMPACT_LIMIT:
        cut = count + 1 - self._COMPACT_KEEP
        del starts[:cut]
        del ends[:cut]
    return start


def newest_tweet_ids(id_groups: Iterable[Iterable[str]]) -> List[str]:
    """``cb_get_timeline``'s expression before DR-16 (the Redis baseline's
    ``sorted(set(flat_list), reverse=True)[:TIMELINE_LENGTH]`` is the same
    set, sorted the same way)."""
    return sorted({tid for ids in id_groups for tid in ids},
                  reverse=True)[:TIMELINE_LENGTH]


def patch_in(monkeypatch) -> None:
    """Run the system on the reference request path until the test ends."""
    monkeypatch.setattr(ReservationQueue, "reserve", reserve)
    monkeypatch.setattr(retwis, "newest_tweet_ids", newest_tweet_ids)
