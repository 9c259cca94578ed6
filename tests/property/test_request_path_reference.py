"""Reservation by reservation and timeline by timeline, DR-16 equals the parent.

``ReservationQueue.reserve`` walks runs of exactly touching intervals; the
reference (``tests/reference_request_path.py``) steps over every interval.
For any sequence of reservations — out of order, behind deep backlogs,
touching or missing a neighbour by a microsecond, across compaction — both
must return the same start and leave the same intervals, so ``depth``,
``busy_at`` and ``is_full`` read the same at every time, and ``busy_ms`` and
``completed`` agree.  The runs themselves must be exactly the coalesced
intervals: a run merged across a near-touch would hide a gap a later
reservation fits into.

``cb_get_timeline`` picks its ids with ``retwis.newest_tweet_ids``; patched
back to the parent's expression it must issue the same reads in the same
order and return the same timeline, for empty and repeated following lists,
fewer ids than a timeline holds, ids repeated across concurrent versions and
``None`` versions.
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

import reference_request_path as reference
from repro.apps import retwis
from repro.apps.retwis import TIMELINE_LENGTH, cb_get_timeline, posts_key, tweet_key
from repro.cloudburst import ConsistencyLevel
from repro.sim import ReservationQueue


class _SmallQueue(ReservationQueue):
    """The shipped queue with a compaction limit a drawn sequence can cross."""

    __slots__ = ()
    _COMPACT_LIMIT = 40
    _COMPACT_KEEP = 16


#: Dyadic services sum exactly, so back-to-back intervals touch; 1e-6 against
#: times below 1e4 keeps ``t + service > t`` and fits a 1e-6 near-touch gap.
_SERVICES = [1e-6, 0.1, 0.25, 1.0, 2.5, 7.0]
_OFFSETS = [0.0, 0.0, 0.0, 1e-6, -1e-6, 0.5, 3.0, -2.0, -40.0]
_KINDS = ["grid", "after_end", "before_start", "burst"]

_OP = st.tuples(st.sampled_from(_KINDS), st.integers(0, 10**6),
                st.sampled_from(_OFFSETS), st.sampled_from(_SERVICES))


def _coalesced(queue):
    """The queue's intervals with exactly touching neighbours joined."""
    runs = []
    for start, end in zip(queue._starts, queue._ends):
        if runs and runs[-1][1] == start:
            runs[-1][1] = end
        else:
            runs.append([start, end])
    return runs


def _observed(queue, times):
    return [(queue.depth(t), queue.busy_at(t), queue.is_full(t)) for t in times]


def _drive(ops, make_queue, bound, probe_every=1):
    """Apply ``ops`` to a shipped and a reference queue, comparing as it goes."""
    shipped = make_queue(bound=bound)
    parent = make_queue(bound=bound)
    booked = []  # (start, end) of every reservation, shipped order
    step = 0
    for kind, pick, offset, service in ops:
        if kind == "grid":
            arrivals = [(pick % 400) * 0.5 + offset]
        elif kind == "burst":  # a deep backlog: many arrivals at one time
            arrivals = [(pick % 400) * 0.5 + offset] * (1 + pick % 60)
        elif not booked:
            arrivals = [offset]
        elif kind == "after_end":
            arrivals = [booked[pick % len(booked)][1] + offset]
        else:  # ends at (or near) the start of an earlier reservation
            arrivals = [booked[pick % len(booked)][0] - service - offset]
        for arrival in arrivals:
            start = shipped.reserve(arrival, service)
            assert start == reference.reserve(parent, arrival, service)
            booked.append((start, start + service))
            step += 1
            if step % probe_every == 0:
                times = (arrival, start, start + service, start - 1e-6,
                         start + service + 1e-6, arrival + 5.0)
                assert _observed(shipped, times) == _observed(parent, times)
    assert shipped._starts == parent._starts
    assert shipped._ends == parent._ends
    assert (shipped.busy_ms, shipped.completed) == (parent.busy_ms, parent.completed)
    assert [list(run) for run in zip(shipped._run_starts, shipped._run_ends)] \
        == _coalesced(shipped)
    return shipped


@given(st.lists(_OP, max_size=80), st.sampled_from([None, 1, 3, 50]))
@settings(max_examples=400, deadline=None)
def test_reserve_places_like_the_reference(ops, bound):
    _drive(ops, _SmallQueue, bound)


def test_touching_and_near_touching_neighbours():
    """A 1e-6 gap between two runs takes a 1e-6 service; a touch does not."""
    ops = [("grid", 0, 0.0, 1.0), ("grid", 2, 0.0, 1.0),       # [0,1) [1,2)
           ("after_end", 1, 1e-6, 1.0),                        # [2+1e-6, 3+1e-6)
           ("grid", 0, 0.0, 1e-6),                             # the gap: 2.0
           ("grid", 0, 0.0, 1e-6)]                             # past all: 3+2e-6
    queue = _drive(ops, _SmallQueue, None)
    assert queue._starts[2] == 2.0 and len(queue._run_starts) == 1
    # The same near-touch behind later work (not booked at the tail).
    ops = [("grid", 0, 0.0, 1.0), ("grid", 6, 0.0, 1.0),       # [0,1) [3,4)
           ("after_end", 0, 1e-6, 1.0)]                        # [1+1e-6, 2+1e-6)
    queue = _drive(ops, _SmallQueue, None)
    assert len(queue._run_starts) == 3


def test_reserve_places_like_the_reference_across_the_real_compaction_limit():
    """Seeded streams of ~10,000 reservations cross ``_COMPACT_LIMIT`` (8,192)."""
    for seed in (0, 1):
        rng = random.Random(seed)
        ops = [(rng.choice(_KINDS), rng.randrange(10**6), rng.choice(_OFFSETS),
                rng.choice(_SERVICES)) for _ in range(1_500)]
        queue = _drive(ops, ReservationQueue, 8, probe_every=97)
        assert queue.completed > ReservationQueue._COMPACT_LIMIT
        assert len(queue._starts) <= ReservationQueue._COMPACT_LIMIT


# -- the timeline ---------------------------------------------------------------------------
_IDS = [f"t{1_000_000 + n}" for n in range(30)]
_AUTHORS = ["ann", "bob", "cy", "dee", "eve"]

_VERSION = st.one_of(st.none(), st.lists(st.sampled_from(_IDS), max_size=12))
_TIMELINE = st.fixed_dictionaries({
    "following": st.lists(st.sampled_from(_AUTHORS), max_size=7),
    "versions": st.dictionaries(st.sampled_from(_AUTHORS),
                                st.lists(_VERSION, max_size=3)),
    "parents": st.dictionaries(st.sampled_from(_IDS),
                               st.tuples(st.sampled_from(_IDS), st.sampled_from(_AUTHORS))),
    "missing": st.sets(st.sampled_from(_IDS), max_size=5),
    "causal": st.booleans(),
})


class _Reader:
    """The ``cloudburst`` object a timeline function sees, logging every read."""

    def __init__(self, drawn):
        self.drawn = drawn
        self.consistency_level = (ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL
                                  if drawn["causal"] else ConsistencyLevel.LWW)
        self.reads = []

    def _versions(self, author):
        return self.drawn["versions"].get(author)

    def _record(self, tweet_id):
        if tweet_id in self.drawn["missing"]:
            return None
        parent = self.drawn["parents"].get(tweet_id)
        return {"id": tweet_id, "parent": parent and parent[0],
                "parent_author": parent and parent[1]}

    def get_many_versions(self, keys):
        self.reads.append(("get_many_versions", tuple(keys)))
        authors = (key.rsplit("/", 1)[1] for key in keys)
        return {posts_key(a): self._versions(a) for a in authors
                if self._versions(a) is not None}

    def get_all_versions(self, key):
        self.reads.append(("get_all_versions", key))
        return self._versions(key.rsplit("/", 1)[1]) or []

    def get_many(self, keys):
        self.reads.append(("get_many", tuple(keys)))
        values = {}
        for key in keys:
            kind, name = key.split("/")[1:]
            if kind == "posts":
                versions = self._versions(name) or [None]
                values[key] = versions[-1]
            else:
                values[key] = self._record(name)
        return values

    def get(self, key):
        self.reads.append(("get", key))
        return self._record(key.rsplit("/", 1)[1])

    def get_dependencies(self, key):
        self.reads.append(("get_dependencies", key))
        parent = self.drawn["parents"].get(key.rsplit("/", 1)[1])
        return {tweet_key(parent[0]): None} if parent else {}


def _timeline(drawn):
    reader = _Reader(drawn)
    result = cb_get_timeline(reader, "me", following=drawn["following"])
    return result, reader.reads


@given(_TIMELINE)
@settings(max_examples=400, deadline=None)
def test_timeline_is_the_parents_timeline(drawn):
    shipped = _timeline(drawn)
    with mock.patch.object(retwis, "newest_tweet_ids", reference.newest_tweet_ids):
        assert _timeline(drawn) == shipped


def test_timeline_edges():
    everything = {"versions": {a: [_IDS] for a in _AUTHORS}, "parents": {},
                  "missing": set(), "causal": True}
    for following in ([], ["ann"], _AUTHORS):
        drawn = {**everything, "following": following}
        result, _ = _timeline(drawn)
        with mock.patch.object(retwis, "newest_tweet_ids", reference.newest_tweet_ids):
            assert _timeline(drawn)[0] == result
        expected = sorted(_IDS, reverse=True)[:TIMELINE_LENGTH] if following else []
        assert [tweet["id"] for tweet in result["tweets"]] == expected
    few = {**everything, "following": ["ann", "bob"],
           "versions": {"ann": [None, ["t1000003", "t1000001"]],
                        "bob": [["t1000001"], None, ["t1000002"]]}}
    assert [t["id"] for t in _timeline(few)[0]["tweets"]] == ["t1000003", "t1000002",
                                                             "t1000001"]


def test_newest_tweet_ids_is_the_sorted_prefix():
    rng = random.Random(3)
    for size in (0, 1, TIMELINE_LENGTH - 1, TIMELINE_LENGTH, TIMELINE_LENGTH + 1, 200):
        groups = [rng.sample(_IDS * 10, min(size, 300) // 3) for _ in range(3)]
        assert retwis.newest_tweet_ids(groups) == reference.newest_tweet_ids(groups)
