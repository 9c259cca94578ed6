"""Retwis: the Twitter-clone case study (§6.3.2, Figures 11 and 12).

The paper ports the ``retwis-py`` Redis application to Cloudburst as a set of
six functions and compares it with a "serverful" deployment of webservers
over Redis.  Conversation threads exercise causal consistency: reading a
reply before the tweet it responds to is confusing, and that is exactly the
anomaly counted here.

Cloudburst port (six functions): ``register_user``, ``follow_user``,
``post_tweet``, ``get_posts``, ``get_followers``, ``get_timeline``.

Data model (same keys on Cloudburst and on the Redis baseline):

* ``retwis/user/<name>``            — user profile record
* ``retwis/followers/<name>``       — list of follower names
* ``retwis/following/<name>``       — list of followee names
* ``retwis/posts/<name>``           — list of tweet ids by the user
* ``retwis/tweet/<id>``             — tweet record (author, text, parent id)

Under last-writer-wins, a reply can show up in a timeline whose original
tweet is missing (a stale posts list overwrote a newer one, or the original's
insertion has not propagated to the serving cache).  In causal mode, the
reply's write carries a dependency on the original tweet and on the posts
list it was read from, and the timeline function uses that metadata to fetch
the missing original — anomalies are prevented at the cost of extra reads.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..baselines import SimulatedRedis
from ..cloudburst import CloudburstCluster, CloudburstReference, ConsistencyLevel
from ..sim import LatencyModel, RequestContext
from ..workloads.social import RetwisRequest, SocialGraph

TIMELINE_LENGTH = 10


def user_key(name: str) -> str:
    return f"retwis/user/{name}"


def followers_key(name: str) -> str:
    return f"retwis/followers/{name}"


def following_key(name: str) -> str:
    return f"retwis/following/{name}"


def posts_key(name: str) -> str:
    return f"retwis/posts/{name}"


def tweet_key(tweet_id: str) -> str:
    return f"retwis/tweet/{tweet_id}"


def newest_tweet_ids(id_groups: Iterable[Iterable[str]]) -> List[str]:
    """The ``TIMELINE_LENGTH`` largest distinct ids across ``id_groups``, largest first.

    ``heapq.nlargest`` over the union is ``sorted(union, reverse=True)[:n]``
    (distinct ids have no ties) without sorting every followee's posts.
    """
    return heapq.nlargest(TIMELINE_LENGTH, set().union(*id_groups))


# -- the six Cloudburst functions -------------------------------------------------------------
def cb_register_user(cloudburst, name: str) -> Dict[str, str]:
    profile = {"name": name}
    cloudburst.put(user_key(name), profile)
    cloudburst.put(followers_key(name), [])
    cloudburst.put(following_key(name), [])
    cloudburst.put(posts_key(name), [])
    return profile


def cb_follow_user(cloudburst, follower: str, followee: str) -> List[str]:
    following = list(cloudburst.get(following_key(follower)) or [])
    if followee not in following:
        following.append(followee)
        cloudburst.put(following_key(follower), following)
    followers = list(cloudburst.get(followers_key(followee)) or [])
    if follower not in followers:
        followers.append(follower)
        cloudburst.put(followers_key(followee), followers)
    return following


def cb_post_tweet(cloudburst, author: str, tweet_id: str, text: str,
                  parent_id: Optional[str] = None) -> Dict[str, Optional[str]]:
    record = {"id": tweet_id, "author": author, "text": text, "parent": parent_id,
              "parent_author": None}
    if parent_id is not None:
        # Reading the original before replying is what creates the causal
        # dependency reply -> original (and reply -> original author's posts).
        try:
            parent = cloudburst.get(tweet_key(parent_id))
            record["parent_author"] = parent.get("author") if parent else None
            if record["parent_author"]:
                cloudburst.get(posts_key(record["parent_author"]))
        except Exception:
            record["parent_author"] = None
    cloudburst.put(tweet_key(tweet_id), record)
    posts = list(cloudburst.get(posts_key(author)) or [])
    posts.append(tweet_id)
    cloudburst.put(posts_key(author), posts)
    return record


def cb_get_posts(cloudburst, user: str) -> List[str]:
    return list(cloudburst.get(posts_key(user)) or [])


def cb_get_followers(cloudburst, user: str) -> List[str]:
    return list(cloudburst.get(followers_key(user)) or [])


def cb_get_timeline(cloudburst, user: str, following=None) -> Dict[str, object]:
    """Assemble the user's home timeline and report any causal anomalies.

    Returns ``{"tweets": [...], "anomalies": n}``.  An anomaly is a reply that
    is visible in the reader's view while the original tweet it responds to is
    missing from the (followed) original author's posts list as this reader
    observed it — the "reply before the post it refers to" confusion the paper
    uses to motivate causal consistency.

    In causal mode two mechanisms repair this without any application-level
    special-casing of the anomaly itself:

    * concurrent versions of a posts list are exposed and unioned, recovering
      appends that last-writer-wins would silently drop, and
    * the reply record carries causal dependencies on the original author's
      posts list, so re-reading that list under the distributed-session
      protocol is guaranteed to return a version that contains the original.

    Under LWW the same re-read just returns the stale cached copy, so the
    anomaly is observed.
    """
    if following is None:
        following = list(cloudburst.get(following_key(user)) or [])
    else:
        # Passed in as a KVS reference: the executor resolved it before
        # invocation, and the scheduler used it to route this request to a
        # cache that already holds the reader's social neighbourhood.
        following = list(following or [])
    causal = cloudburst.consistency_level.is_causal

    def read_posts(author: str) -> set:
        ids: set = set()
        try:
            if causal:
                for version in cloudburst.get_all_versions(posts_key(author)):
                    ids.update(version or [])
            else:
                ids.update(cloudburst.get(posts_key(author)) or [])
        except Exception:
            pass
        return ids

    # One overlapped multi-get fetches every followee's posts list; on a cold
    # cache this replaces ~|following| sequential KVS round trips with a
    # single batched miss (the fig12 starvation fix).  Missing lists read as
    # empty, exactly as the historical per-followee try/except loop did.
    post_key_owner = {posts_key(f): f for f in dict.fromkeys(following)}
    observed_posts: Dict[str, set] = {f: set() for f in post_key_owner.values()}
    try:
        if causal:
            for key, versions in cloudburst.get_many_versions(
                    list(post_key_owner)).items():
                for version in versions:
                    observed_posts[post_key_owner[key]].update(version or [])
        else:
            for key, value in cloudburst.get_many(list(post_key_owner)).items():
                observed_posts[post_key_owner[key]].update(value or [])
    except Exception:
        pass
    tweet_ids = newest_tweet_ids(observed_posts.values())
    records: Dict[str, Dict] = {}
    try:
        fetched = cloudburst.get_many([tweet_key(tid) for tid in tweet_ids])
    except Exception:
        fetched = {}
    for tweet_id in tweet_ids:
        record = fetched.get(tweet_key(tweet_id))
        if record:
            records[tweet_id] = record

    anomalies = 0
    for tweet_id, record in list(records.items()):
        parent, parent_author = record.get("parent"), record.get("parent_author")
        if parent is None or parent_author is None:
            continue
        if parent_author not in observed_posts:
            continue  # the reader does not follow the original's author
        if parent in observed_posts[parent_author] or parent in records:
            continue
        # The reply is visible but the original is not.
        if causal:
            # The reply's causal metadata names the versions it was written
            # after (the original tweet and the author's posts list); re-read
            # the list under the session protocol and follow the dependency to
            # the original record, then splice it into the timeline.
            refreshed = read_posts(parent_author)
            observed_posts[parent_author] |= refreshed
            dependencies = cloudburst.get_dependencies(tweet_key(tweet_id))
            recovered = parent in refreshed
            if not recovered and tweet_key(parent) in dependencies:
                try:
                    parent_record = cloudburst.get(tweet_key(parent))
                except Exception:
                    parent_record = None
                if parent_record:
                    records[parent] = parent_record
                    recovered = True
            if recovered:
                continue
        # Under LWW there is no metadata linking the reply to the original, so
        # the timeline is served as-is and the confusion is observable.
        anomalies += 1
    ordered = [records[tid] for tid in sorted(records, reverse=True)]
    return {"tweets": ordered[:TIMELINE_LENGTH], "anomalies": anomalies}


CLOUDBURST_FUNCTIONS = {
    "retwis_register_user": cb_register_user,
    "retwis_follow_user": cb_follow_user,
    "retwis_post_tweet": cb_post_tweet,
    "retwis_get_posts": cb_get_posts,
    "retwis_get_followers": cb_get_followers,
    "retwis_get_timeline": cb_get_timeline,
}


@dataclass
class RetwisStats:
    """Aggregated application metrics for one run."""

    requests: int = 0
    posts: int = 0
    timelines: int = 0
    anomalous_timelines: int = 0

    @property
    def anomaly_rate(self) -> float:
        return self.anomalous_timelines / self.timelines if self.timelines else 0.0


class RetwisOnCloudburst:
    """The Retwis application deployed as six Cloudburst functions."""

    def __init__(self, cluster: CloudburstCluster,
                 consistency: Optional[ConsistencyLevel] = None):
        self.cluster = cluster
        self.consistency = consistency or cluster.consistency
        self.client = cluster.connect("retwis-client", consistency=self.consistency)
        for name, func in CLOUDBURST_FUNCTIONS.items():
            self.client.register(func, name=name)
        self._tweet_ids = itertools.count(1_000_000)
        self._recent_live_tweets: List[str] = []
        self.stats = RetwisStats()

    # -- data loading ---------------------------------------------------------------------
    def load_graph(self, graph: SocialGraph) -> None:
        """Pre-populate users, follow edges and seed tweets (bulk path).

        Loading goes straight through the KVS (as an offline import would)
        rather than through function invocations, so it does not pollute the
        request-latency measurements.
        """
        for name in graph.users:
            self.client.put(user_key(name), {"name": name})
            self.client.put(followers_key(name), graph.followers_of(name))
            self.client.put(following_key(name), graph.follows.get(name, []))
            self.client.put(posts_key(name), [])
        posts: Dict[str, List[str]] = {name: [] for name in graph.users}
        text_to_id: Dict[str, str] = {}
        for author, text, parent_text in graph.seed_tweets:
            tweet_id = f"t{next(self._tweet_ids)}"
            parent_id = text_to_id.get(parent_text) if parent_text else None
            parent_author = None
            if parent_id is not None:
                parent_author = parent_id and self.client.get(tweet_key(parent_id))["author"]
            self.client.put(tweet_key(tweet_id), {
                "id": tweet_id, "author": author, "text": text,
                "parent": parent_id, "parent_author": parent_author,
            })
            posts[author].append(tweet_id)
            text_to_id[text] = tweet_id
        for author, ids in posts.items():
            if ids:
                self.client.put(posts_key(author), ids)

    # -- request execution ------------------------------------------------------------------
    def post_tweet(self, author: str, text: str,
                   reply_to: Optional[str] = None,
                   ctx: Optional[RequestContext] = None) -> Tuple[Dict, float]:
        tweet_id = f"t{next(self._tweet_ids)}"
        # Single-function invocations resolve within the caller's context,
        # so the returned future never blocks here.
        result = self.client.call("retwis_post_tweet",
                                  [author, tweet_id, text, reply_to],
                                  consistency=self.consistency, ctx=ctx).result()
        self._recent_live_tweets.append(tweet_id)
        if len(self._recent_live_tweets) > 50:
            self._recent_live_tweets.pop(0)
        self.stats.requests += 1
        self.stats.posts += 1
        return result.value, result.latency_ms

    def get_timeline(self, user: str,
                     ctx: Optional[RequestContext] = None) -> Tuple[Dict, float]:
        # The following-list reference is resolved by the executor (Table 1)
        # and doubles as the locality hint for the §4.3 scheduling policy:
        # one user's timeline requests keep landing on caches that hold their
        # social neighbourhood.
        reference = CloudburstReference(following_key(user))
        result = self.client.call("retwis_get_timeline", [user, reference],
                                  consistency=self.consistency, ctx=ctx).result()
        self.stats.requests += 1
        self.stats.timelines += 1
        if result.value.get("anomalies", 0) > 0:
            self.stats.anomalous_timelines += 1
        return result.value, result.latency_ms

    def execute(self, request: RetwisRequest,
                ctx: Optional[RequestContext] = None) -> float:
        """Run one workload request and return its latency."""
        if request.kind == "post":
            reply_to = self._random_existing_tweet() if request.reply_to else None
            _, latency = self.post_tweet(request.user, request.text or "",
                                         reply_to, ctx=ctx)
        else:
            _, latency = self.get_timeline(request.user, ctx=ctx)
        return latency

    def _random_existing_tweet(self) -> Optional[str]:
        """Pick a *recent* live tweet to reply to.

        Conversations happen about recent posts; replying to a recent tweet is
        also what makes the reply-before-original anomaly possible, because a
        recent original may not yet have propagated to every cache.
        """
        if not self._recent_live_tweets:
            return None
        return self.cluster.rng.choice(self._recent_live_tweets)


class RetwisOnRedis:
    """The serverful baseline: webservers talking directly to Redis."""

    def __init__(self, latency_model: Optional[LatencyModel] = None):
        self.redis = SimulatedRedis(latency_model or LatencyModel())
        self._tweet_ids = itertools.count(1_000_000)
        self.stats = RetwisStats()

    # -- data loading -----------------------------------------------------------------------
    def load_graph(self, graph: SocialGraph) -> None:
        for name in graph.users:
            self.redis.preload(user_key(name), {"name": name})
            self.redis.preload(followers_key(name), graph.followers_of(name))
            self.redis.preload(following_key(name), graph.follows.get(name, []))
            self.redis.preload(posts_key(name), [])
        posts: Dict[str, List[str]] = {name: [] for name in graph.users}
        text_to_id: Dict[str, str] = {}
        for author, text, parent_text in graph.seed_tweets:
            tweet_id = f"t{next(self._tweet_ids)}"
            parent_id = text_to_id.get(parent_text) if parent_text else None
            self.redis.preload(tweet_key(tweet_id), {
                "id": tweet_id, "author": author, "text": text, "parent": parent_id,
            })
            posts[author].append(tweet_id)
            text_to_id[text] = tweet_id
        for author, ids in posts.items():
            if ids:
                self.redis.preload(posts_key(author), ids)

    # -- request execution --------------------------------------------------------------------
    def post_tweet(self, author: str, text: str, reply_to: Optional[str] = None,
                   *, ctx: RequestContext) -> float:
        start = ctx.clock.now_ms
        tweet_id = f"t{next(self._tweet_ids)}"
        if reply_to is not None and self.redis.contains(tweet_key(reply_to)):
            self.redis.get(tweet_key(reply_to), ctx)
        self.redis.put(tweet_key(tweet_id),
                       {"id": tweet_id, "author": author, "text": text,
                        "parent": reply_to}, ctx)
        posts = list(self.redis.get(posts_key(author), ctx) or [])
        posts.append(tweet_id)
        self.redis.put(posts_key(author), posts, ctx)
        self.stats.requests += 1
        self.stats.posts += 1
        return ctx.clock.now_ms - start

    def get_timeline(self, user: str, ctx: RequestContext) -> float:
        start = ctx.clock.now_ms
        following = list(self.redis.get(following_key(user), ctx) or [])
        tweet_ids: List[str] = []
        post_keys = [posts_key(f) for f in following if self.redis.contains(posts_key(f))]
        if post_keys:
            # The webserver pipelines the followee reads into one MGET.
            tweet_ids = newest_tweet_ids(
                posts or () for posts in self.redis.mget(post_keys, ctx))
        keys = [tweet_key(tid) for tid in tweet_ids if self.redis.contains(tweet_key(tid))]
        if keys:
            self.redis.mget(keys, ctx)
        self.stats.requests += 1
        self.stats.timelines += 1
        return ctx.clock.now_ms - start

    def execute(self, request: RetwisRequest) -> float:
        if request.kind == "post":
            return self.post_tweet(request.user, request.text or "",
                                   ctx=RequestContext())
        return self.get_timeline(request.user, RequestContext())
