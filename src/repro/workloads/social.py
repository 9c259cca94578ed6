"""Social-graph workload generator for the Retwis case study (§6.3.2).

The paper builds a graph of 1,000 users each following 50 other users drawn
from a Zipfian distribution with coefficient 1.5 (a realistic skew for online
social networks), pre-populates 5,000 tweets — half of which are replies to
other tweets — and then issues a 90/10 read/write mix of GetTimeline and
PostTweet requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim import RandomSource, ZipfGenerator

#: Share of seed and live tweets that reply to an earlier tweet.
REPLY_FRACTION = 0.5

#: Skew of the follow graph: followees are drawn Zipf(1.5) over the users.
ZIPF_COEFFICIENT = 1.5


@dataclass
class SocialGraph:
    """Users, follow edges and seed tweets for the Retwis workload."""

    users: List[str]
    follows: Dict[str, List[str]]
    seed_tweets: List[Tuple[str, str, Optional[str]]]
    """Seed tweets as (author, text, parent_tweet_text or None)."""

    @property
    def user_count(self) -> int:
        return len(self.users)

    def followers_of(self, user: str) -> List[str]:
        return [follower for follower, followees in self.follows.items()
                if user in followees]


@dataclass
class RetwisRequest:
    """One request in the request mix."""

    kind: str  # "post" or "timeline"
    user: str
    text: Optional[str] = None
    reply_to: Optional[str] = None


class SocialWorkloadGenerator:
    """Builds the graph and the request stream used by Figures 11 and 12."""

    def __init__(self, user_count: int = 1_000, followees_per_user: int = 50,
                 seed_tweet_count: int = 5_000, write_fraction: float = 0.10,
                 seed: int = 13):
        self.user_count = user_count
        self.followees_per_user = min(followees_per_user, max(1, user_count - 1))
        self.seed_tweet_count = seed_tweet_count
        self.write_fraction = write_fraction
        self.rng = RandomSource(seed)
        self.popularity = ZipfGenerator(user_count, ZIPF_COEFFICIENT,
                                        self.rng.spawn("popularity"))
        self._tweet_sequence = 0

    def user_name(self, index: int) -> str:
        return f"user-{index:04d}"

    def build_graph(self) -> SocialGraph:
        users = [self.user_name(i) for i in range(self.user_count)]
        follows: Dict[str, List[str]] = {}
        for follower in users:
            followees: List[str] = []
            seen = {follower}
            while len(followees) < self.followees_per_user:
                candidate = self.user_name(self.popularity.next())
                if candidate in seen:
                    continue
                seen.add(candidate)
                followees.append(candidate)
            follows[follower] = followees
        seed_tweets = self._seed_tweets(users)
        return SocialGraph(users=users, follows=follows, seed_tweets=seed_tweets)

    def _seed_tweets(self, users: List[str]) -> List[Tuple[str, str, Optional[str]]]:
        tweets: List[Tuple[str, str, Optional[str]]] = []
        originals: List[str] = []
        for index in range(self.seed_tweet_count):
            author = self.user_name(self.popularity.next())
            if originals and self.rng.random() < REPLY_FRACTION:
                parent = self.rng.choice(originals)
                text = f"reply-{index} to ({parent})"
                tweets.append((author, text, parent))
            else:
                text = f"tweet-{index} from {author}"
                tweets.append((author, text, None))
                originals.append(text)
        return tweets

    def request_stream(self, count: int) -> List[RetwisRequest]:
        """A 90/10 GetTimeline/PostTweet mix, matching §6.3.2."""
        requests: List[RetwisRequest] = []
        for _ in range(count):
            user = self.user_name(self.popularity.next())
            if self.rng.random() < self.write_fraction:
                self._tweet_sequence += 1
                text = f"live-tweet-{self._tweet_sequence} from {user}"
                reply_to = None
                if self.rng.random() < REPLY_FRACTION:
                    reply_to = f"some earlier tweet #{self.rng.randint(0, 999)}"
                requests.append(RetwisRequest(kind="post", user=user, text=text,
                                              reply_to=reply_to))
            else:
                requests.append(RetwisRequest(kind="timeline", user=user))
        return requests
