"""A latency model whose every sample is its operation's mean.

``LatencyModel`` always draws each operation's jitter.  A test that pins
exact charges builds this subclass instead, on one model, so the rest of
its cluster keeps the seeded draws.
"""

from repro.sim import LatencyModel


class JitterFreeLatencyModel(LatencyModel):
    jitter_enabled = False
