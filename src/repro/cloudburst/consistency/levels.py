"""Consistency levels evaluated in the paper (§5, §6.2).

The paper's evaluation compares five levels:

* ``LWW`` — last-writer-wins eventual consistency (the default).
* ``DISTRIBUTED_SESSION_RR`` — repeatable read across the functions of a DAG,
  even when they run on different machines (Algorithm 1).
* ``SINGLE_KEY_CAUSAL`` — causal ordering of updates to each individual key
  (vector clocks, no cross-key dependencies).
* ``MULTI_KEY_CAUSAL`` — bolt-on causal consistency within a single cache
  (each cache maintains a causal cut).
* ``DISTRIBUTED_SESSION_CAUSAL`` — causal consistency across every cache a
  DAG touches (Algorithm 2); the strongest level Cloudburst provides.
"""

from __future__ import annotations

import enum


class ConsistencyLevel(enum.Enum):
    """The consistency level a Cloudburst deployment (or DAG) runs under."""

    LWW = "lww"
    DISTRIBUTED_SESSION_RR = "dsrr"
    SINGLE_KEY_CAUSAL = "sk"
    MULTI_KEY_CAUSAL = "mk"
    DISTRIBUTED_SESSION_CAUSAL = "dsc"

    @property
    def is_causal(self) -> bool:
        """Whether this level wraps values in causal (vector clock) lattices."""
        return self in (
            ConsistencyLevel.SINGLE_KEY_CAUSAL,
            ConsistencyLevel.MULTI_KEY_CAUSAL,
            ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL,
        )

    @property
    def tracks_dependencies(self) -> bool:
        """Whether written keys carry cross-key dependency sets."""
        return self in (
            ConsistencyLevel.MULTI_KEY_CAUSAL,
            ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL,
        )

    @property
    def ships_read_set(self) -> bool:
        """Whether read-set metadata is shipped to downstream DAG functions."""
        return self in (
            ConsistencyLevel.DISTRIBUTED_SESSION_RR,
            ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL,
        )

    @property
    def short_name(self) -> str:
        return {
            ConsistencyLevel.LWW: "LWW",
            ConsistencyLevel.DISTRIBUTED_SESSION_RR: "DSRR",
            ConsistencyLevel.SINGLE_KEY_CAUSAL: "SK",
            ConsistencyLevel.MULTI_KEY_CAUSAL: "MK",
            ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL: "DSC",
        }[self]


#: The order used by Table 2 ("the causal levels are increasingly strict").
CAUSAL_STRICTNESS_ORDER = (
    ConsistencyLevel.SINGLE_KEY_CAUSAL,
    ConsistencyLevel.MULTI_KEY_CAUSAL,
    ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL,
)
