"""Direct communication between function invocations (§3, Table 1).

Each function invocation has a unique ID.  ``send`` converts the destination
ID to an IP-port pair via a deterministic mapping and opens a TCP connection;
if the connection cannot be established (the destination moved or failed),
the message is written to a key in Anna that serves as the receiver's
"inbox".  ``recv`` drains the local TCP queue and falls back to reading the
inbox from storage.

This is what makes fine-grained distributed protocols (like the gossip
aggregation of §6.1.3) practical on Cloudburst while they are infeasible on
stateless FaaS platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from ..anna import AnnaCluster
from ..errors import MessagingError
from ..lattices import SetLattice
from ..sim import RequestContext


def inbox_key(thread_id: str) -> str:
    """The well-known Anna key holding a thread's fallback inbox."""
    return f"__cloudburst_inbox__/{thread_id}"


@dataclass
class Envelope:
    """A message in flight: sender, payload and a delivery sequence number."""

    sender: str
    payload: Any
    sequence: int

    def as_tuple(self) -> Tuple[int, str, Any]:
        return (self.sequence, self.sender, self.payload)


class MessageRouter:
    """Routes direct messages between executor threads.

    The router plays the role of the per-thread TCP listener plus the
    deterministic ID-to-address mapping.  Threads register themselves when
    they start; marking a thread unreachable simulates a failed or migrated
    executor, which exercises the Anna-inbox fallback path.
    """

    def __init__(self, kvs: AnnaCluster):
        self.kvs = kvs
        self.latency_model = kvs.latency_model
        self._queues: Dict[str, List[Envelope]] = {}
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._unreachable: Set[str] = set()
        self._sequence = 0
        self._delivered_from_inbox: Dict[str, Set[int]] = {}
        #: Recipients whose Anna inbox received a fallback write since their
        #: last ``recv`` — those inboxes must be merged even when the direct
        #: queue is non-empty, or a mixed backlog is delivered out of order.
        self._inbox_pending: Set[str] = set()

    # -- membership ----------------------------------------------------------------
    def register_thread(self, thread_id: str) -> Tuple[str, int]:
        """Register a thread and return its deterministic IP-port pair."""
        address = self._address_of(thread_id)
        self._addresses[thread_id] = address
        self._queues.setdefault(thread_id, [])
        self._unreachable.discard(thread_id)
        return address

    def mark_unreachable(self, thread_id: str) -> None:
        """Simulate a thread whose TCP endpoint cannot be reached."""
        self._unreachable.add(thread_id)

    def mark_reachable(self, thread_id: str) -> None:
        self._unreachable.discard(thread_id)

    @staticmethod
    def _address_of(thread_id: str) -> Tuple[str, int]:
        """Deterministic mapping from a unique thread ID to an IP-port pair."""
        from ..anna.hash_ring import stable_hash

        digest = stable_hash(thread_id)
        octet3 = (digest >> 8) % 256
        octet4 = digest % 256
        port = 9000 + (digest % 2000)
        return (f"10.0.{octet3}.{octet4}", port)

    # -- data path --------------------------------------------------------------------
    def send(self, sender_id: str, recipient_id: str, payload: Any,
             ctx: RequestContext) -> bool:
        """Send a message; returns True if delivered over the direct path."""
        self._sequence += 1
        envelope = Envelope(sender=sender_id, payload=payload, sequence=self._sequence)
        size = _payload_size(payload)
        reachable = (recipient_id in self._addresses
                     and recipient_id not in self._unreachable)
        if reachable:
            self.latency_model.charge(ctx, "cloudburst", "direct_message",
                                      size_bytes=size)
            self._queues[recipient_id].append(envelope)
            return True
        # Fallback: write to the recipient's inbox key in Anna (§3).
        inbox = SetLattice({envelope.as_tuple()})
        self.kvs.put(inbox_key(recipient_id), inbox, ctx)
        self._inbox_pending.add(recipient_id)
        return False

    def recv(self, thread_id: str, ctx: RequestContext) -> List[Any]:
        """Return every outstanding message for ``thread_id`` in delivery order.

        Direct-queue messages and Anna-inbox fallback messages are merged in
        one call and sorted by send sequence.  (Reading only the direct queue
        when it is non-empty would deliver a mixed backlog out of order
        across successive calls.)
        """
        if thread_id not in self._queues and thread_id not in self._addresses:
            raise MessagingError(f"thread {thread_id!r} never registered with the router")
        envelopes = list(self._queues.get(thread_id, []))
        if envelopes:
            self._queues[thread_id] = []
            total = sum(_payload_size(e.payload) for e in envelopes)
            self.latency_model.charge(ctx, "cloudburst", "direct_message",
                                      size_bytes=total)
        if thread_id in self._inbox_pending or not envelopes:
            self._inbox_pending.discard(thread_id)
            envelopes.extend(self._read_inbox(thread_id, ctx))
        envelopes.sort(key=lambda e: e.sequence)
        return [e.payload for e in envelopes]

    def _read_inbox(self, thread_id: str, ctx: RequestContext) -> List[Envelope]:
        stored = self.kvs.get_or_none(inbox_key(thread_id), ctx)
        if stored is None:
            return []
        delivered = self._delivered_from_inbox.setdefault(thread_id, set())
        fresh: List[Envelope] = []
        for sequence, sender, payload in stored.reveal():
            if sequence in delivered:
                continue
            delivered.add(sequence)
            fresh.append(Envelope(sender=sender, payload=payload, sequence=sequence))
        return fresh


def _payload_size(payload: Any) -> int:
    from ..lattices.base import estimate_size

    return estimate_size(payload)
