"""Lattice base class.

Anna (the storage substrate Cloudburst is built on) resolves concurrent
updates with *lattices*: data types whose ``merge`` operator is associative,
commutative and idempotent, so replicas converge regardless of message
ordering, batching or duplication.  Every value stored in this reproduction's
Anna is a subclass of :class:`Lattice`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, TypeVar

from ..errors import LatticeTypeError

L = TypeVar("L", bound="Lattice")


class Lattice(ABC):
    """A join-semilattice value.

    Subclasses must implement :meth:`merge` (the join) and :meth:`reveal`
    (extract the user-visible Python value).  ``merge`` must never mutate
    either operand; it returns a lattice value-equal to the least upper
    bound, which may be one of the operands themselves.  Lattices are
    immutable once built, so callers just store what ``merge`` returns and
    must not rely on getting a fresh object.
    """

    @abstractmethod
    def merge(self: L, other: L) -> L:
        """Return the least upper bound of ``self`` and ``other``.

        The result ``==`` the join; it is ``self`` or ``other`` whenever
        that operand already equals it.
        """

    @abstractmethod
    def reveal(self) -> Any:
        """Return the user-visible payload wrapped by this lattice."""

    def size_bytes(self) -> int:
        """Approximate serialized size; used for latency/overhead accounting."""
        return estimate_size(self.reveal())

    def _check_type(self: L, other: Any) -> L:
        if not isinstance(other, type(self)):
            raise LatticeTypeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        return other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash((type(self).__name__, repr(self._identity())))

    def _identity(self) -> Any:
        """State used for equality; subclasses override when needed."""
        return self.reveal()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.reveal()!r})"


def estimate_size(value: Any) -> int:
    """Rough serialized-size estimate of a Python value in bytes.

    Used wherever the paper reports metadata or payload overheads (e.g. the
    per-key cache-index overhead in §6.1.4 and the causal metadata overhead in
    §6.2.1).  The estimate intentionally avoids pickling for speed.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return max(1, len(value.encode("utf-8")))
    if isinstance(value, bytes):
        return max(1, len(value))
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(estimate_size(item) for item in value)
    if isinstance(value, dict):
        return 8 + sum(estimate_size(k) + estimate_size(v) for k, v in value.items())
    # numpy arrays expose nbytes; fall back to a small constant otherwise.
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    return 64
