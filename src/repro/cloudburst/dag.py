"""Function DAGs (§3).

Cloudburst models repeated function compositions as DAGs in the style of
Spark/Dryad/Airflow: each node is a registered function, each edge passes the
upstream function's result to the downstream function.  The DAG is also the
scope of consistency — a "session" — for the distributed-session protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import DagDeletedError, DagNotFoundError, InvalidDagError


@dataclass(frozen=True)
class DagEdge:
    """An edge ``source -> target``: source's result feeds target."""

    source: str
    target: str


class Dag:
    """A named composition of registered functions."""

    def __init__(self, name: str, functions: Sequence[str],
                 connections: Sequence[Tuple[str, str]] = ()):
        if not name:
            raise InvalidDagError("a DAG needs a non-empty name")
        if not functions:
            raise InvalidDagError(f"DAG {name!r} has no functions")
        if len(set(functions)) != len(functions):
            raise InvalidDagError(f"DAG {name!r} lists a function more than once")
        self.name = name
        self.functions: List[str] = list(functions)
        self.edges: List[DagEdge] = []
        known = set(self.functions)
        for source, target in connections:
            if source not in known or target not in known:
                raise InvalidDagError(
                    f"DAG {name!r} edge {source!r}->{target!r} references an "
                    f"unknown function"
                )
            if source == target:
                raise InvalidDagError(f"DAG {name!r} has a self-loop on {source!r}")
            self.edges.append(DagEdge(source, target))
        self._validate_acyclic()

    # -- structure -----------------------------------------------------------------
    def upstream_of(self, function: str) -> List[str]:
        return [edge.source for edge in self.edges if edge.target == function]

    def downstream_of(self, function: str) -> List[str]:
        return [edge.target for edge in self.edges if edge.source == function]

    @property
    def sources(self) -> List[str]:
        """Functions with no upstream dependency (the DAG's entry points)."""
        targets = {edge.target for edge in self.edges}
        return [fn for fn in self.functions if fn not in targets]

    @property
    def sinks(self) -> List[str]:
        """Functions with no downstream consumer (results returned/stored)."""
        sources = {edge.source for edge in self.edges}
        return [fn for fn in self.functions if fn not in sources]

    def topological_order(self) -> List[str]:
        """Kahn's algorithm; raises if the graph has a cycle."""
        in_degree = {fn: 0 for fn in self.functions}
        for edge in self.edges:
            in_degree[edge.target] += 1
        frontier = [fn for fn in self.functions if in_degree[fn] == 0]
        ordered: List[str] = []
        while frontier:
            frontier.sort()  # deterministic order for reproducibility
            fn = frontier.pop(0)
            ordered.append(fn)
            for successor in self.downstream_of(fn):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    frontier.append(successor)
        if len(ordered) != len(self.functions):
            raise InvalidDagError(f"DAG {self.name!r} contains a cycle")
        return ordered

    def longest_path_length(self) -> int:
        """Number of functions on the longest root-to-sink path.

        Figure 8 normalises DAG latency by the depth of the DAG; this is that
        depth.
        """
        order = self.topological_order()
        depth = {fn: 1 for fn in self.functions}
        for fn in order:
            for successor in self.downstream_of(fn):
                depth[successor] = max(depth[successor], depth[fn] + 1)
        return max(depth.values())

    def _validate_acyclic(self) -> None:
        self.topological_order()

    @classmethod
    def chain(cls, name: str, functions: Sequence[str]) -> "Dag":
        """Convenience constructor for linear DAGs (function compositions)."""
        connections = [(functions[i], functions[i + 1]) for i in range(len(functions) - 1)]
        return cls(name, functions, connections)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dag({self.name!r}, functions={self.functions}, edges={len(self.edges)})"


class DagRegistry:
    """Registered DAG topologies (persisted to Anna by the scheduler)."""

    def __init__(self):
        self._dags: Dict[str, Dag] = {}
        self._deleted: set = set()

    def register(self, dag: Dag) -> None:
        self._dags[dag.name] = dag
        self._deleted.discard(dag.name)  # re-registering a deleted name revives it

    def unregister(self, name: str) -> bool:
        """Remove a DAG (paper Table 1 ``delete_dag``); True if it was present.

        Deleted names are remembered so later calls raise the more specific
        :class:`DagDeletedError` instead of "not registered".  Unregistering a
        name that was *never* registered raises :class:`DagNotFoundError`;
        unregistering an already-deleted name is a no-op returning False.
        """
        if name in self._dags:
            del self._dags[name]
            self._deleted.add(name)
            return True
        if name in self._deleted:
            return False
        raise DagNotFoundError(name)

    def get(self, name: str) -> Dag:
        try:
            return self._dags[name]
        except KeyError:
            if name in self._deleted:
                raise DagDeletedError(name) from None
            raise DagNotFoundError(name) from None
