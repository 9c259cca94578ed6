"""Anomaly accounting for Table 2 (§6.2.2).

The paper runs 4,000 DAG executions under last-writer-wins and counts, for
each stricter consistency level, how many anomalies *would have been
prevented* by that level.  This module provides the shadow bookkeeping that
makes those counts possible without changing the execution path:

* every write is also recorded in a *shadow causal store* (vector clocks and
  dependency sets derived from the reads the writing session performed), and
* every read is checked against that shadow store.

Anomaly definitions (matching §6.2.2):

* **Single-key (SK)** — a read returned a key for which concurrent updates
  exist; single-key causality would have preserved and returned both, but LWW
  silently dropped one.
* **Multi-key (MK)** — the set of versions read by one function from one
  cache was not a causal cut.
* **Distributed-session causal (DSC)** — the causal-cut property was violated
  across the caches involved in one DAG (but not within any single cache).
* **Repeatable read (DSRR)** — a DAG read the same key more than once and
  observed different versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from ...lattices import CausalLattice, Lattice, VectorClock
from ..serialization import LatticeEncapsulator


@dataclass
class ObservedRead:
    """One read performed by a DAG execution."""

    execution_id: str
    cache_id: str
    key: str
    version: Any


@dataclass
class ShadowVersion:
    """Shadow causal metadata for one written version."""

    key: str
    version: Any
    clock: VectorClock
    dependencies: Dict[str, VectorClock] = field(default_factory=dict)


@dataclass
class AnomalyReport:
    """Counts in the same layout as Table 2."""

    lww: int = 0  # by definition LWW flags nothing
    single_key: int = 0
    multi_key_additional: int = 0
    distributed_session_additional: int = 0
    repeatable_read: int = 0
    executions: int = 0

    @property
    def multi_key_cumulative(self) -> int:
        return self.single_key + self.multi_key_additional

    @property
    def distributed_session_cumulative(self) -> int:
        return self.multi_key_cumulative + self.distributed_session_additional

    def as_row(self) -> Dict[str, int]:
        return {
            "LWW": self.lww,
            "SK": self.single_key,
            "MK": self.multi_key_cumulative,
            "DSC": self.distributed_session_cumulative,
            "DSRR": self.repeatable_read,
        }

    def invariant_violations(self) -> List[str]:
        """The §6.2.2 sanity invariants every Table 2 run must satisfy.

        Single source of truth for the benchmark assertions and the
        ``run_all.py`` regression gate: LWW flags nothing, single-key
        causality flags by far the most anomalies (more than the multi-key
        increment and far more than repeatable read), and the cumulative
        counts grow with strictness.  Returns human-readable violation
        messages; an empty list means the report is sane.
        """
        row = self.as_row()
        errors: List[str] = []
        if row["LWW"] != 0:
            errors.append(f"LWW must flag nothing, got {row['LWW']}")
        if not (row["SK"] >= self.multi_key_additional >= 0):
            errors.append(
                f"expected SK >= MK-increment >= 0, got SK={row['SK']} "
                f"MK-increment={self.multi_key_additional}")
        if not (0 < row["SK"] <= row["MK"] <= row["DSC"]):
            errors.append(
                f"cumulative anomaly counts must be ordered 0 < SK <= MK <= DSC, "
                f"got SK={row['SK']} MK={row['MK']} DSC={row['DSC']}")
        if not (row["DSRR"] < row["SK"]):
            errors.append(
                f"expected DSRR < SK (repeatable read flags far fewer anomalies "
                f"than single-key causality), got DSRR={row['DSRR']} SK={row['SK']}")
        return errors


class AnomalyTracker:
    """Observes reads and writes and counts would-be anomalies per level."""

    def __init__(self):
        # Shadow causal state per key (a multi-value register of shadow versions).
        self._shadow_latest: Dict[str, CausalLattice] = {}
        # Lookup from (key, concrete version id) to its shadow metadata.
        self._shadow_versions: Dict[Tuple[str, Any], ShadowVersion] = {}
        # Reads grouped by in-flight execution.
        self._reads_by_execution: Dict[str, List[ObservedRead]] = {}
        self._writer_counter = 0
        self.report = AnomalyReport()

    # -- observation hooks ---------------------------------------------------------
    def observe_read(self, execution_id: str, cache_id: str, key: str,
                     lattice: Lattice) -> None:
        version = LatticeEncapsulator.version_of(lattice)
        read = ObservedRead(execution_id, cache_id, key, version)
        self._reads_by_execution.setdefault(execution_id, []).append(read)
        # Single-key anomaly: the key currently has concurrent shadow versions,
        # so LWW is hiding at least one concurrent update from this reader.
        shadow = self._shadow_latest.get(key)
        if shadow is not None and shadow.is_conflicted:
            self.report.single_key += 1

    def observe_write(self, execution_id: str, cache_id: str, key: str,
                      lattice: Lattice) -> None:
        version = LatticeEncapsulator.version_of(lattice)
        writer = f"writer-{cache_id}"
        reads = self._reads_by_execution.get(execution_id, [])
        # The write causally depends on every version this session read so far.
        dependencies: Dict[str, VectorClock] = {}
        base_clock = VectorClock()
        for read in reads:
            shadow = self._shadow_versions.get((read.key, read.version))
            if shadow is None:
                continue
            if read.key == key:
                base_clock = base_clock.merge(shadow.clock)
            dependencies[read.key] = (
                dependencies[read.key].merge(shadow.clock)
                if read.key in dependencies else shadow.clock
            )
        new_clock = base_clock.increment(writer)
        shadow_version = ShadowVersion(key=key, version=version, clock=new_clock,
                                       dependencies=dependencies)
        self._shadow_versions[(key, version)] = shadow_version
        shadow_lattice = CausalLattice(new_clock, version, dependencies=dependencies)
        existing = self._shadow_latest.get(key)
        self._shadow_latest[key] = (
            shadow_lattice if existing is None else existing.merge(shadow_lattice)
        )

    def abandon_execution(self, execution_id: str) -> None:
        """Discard an attempt that will be retried (§4.5 re-execution).

        A failed DAG attempt's reads must not linger in the tracker: the
        retry creates a fresh execution id, so without this the abandoned
        reads leaked forever and were never evaluated — or worse, were mixed
        into a *different* execution that happened to reuse the id.
        """
        self._reads_by_execution.pop(execution_id, None)

    def complete_execution(self, execution_id: str) -> None:
        """Evaluate the DAG-scoped anomalies once the execution finishes."""
        reads = self._reads_by_execution.pop(execution_id, [])
        if not reads:
            self.report.executions += 1
            return
        self.report.executions += 1
        self._check_repeatable_read(reads)
        per_cache_violations = self._check_causal_cut(reads, group_by_cache=True)
        whole_dag_violations = self._check_causal_cut(reads, group_by_cache=False)
        self.report.multi_key_additional += per_cache_violations
        # DSC catches violations across caches that no single-cache check saw.
        self.report.distributed_session_additional += max(
            0, whole_dag_violations - per_cache_violations)

    # -- checks --------------------------------------------------------------------
    def _check_repeatable_read(self, reads: List[ObservedRead]) -> None:
        versions_seen: Dict[str, Set[Any]] = {}
        for read in reads:
            versions_seen.setdefault(read.key, set()).add(read.version)
        if any(len(versions) > 1 for versions in versions_seen.values()):
            self.report.repeatable_read += 1

    def _check_causal_cut(self, reads: List[ObservedRead],
                          group_by_cache: bool) -> int:
        """Count read groups whose observed versions are not a causal cut."""
        groups: Dict[Any, List[ObservedRead]] = {}
        for read in reads:
            group_key = (read.execution_id, read.cache_id) if group_by_cache \
                else read.execution_id
            groups.setdefault(group_key, []).append(read)
        violations = 0
        for group_reads in groups.values():
            if self._violates_causal_cut(group_reads):
                violations += 1
        return violations

    def _violates_causal_cut(self, reads: List[ObservedRead]) -> bool:
        observed: Dict[str, VectorClock] = {}
        dependencies: Dict[str, VectorClock] = {}
        for read in reads:
            shadow = self._shadow_versions.get((read.key, read.version))
            if shadow is None:
                continue
            observed[read.key] = (observed[read.key].merge(shadow.clock)
                                  if read.key in observed else shadow.clock)
            for dep_key, dep_clock in shadow.dependencies.items():
                dependencies[dep_key] = (dependencies[dep_key].merge(dep_clock)
                                         if dep_key in dependencies else dep_clock)
        for dep_key, required_clock in dependencies.items():
            seen_clock = observed.get(dep_key)
            if seen_clock is None:
                continue
            # Violation: the version we read happened strictly before a version
            # our other reads causally depend on.
            if seen_clock.happened_before(required_clock):
                return True
        return False
