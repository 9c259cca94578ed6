"""Random-DAG workload used by the consistency experiments (§6.2).

The paper populates Anna with 1 million 8-byte keys, generates 250 random
DAGs of length 2-5 (average 3), and issues requests whose arguments are
either KVS references drawn from a Zipfian distribution (coefficient 1.0) or
the result of the previous function.  Each function performs a simple string
manipulation, and the DAG's sink writes its result to a key chosen randomly
from the keys the DAG read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cloudburst import CloudburstClient, CloudburstReference, Dag
from ..sim import RandomSource, ZipfGenerator

#: The §6.2 workload's shape: linear DAGs of 2-5 functions, each function
#: reading two KVS references drawn Zipf(1.0) from 1 M keys named
#: ``cw-<index>``.
KEY_COUNT = 1_000_000
ZIPF_COEFFICIENT = 1.0
MIN_DAG_LENGTH = 2
MAX_DAG_LENGTH = 5
REFS_PER_FUNCTION = 2
KEY_PREFIX = "cw"


def string_manipulation(cloudburst, *args) -> str:
    """The paper's per-function work: a simple string manipulation.

    The first positional argument (if any) is the upstream function's result;
    the remaining ones are resolved KVS references.  The output is another
    short string so payload sizes stay small and metadata overheads dominate,
    exactly as in §6.2.
    """
    pieces = [str(a) for a in args if a is not None]
    combined = "|".join(pieces) if pieces else "seed"
    return combined[-48:][::-1]


def sink_write(cloudburst, *args) -> str:
    """Sink behaviour: manipulate the string, then write it back to the KVS.

    The key to write is provided (by the workload driver) as the final
    argument so that it is always one of the keys the DAG read.
    """
    *values, target_key = args
    result = string_manipulation(cloudburst, *values)
    cloudburst.put(target_key, result)
    return result


@dataclass
class GeneratedDag:
    """One random DAG plus the reference keys each of its functions reads."""

    dag: Dag
    reference_keys: Dict[str, List[str]] = field(default_factory=dict)


class ConsistencyWorkload:
    """Generator and driver for the §6.2 workload."""

    #: Function names registered once and shared by every generated DAG.
    STAGE_FUNCTION = "consistency_stage"
    SINK_FUNCTION = "consistency_sink"

    def __init__(self, dag_count: int = 250, seed: int = 7):
        self.dag_count = dag_count
        self.rng = RandomSource(seed)
        self.zipf = ZipfGenerator(KEY_COUNT, ZIPF_COEFFICIENT, self.rng.spawn("zipf"))
        # Until populate() runs, assume the whole key space is available.
        self._available_keys = KEY_COUNT

    # -- setup ------------------------------------------------------------------------
    def key_name(self, index: int) -> str:
        return f"{KEY_PREFIX}-{index}"

    def populate(self, client: CloudburstClient, populated_keys: int = 2_000) -> List[str]:
        """Pre-populate a subset of the key space with 8-byte payloads.

        The paper loads 1 M keys; loading the Zipf head is sufficient here
        because the Zipfian access pattern concentrates requests on it, and it
        keeps the benchmark's setup time reasonable.  Keys outside the
        populated head are written on demand by the workload itself.
        """
        written = []
        for index in range(min(populated_keys, KEY_COUNT)):
            key = self.key_name(index)
            client.put(key, f"value-{index:08d}")
            written.append(key)
        self._available_keys = len(written)
        return written

    def generate_dags(self, client: Optional[CloudburstClient] = None) -> List[Dag]:
        """Register ``dag_count`` random linear DAGs of length 2-5."""
        dags: List[Dag] = []
        for index in range(self.dag_count):
            length = self.rng.randint(MIN_DAG_LENGTH, MAX_DAG_LENGTH)
            functions = [f"dag{index}_stage{stage}" for stage in range(length)]
            # Each DAG node is an alias of the shared stage/sink functions.
            if client is not None:
                for stage, name in enumerate(functions):
                    source = sink_write if stage == length - 1 else string_manipulation
                    client.register(source, name=name)
            dag = Dag.chain(f"consistency-dag-{index}", functions)
            if client is not None:
                for scheduler in client._schedulers:
                    scheduler.register_dag(dag)
            dags.append(dag)
        return dags

    # -- per-request argument synthesis ---------------------------------------------------
    def sample_request(self, dag: Dag) -> Tuple[Dict[str, List], str]:
        """Build the per-function argument lists for one DAG invocation.

        Returns ``(function_args, sink_key)`` where ``sink_key`` is the key the
        DAG's sink writes (drawn from the keys read by the DAG, as in §6.2).
        """
        function_args: Dict[str, List] = {}
        read_keys: List[str] = []
        order = dag.topological_order()
        for name in order:
            refs = [CloudburstReference(self.key_name(self._sample_key_index()))
                    for _ in range(REFS_PER_FUNCTION)]
            read_keys.extend(ref.key for ref in refs)
            function_args[name] = list(refs)
        sink_key = self.rng.choice(read_keys)
        sink = order[-1]
        function_args[sink] = function_args.get(sink, []) + [sink_key]
        return function_args, sink_key

    def _sample_key_index(self) -> int:
        """A Zipfian key index folded into the populated portion of the space.

        The paper loads all 1 M keys; loading only the Zipf head keeps setup
        time reasonable, and folding preserves the skew that matters (the head
        is unchanged, the tail maps onto the head uniformly).
        """
        index = self.zipf.next()
        if index >= self._available_keys:
            index = index % self._available_keys
        return index
