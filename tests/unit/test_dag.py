"""Unit tests for the DAG model and registry."""

import pytest

from repro.cloudburst import Dag, DagRegistry
from repro.errors import DagNotFoundError, InvalidDagError


class TestDagValidation:
    def test_requires_name_and_functions(self):
        with pytest.raises(InvalidDagError):
            Dag("", ["f"])
        with pytest.raises(InvalidDagError):
            Dag("d", [])

    def test_rejects_duplicate_functions(self):
        with pytest.raises(InvalidDagError):
            Dag("d", ["f", "f"])

    def test_rejects_unknown_edge_endpoints(self):
        with pytest.raises(InvalidDagError):
            Dag("d", ["f"], [("f", "ghost")])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidDagError):
            Dag("d", ["f", "g"], [("f", "f")])

    def test_rejects_cycle(self):
        with pytest.raises(InvalidDagError):
            Dag("d", ["a", "b"], [("a", "b"), ("b", "a")])


class TestDagStructure:
    def test_chain_constructor(self):
        dag = Dag.chain("pipeline", ["a", "b", "c"])
        assert dag.sources == ["a"]
        assert dag.sinks == ["c"]
        assert dag.topological_order() == ["a", "b", "c"]
        assert dag.longest_path_length() == 3

    def test_single_function_dag(self):
        dag = Dag("single", ["only"])
        assert dag.sources == dag.sinks == ["only"]
        assert dag.longest_path_length() == 1

    def test_fan_out_has_one_source_and_two_sinks(self):
        dag = Dag("fan", ["root", "left", "right"],
                  [("root", "left"), ("root", "right")])
        assert dag.sources == ["root"]
        assert sorted(dag.sinks) == ["left", "right"]
        assert dag.downstream_of("root") == ["left", "right"]
        assert dag.upstream_of("left") == ["root"]

    def test_diamond_topology(self):
        dag = Dag("diamond", ["a", "b", "c", "d"],
                  [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        order = dag.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")
        assert dag.longest_path_length() == 3
        assert dag.sinks == ["d"]

    def test_topological_order_is_deterministic(self):
        dag = Dag("fan", ["root", "z", "a"], [("root", "z"), ("root", "a")])
        assert dag.topological_order() == dag.topological_order()


class TestDagRegistry:
    def test_register_and_get(self):
        registry = DagRegistry()
        dag = Dag.chain("p", ["f", "g"])
        registry.register(dag)
        assert registry.get("p") is dag
        assert "p" in registry
        assert registry.names() == ["p"]

    def test_get_unknown_raises(self):
        with pytest.raises(DagNotFoundError):
            DagRegistry().get("ghost")

    def test_unregister_distinguishes_deleted_from_unknown(self):
        from repro.errors import DagDeletedError

        registry = DagRegistry()
        registry.register(Dag.chain("p", ["f"]))
        assert registry.unregister("p") is True
        assert "p" not in registry
        with pytest.raises(DagDeletedError):
            registry.get("p")
        assert registry.unregister("p") is False  # second delete: no-op
        with pytest.raises(DagNotFoundError):
            registry.unregister("ghost")

    def test_reregistering_a_deleted_name_revives_it(self):
        registry = DagRegistry()
        registry.register(Dag.chain("p", ["f"]))
        registry.unregister("p")
        revived = Dag.chain("p", ["f", "g"])
        registry.register(revived)
        assert registry.get("p") is revived
