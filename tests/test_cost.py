"""Unit tests for the SPARQL-UO cost model (Equations 1–8)."""

import pytest

from repro.bgp import WCOJoinEngine
from repro.core import BETree, BGPNode, CostModel, SparqlUOEngine, f_and, f_optional, f_union
from repro.rdf import Dataset, IRI, Literal
from repro.sparql import parse_group
from repro.storage import TripleStore

EX = "http://x/"


@pytest.fixture(scope="module")
def cost_model():
    d = Dataset()
    p, q = IRI(EX + "p"), IRI(EX + "q")
    for i in range(20):
        s = IRI(EX + f"s{i}")
        d.add_spo(s, p, IRI(EX + f"o{i}"))
        if i < 5:
            d.add_spo(s, q, Literal(f"v{i}"))
    return CostModel(WCOJoinEngine(TripleStore.from_dataset(d)))


class TestCombinationFunctions:
    def test_f_and_is_product(self):
        assert f_and(2.0, 3.0, 4.0) == 24.0

    def test_f_union_is_sum(self):
        assert f_union([1.0, 2.0, 3.0]) == 6.0

    def test_f_optional_is_product(self):
        assert f_optional(5.0, 7.0) == 35.0


class TestResultSizes:
    def test_bgp_node_uses_engine_estimate(self, cost_model):
        tree = BETree.from_group(parse_group("{ ?x <http://x/p> ?y }"))
        (bgp,) = tree.root.children
        assert cost_model.result_size(bgp) == 20.0

    def test_empty_bgp_is_identity(self, cost_model):
        assert cost_model.result_size(BGPNode([])) == 1.0
        assert cost_model.bgp_cost(BGPNode([])) == 0.0

    def test_group_multiplies_children(self, cost_model):
        tree = BETree.from_group(
            parse_group("{ ?x <http://x/p> ?y . ?a <http://x/q> ?b }")
        )
        # Two non-coalescable BGPs of sizes 20 and 5 → group = 100.
        assert cost_model.result_size(tree.root) == 100.0

    def test_union_adds_branches(self, cost_model):
        tree = BETree.from_group(
            parse_group("{ { ?x <http://x/p> ?y } UNION { ?x <http://x/q> ?y } }")
        )
        (union,) = tree.root.children
        assert cost_model.result_size(union) == 25.0

    def test_optional_multiplies(self, cost_model):
        tree = BETree.from_group(
            parse_group("{ ?x <http://x/p> ?y OPTIONAL { ?x <http://x/q> ?z } }")
        )
        # group = res(BGP) × res(OPTIONAL group) = 20 × 5.
        assert cost_model.result_size(tree.root) == 100.0

    def test_estimates_are_memoized(self, cost_model):
        tree = BETree.from_group(parse_group("{ ?x <http://x/p> ?y }"))
        (bgp,) = tree.root.children
        first = cost_model.bgp_estimate(bgp)
        assert cost_model.bgp_estimate(bgp) is first

    def test_estimate_reflects_a_write(self):
        d = Dataset()
        for i in range(5):
            d.add_spo(IRI(EX + f"s{i}"), IRI(EX + "q"), Literal(f"v{i}"))
        engine = SparqlUOEngine.for_dataset(d, mode="full")
        (bgp,) = BETree.from_group(parse_group("{ ?x <http://x/q> ?y }")).root.children
        assert engine.cost_model.bgp_estimate(bgp).cardinality == 5
        triples = " ".join(f'<{EX}w{i}> <{EX}q> "w{i}" .' for i in range(500))
        engine.update(f"INSERT DATA {{ {triples} }}")
        assert engine.cost_model.bgp_estimate(bgp).cardinality == 505
        assert engine.bgp_engine.estimate(bgp.patterns).cardinality == 505

    def test_plan_cache_stays_bounded_across_writes(self):
        d = Dataset()
        d.add_spo(IRI(EX + "s"), IRI(EX + "q"), Literal("v"))
        engine = SparqlUOEngine.for_dataset(d, mode="full")
        for batch in range(200):
            engine.update(f'INSERT DATA {{ <{EX}s{batch}> <{EX}q{batch}> "v" }}')
            engine.execute(
                f"SELECT * WHERE {{ ?s <{EX}q{batch}> ?v . ?s <{EX}q> ?w }}"
            )
            assert len(engine.bgp_engine._plans) <= 2


class TestLocalCosts:
    def test_local_cost_merge_positive(self, cost_model):
        tree = BETree.from_group(
            parse_group(
                "{ ?x <http://x/q> ?v { ?x <http://x/p> ?y } UNION { ?x <http://x/q> ?y } }"
            )
        )
        p1, union = tree.root.children
        cost = cost_model.local_cost_merge(tree.root, p1, union)
        assert cost > 0

    def test_local_cost_inject_positive(self, cost_model):
        tree = BETree.from_group(
            parse_group("{ ?x <http://x/q> ?v OPTIONAL { ?x <http://x/p> ?y } }")
        )
        p1, optional = tree.root.children
        cost = cost_model.local_cost_inject(tree.root, p1, optional)
        assert cost > 0

    def test_sibling_exclusion_of_transformed_operator(self, cost_model):
        """The transformed UNION must not appear in P1's fAND context —
        its cost is carried by the f_UNION term (see cost.py docstring)."""
        tree = BETree.from_group(
            parse_group(
                "{ ?x <http://x/q> ?v { ?x <http://x/p> ?y } UNION { ?x <http://x/q> ?y } }"
            )
        )
        p1, union = tree.root.children
        with_exclusion = cost_model._and_term(tree.root, p1, exclude=union)
        without = cost_model._and_term(tree.root, p1)
        assert with_exclusion < without
