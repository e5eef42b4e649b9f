"""Sibling ordering: a group's joined children are reordered by the
variables they share with what is certainly bound before them, never
across an OPTIONAL."""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import SparqlUOEngine
from repro.core import (
    BETree,
    BGPNode,
    FilterNode,
    GroupNode,
    OptionalNode,
    UnionNode,
    order_siblings,
)
from repro.datasets import LUBM_QUERIES, generate_lubm
from repro.rdf import IRI, Dataset, Triple, TriplePattern, Variable
from repro.sparql import SelectQuery, parse_group, parse_query
from repro.sparql.algebra import (
    FilterExpression,
    GroupGraphPattern,
    OptionalExpression,
    pattern_variables,
)
from repro.storage import TripleStore

from . import oracle
from .strategies import datasets, filter_expressions, groups_with_filters


def tree_of(text: str) -> BETree:
    return BETree.from_group(parse_group(text))


def label(node) -> str:
    """The local name of a node's first predicate ("OPT"/"FILTER" for
    the positional markers, "" for an empty BGP)."""
    if isinstance(node, OptionalNode):
        return "OPT"
    if isinstance(node, FilterNode):
        return "FILTER"
    if isinstance(node, GroupNode):
        return label(node.children[0])
    if isinstance(node, BGPNode):
        return node.patterns[0].predicate.value.rsplit("/", 1)[-1] if node.patterns else ""
    raise TypeError(node)


def labels(group: GroupNode):
    return [label(child) for child in group.children]


def order_everywhere(group: GroupNode) -> None:
    for child in group.children:
        if isinstance(child, GroupNode):
            order_everywhere(child)
        elif isinstance(child, UnionNode):
            for branch in child.branches:
                order_everywhere(branch)
        elif isinstance(child, OptionalNode):
            order_everywhere(child.group)
    order_siblings(group)


class TestRule:
    def test_most_shared_variables_next(self):
        tree = tree_of(
            "{ ?a <http://x/p1> ?b . { ?c <http://x/p2> ?d } { ?b <http://x/p3> ?c } }"
        )
        assert order_siblings(tree.root)
        assert labels(tree.root) == ["p1", "p3", "p2"]

    def test_ties_keep_written_order(self):
        tree = tree_of(
            "{ ?a <http://x/p1> ?b . { ?b <http://x/p2> ?c } { ?a <http://x/p3> ?d } }"
        )
        assert not order_siblings(tree.root)
        assert labels(tree.root) == ["p1", "p2", "p3"]

    def test_children_never_cross_an_optional(self):
        tree = tree_of(
            "{ { ?a <http://x/p1> ?b } { ?c <http://x/p2> ?d } { ?b <http://x/p3> ?c } "
            "  OPTIONAL { ?b <http://x/o> ?x } "
            "  { ?x <http://x/q1> ?y } { ?y <http://x/q2> ?z } { ?a <http://x/q3> ?x } }"
        )
        assert order_siblings(tree.root)
        # q3 shares ?a with the first run but stays behind the OPTIONAL;
        # the run after it keeps its first child, then q3 (?a, ?x)
        # outranks q2 (?y).
        assert labels(tree.root) == ["p1", "p3", "p2", "OPT", "q1", "q3", "q2"]

    def test_filters_keep_their_slots(self):
        tree = tree_of(
            "{ { ?a <http://x/p1> ?b } FILTER(?a != ?b) "
            "  { ?c <http://x/p2> ?d } { ?b <http://x/p3> ?c } }"
        )
        assert order_siblings(tree.root)
        assert labels(tree.root) == ["p1", "FILTER", "p3", "p2"]

    def test_empty_bgp_moves_last(self):
        first, second = tree_of("{ ?a <http://x/p1> ?b }"), tree_of("{ ?b <http://x/p2> ?c }")
        group = GroupNode([first.root, BGPNode([]), second.root])
        assert order_siblings(group)
        assert labels(group) == ["p1", "p2", ""]


@pytest.fixture(scope="module")
def lubm_store():
    return TripleStore.from_dataset(generate_lubm(universities=1))


class TestPaperQueries:
    @pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
    @pytest.mark.parametrize("mode", ["base", "cp"])
    def test_base_and_cp_keep_the_written_tree(self, lubm_store, bgp_engine, mode):
        engine = SparqlUOEngine(lubm_store, bgp_engine=bgp_engine, mode=mode)
        prepared = engine.prepare(LUBM_QUERIES["q2.2"])
        assert prepared.report is None
        written = BETree.from_query(parse_query(LUBM_QUERIES["q2.2"]))
        assert prepared.tree.pretty() == written.pretty()

    @pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
    @pytest.mark.parametrize("mode", ["tt", "full"])
    def test_q22_root_becomes_g1_g3_g2(self, lubm_store, bgp_engine, mode):
        engine = SparqlUOEngine(lubm_store, bgp_engine=bgp_engine, mode=mode)
        prepared = engine.prepare(LUBM_QUERIES["q2.2"])
        assert labels(prepared.tree.root) == [
            "22-rdf-syntax-ns#type",  # g1: ?pub rdf:type ub:Publication
            "univ-bench.owl#memberOf",  # g3: shares ?st and ?prof with g1
            "univ-bench.owl#undergraduateDegreeFrom",  # g2: shares ?st only
        ]
        assert prepared.report.reorders >= 1
        assert "reorders=" in engine.explain(LUBM_QUERIES["q2.2"])


# A small dense vocabulary, so that joined children share variables and
# match often enough for a misplaced OPTIONAL to change the result.
_VARS = st.sampled_from([Variable(f"v{i}") for i in range(4)])
_NODES = st.sampled_from([IRI(f"http://x.test/s{i}") for i in range(4)])
_PREDICATES = st.sampled_from([IRI(f"http://x.test/p{i}") for i in range(3)])
_JOINED_PATTERNS = st.builds(
    TriplePattern, _VARS, _PREDICATES, st.one_of(_VARS, _VARS, _NODES)
)
dense_datasets = st.lists(
    st.builds(Triple, _NODES, _PREDICATES, _NODES), min_size=4, max_size=30
).map(Dataset)


@st.composite
def joined_groups(draw) -> GroupGraphPattern:
    """3–5 joined children (nested groups and OPTIONALs over four shared
    variables) plus up to two FILTERs: the shape ordering rearranges."""
    elements = []
    for _ in range(draw(st.integers(min_value=3, max_value=5))):
        body = GroupGraphPattern(
            draw(st.lists(_JOINED_PATTERNS, min_size=1, max_size=2))
        )
        elements.append(body if draw(st.booleans()) else OptionalExpression(body))
    bound = sorted(pattern_variables(GroupGraphPattern(elements)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        position = draw(st.integers(min_value=0, max_value=len(elements)))
        elements.insert(position, FilterExpression(draw(filter_expressions(bound))))
    return GroupGraphPattern(elements)


_SETTINGS = dict(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(**_SETTINGS)
@given(
    group_and_data=st.one_of(
        st.tuples(joined_groups(), dense_datasets),
        st.tuples(groups_with_filters(), datasets()),
    )
)
def test_ordering_matches_oracle(group_and_data):
    """Ordering every group of a random OPTIONAL/UNION/FILTER pattern
    leaves its solution multiset unchanged, and so does the engine's
    full pipeline over the reordered plan."""
    group, data = group_and_data
    try:
        expected = oracle.execute(SelectQuery(None, group), data)
    except oracle.OracleBlowup:
        assume(False)
    tree = BETree.from_group(group)
    order_everywhere(tree.root)
    reordered = oracle.execute(SelectQuery(None, tree.to_group()), data)
    assert oracle.as_counter(reordered.rows) == oracle.as_counter(expected.rows)
    store = TripleStore.from_dataset(data)
    for bgp_engine in ("wco", "hashjoin"):
        engine = SparqlUOEngine(store, bgp_engine=bgp_engine, mode="full")
        rows = [dict(mu) for mu in engine.execute(SelectQuery(None, group))]
        assert oracle.as_counter(rows) == oracle.as_counter(expected.rows), bgp_engine
