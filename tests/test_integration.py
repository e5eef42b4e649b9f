"""End-to-end integration tests: the paper's running examples and the
mode-comparison claims, exercised through the public API only."""

import pytest

import repro
from repro import Dataset, SparqlUOEngine, parse_ntriples_string, serialize_ntriples
from repro.baselines import LBREngine
from repro.datasets import (
    INTRO_OPTIONAL_QUERY,
    INTRO_UNION_QUERY,
    LUBM_QUERIES,
    generate_dbpedia,
    generate_lubm,
)
from repro.storage import TripleStore


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_ntriples_pipeline(self):
        text = (
            "<http://a> <http://p> <http://b> .\n"
            '<http://a> <http://name> "thing" .\n'
        )
        dataset = Dataset(parse_ntriples_string(text))
        engine = SparqlUOEngine.for_dataset(dataset, mode="full")
        result = engine.execute("SELECT ?n WHERE { ?x <http://name> ?n }")
        assert len(result) == 1
        assert serialize_ntriples(dataset).count("\n") == 2


class TestIntroExamples:
    """Figure 1's motivating queries on the DBpedia-like dataset."""

    @pytest.fixture(scope="class")
    def engine(self):
        store = TripleStore.from_dataset(generate_dbpedia(articles=400))
        return SparqlUOEngine(store, mode="full")

    def test_union_collects_both_name_representations(self, engine):
        result = engine.execute(INTRO_UNION_QUERY)
        assert len(result) > 0
        assert set(result.variables) == {"x", "name"}

    def test_optional_retains_presidents_without_sameas(self, engine):
        result = engine.execute(INTRO_OPTIONAL_QUERY)
        assert len(result) > 0
        bound = sum(1 for row in result if "same" in row)
        unbound = sum(1 for row in result if "same" not in row)
        # Incompleteness: some presidents have references, some do not.
        assert bound > 0 and unbound > 0


class TestModeComparison:
    """§7.1's qualitative claims on a real benchmark query."""

    @pytest.fixture(scope="class")
    def store(self):
        return TripleStore.from_dataset(generate_lubm(universities=1))

    def test_all_modes_agree_on_q13(self, store):
        results = {}
        for mode in ("base", "tt", "cp", "full"):
            engine = SparqlUOEngine(store, bgp_engine="wco", mode=mode)
            results[mode] = engine.execute(LUBM_QUERIES["q1.3"])
        reference = results["base"].solutions
        for mode, result in results.items():
            assert result.solutions == reference, mode

    @pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
    @pytest.mark.parametrize("name", ["q1.3", "q2.2"])
    def test_optimized_modes_shrink_join_space_on_q13(self, store, name, bgp_engine):
        """q1.3 is the paper's CP-effective showcase: a selective anchor
        feeding nested OPTIONALs.  q2.2 joins three OPTIONAL-bearing
        groups; only when the first two share more than one certain
        variable does pruning find anything to cut."""
        base = SparqlUOEngine(store, bgp_engine=bgp_engine, mode="base").execute(
            LUBM_QUERIES[name]
        )
        full = SparqlUOEngine(store, bgp_engine=bgp_engine, mode="full").execute(
            LUBM_QUERIES[name]
        )
        assert full.join_space < base.join_space

    def test_lbr_agrees_with_full_on_optional_queries(self, store):
        for name in ("q2.4", "q2.6"):
            full = SparqlUOEngine(store, bgp_engine="wco", mode="full").execute(
                LUBM_QUERIES[name]
            )
            lbr = LBREngine(store).execute(LUBM_QUERIES[name])
            assert lbr.solutions == full.solutions, name


class TestBothEnginesOnBenchmarks:
    @pytest.fixture(scope="class")
    def store(self):
        return TripleStore.from_dataset(generate_lubm(universities=1))

    @pytest.mark.parametrize("name", ["q1.2", "q1.3", "q1.5", "q2.4"])
    def test_wco_and_hashjoin_agree(self, store, name):
        wco = SparqlUOEngine(store, bgp_engine="wco", mode="full")
        hashjoin = SparqlUOEngine(store, bgp_engine="hashjoin", mode="full")
        assert (
            wco.execute(LUBM_QUERIES[name]).solutions
            == hashjoin.execute(LUBM_QUERIES[name]).solutions
        ), name
