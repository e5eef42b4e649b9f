"""Every way of building a store lands on one representation.

A store built in memory, bulk-loaded from N-Triples or loaded from a
snapshot (lazily or eagerly) serves frozen sorted permutations; a write
then goes to the delta overlay over them.  Each construction path is
checked the same way: the index type, then a write batch followed by
random UNION/OPTIONAL queries on each engine against the naive oracle
(``tests/oracle.py``) evaluated over a mirror of the triple set.
"""

from __future__ import annotations

import random

import pytest

from repro import SparqlUOEngine
from repro.rdf import Dataset, Triple
from repro.storage import FrozenTripleIndexes, TripleStore

from . import oracle
from .strategies import _OBJECTS, _PREDICATES, _SUBJECTS, random_dataset, random_query


def _add_all(dataset, tmp_path):
    store = TripleStore()
    store.add_all(dataset)
    return store


def _bulk_load(dataset, tmp_path):
    path = tmp_path / "data.nt"
    path.write_text("".join(triple.n3() + "\n" for triple in dataset))
    return TripleStore.bulk_load(str(path))


def _load(lazy):
    def build(dataset, tmp_path):
        path = str(tmp_path / "data.snap")
        TripleStore.from_dataset(dataset).save(path)
        return TripleStore.load(path, lazy=lazy)

    return build


CONSTRUCTORS = {
    "add_all": _add_all,
    "from_triples": lambda dataset, tmp_path: TripleStore.from_triples(list(dataset)),
    "from_dataset": lambda dataset, tmp_path: TripleStore.from_dataset(dataset),
    "bulk_load": _bulk_load,
    "load_lazy": _load(True),
    "load_eager": _load(False),
}


@pytest.mark.parametrize("engine_name", ["wco", "hashjoin"])
@pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
def test_store_construction_is_frozen_and_writable(constructor, engine_name, tmp_path):
    rng = random.Random(7)
    dataset = random_dataset(rng, size=30)
    store = CONSTRUCTORS[constructor](dataset, tmp_path)
    assert isinstance(store.indexes, FrozenTripleIndexes)
    assert len(store) == len(dataset)

    mirror = set(dataset)
    deletes = rng.sample(sorted(mirror, key=str), k=4)
    inserts = [
        Triple(rng.choice(_SUBJECTS), rng.choice(_PREDICATES), rng.choice(_OBJECTS))
        for _ in range(6)
    ]
    store.apply_update(inserts=inserts, deletes=deletes)
    mirror = (mirror - set(deletes)) | set(inserts)
    assert isinstance(store.indexes, FrozenTripleIndexes)
    assert len(store) == len(mirror)

    executed = 0
    for seed in range(8):
        query = random_query(random.Random(seed), extended=False)
        try:
            expected = oracle.execute(query, Dataset(mirror))
        except oracle.OracleBlowup:
            continue
        executed += 1
        result = SparqlUOEngine(store, bgp_engine=engine_name).execute(query)
        rows = [dict(mu) for mu in result]
        assert oracle.as_counter(rows) == oracle.as_counter(expected.rows), (
            f"{constructor} seed={seed}"
        )
    assert executed >= 4
