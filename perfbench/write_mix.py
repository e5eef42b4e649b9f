"""write-mix: updates and crawl reads against ``repro serve --wal``.

LUBM u13, WAL at the default ``interval`` fsync, compaction off (the
default).  One connection sends a fixed, seeded sequence of updates:
25-triple ``INSERT DATA`` batches, some ``DELETE DATA`` of earlier
inserts and a few ``DELETE/INSERT ... WHERE``.  The other sends reads in
the SNIPPETS.md entity-crawl shape (``{ <e> ?p ?o } UNION { ?s ?p <e> }``
paged with LIMIT 10) over the entities the writes touch, until the
writer finishes; every read is a distinct text through parse, prepare,
HTTP, worker IPC, the result cache and serialization.  After the last
cycle the server is killed with SIGKILL and restarted on the same
snapshot and WAL.

Each cycle starts from a fresh copy of the snapshot and an empty WAL,
and the update count is fixed rather than a duration: apply time grows
with the pending delta, so a duration would make later batches, and a
longer replay, depend on machine speed.
"""

from __future__ import annotations

import json
import random
import shutil
import threading
import time
from collections import Counter
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

from common import (
    PAGE,
    UB,
    EchoYardstick,
    Server,
    crawl_query,
    entities,
    fresh_dir,
    latency_summary,
    snapshot_file,
)
from layers import Alternation, LayerClock, observe_result

UPDATES = 100
INSERT_TRIPLES = 25
DELETE_TRIPLES = 10
TOUCHED = 40
PREDICATE = UB + "telephone"
#: Reads beside one cycle's writes number well over 40: p75 has 10 beyond.
TAIL = 75
#: /metrics series whose change over each cycle's writes is summed.
SERVER_SERIES = (
    "repro_updates_total",
    "repro_wal_fsync_seconds_count",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    'repro_query_seconds_count{cache="miss"}',
    'repro_query_seconds_sum{cache="miss"}',
    "repro_shed_total",
    "repro_timeouts_total",
    "repro_worker_restarts_total",
)


class Update:
    __slots__ = ("text", "added", "removed")

    def __init__(self, text: str, added: int, removed: int):
        self.text = text
        self.added = added
        self.removed = removed


def plan(seed: int) -> Tuple[List[str], List[Update], Dict[str, set]]:
    """The seeded update sequence, what each must change, and the final
    ``telephone`` values per touched entity."""
    rng = random.Random(seed)
    touched = rng.sample(entities("lubm"), TOUCHED)
    live: List[Tuple[str, str]] = []
    updates: List[Update] = []
    for i in range(UPDATES):
        if i % 15 == 14:
            entity, value = live.pop(rng.randrange(len(live)))
            renamed = value + "-r"
            text = (
                f'DELETE {{ ?s <{PREDICATE}> "{value}" }} '
                f'INSERT {{ ?s <{PREDICATE}> "{renamed}" }} '
                f'WHERE {{ ?s <{PREDICATE}> "{value}" }}'
            )
            live.append((entity, renamed))
            updates.append(Update(text, 1, 1))
        elif i % 6 == 5:
            gone = [live.pop(rng.randrange(len(live))) for _ in range(DELETE_TRIPLES)]
            body = " ".join(f'<{e}> <{PREDICATE}> "{v}" .' for e, v in gone)
            updates.append(Update(f"DELETE DATA {{ {body} }}", 0, len(gone)))
        else:
            batch = [(rng.choice(touched), f"wm-{seed}-{i}-{j}") for j in range(INSERT_TRIPLES)]
            body = " ".join(f'<{e}> <{PREDICATE}> "{v}" .' for e, v in batch)
            live.extend(batch)
            updates.append(Update(f"INSERT DATA {{ {body} }}", len(batch), 0))
    final: Dict[str, set] = {entity: set() for entity in touched}
    for entity, value in live:
        final[entity].add(value)
    return touched, updates, final


def _phones(server: Server, entity: str) -> set:
    status, body = server.select(f"SELECT ?o WHERE {{ <{entity}> <{PREDICATE}> ?o }}")
    if status != 200:
        raise RuntimeError(f"read-back failed with HTTP {status}")
    return {row["o"]["value"] for row in json.loads(body)["results"]["bindings"]}


def run(seed: int, seconds: float, say, run_dir: Path) -> dict:
    """Cycles of writes beside reads until time is up, then kill -9 and
    recovery of the last cycle's server.

    Every cycle sends the same updates; a cycle's time is the sum of its
    acks.  On a shared VM the host's speed swings within seconds and
    drifts over minutes (see run.py), so the writer pings the echo
    yardstick (``common.EchoYardstick``) before its first update and after
    each one, each spawn is timed between pings too, and each timing is
    scaled by the median of the pings beside it.  The metrics are medians
    over the cycles: of the scaled cycle times and of each cycle's scaled
    read p50.
    """
    touched, updates, final = plan(seed)
    net = sum(u.added - u.removed for u in updates)
    problems: List[str] = []
    setups: List[float] = []
    raw_cycles: List[float] = []
    cycles: List[float] = []
    recoveries: List[float] = []
    read_p50: List[float] = []
    acks: List[List[float]] = []
    rss: List[float] = []
    totals: Counter = Counter()
    attempted = failed = reads = 0
    cycle_dir = run_dir / "write-mix"

    echo = EchoYardstick(run_dir / "servers.pids")
    try:
        for _ in range(5):
            echo.ping()

        def spawn(server: Server) -> None:
            """Start ``server``; keep its set-up time, scaled by the pings around it."""
            pings = [echo.ping() for _ in range(3)]
            took = server.start()
            pings += [echo.ping() for _ in range(3)]
            setups.append(took * echo.scale(pings))

        # One extra spawn so set-up time is a median of at least three.
        spare = Server(snapshot_file("lubm"), run_dir / "servers.pids")
        spawn(spare)
        spare.kill()

        deadline = time.perf_counter() + seconds
        while not recoveries:
            fresh_dir(cycle_dir)
            snapshot = cycle_dir / "data.snap"
            shutil.copyfile(snapshot_file("lubm"), snapshot)
            server = Server(snapshot, run_dir / "servers.pids", wal=cycle_dir / "data.wal")
            spawn(server)
            base = server.triple_count()
            before = server.metrics()

            done = threading.Event()
            reader_rng = random.Random(seed * 1000 + len(acks))
            cycle_reads: List[float] = []
            read_failed = [0]
            cycle_acks: List[float] = []

            def reader() -> None:
                while not done.is_set():
                    entity = reader_rng.choice(touched)
                    page = 0
                    while not done.is_set():
                        started = time.perf_counter()
                        try:
                            status, body = server.select(crawl_query(entity, page))
                        except OSError:
                            status, body = 0, b""
                        elapsed = time.perf_counter() - started
                        if status != 200:
                            read_failed[0] += 1
                            break
                        cycle_reads.append(elapsed)
                        if len(json.loads(body)["results"]["bindings"]) < PAGE:
                            break
                        page += 1

            thread = threading.Thread(target=reader)
            thread.start()
            pings = [echo.ping()]
            for update in updates:
                started = time.perf_counter()
                try:
                    status, body = server.update(update.text)
                except OSError:
                    status, body = 0, b""
                cycle_acks.append(time.perf_counter() - started)
                pings.append(echo.ping())
                if status != 200:
                    failed += 1
                    problems.append(f"update refused with HTTP {status}")
                    continue
                ack = json.loads(body)
                if (ack["added"], ack["removed"]) != (update.added, update.removed):
                    problems.append(
                        f"update changed +{ack['added']} -{ack['removed']}, "
                        f"expected +{update.added} -{update.removed}"
                    )
            done.set()
            thread.join()
            acks.append(cycle_acks)
            scale = echo.scale(pings)
            raw_cycles.append(sum(cycle_acks))
            cycles.append(sum(cycle_acks) * scale)
            read_p50.append(latency_summary(cycle_reads, TAIL, read_failed[0])["p50_ms"] * scale)
            reads += len(cycle_reads) + read_failed[0]
            failed += read_failed[0]
            after = server.metrics()
            if server.triple_count() != base + net:
                problems.append("triple count after the writes differs from the acked batches")
            rss.append(server.peak_rss_mb())
            for name in SERVER_SERIES:
                totals[name] += after.get(name, 0.0) - before.get(name, 0.0)
            attempted += len(updates)

            server.kill()
            if len(acks) < 2 or time.perf_counter() < deadline:
                continue
            started = time.perf_counter()
            server.start()
            recovered = server.triple_count()
            recoveries.append(time.perf_counter() - started)
            if recovered != base + net:
                problems.append("triple count after recovery differs from the acked batches")
            for entity in touched[:5]:
                if _phones(server, entity) != final[entity]:
                    problems.append(f"acked writes to {entity} not readable after recovery")
            server.kill()
    finally:
        echo.kill()
    shutil.rmtree(cycle_dir, ignore_errors=True)

    writes = latency_summary([ack for cycle_acks in acks for ack in cycle_acks], 90)
    attempted += reads
    hits, misses = totals["repro_cache_hits_total"], totals["repro_cache_misses_total"]
    executed = totals['repro_query_seconds_count{cache="miss"}']
    updates_total = totals["repro_updates_total"]
    say(f"write-mix: {len(acks)} cycles of {UPDATES} updates (net +{net} triples each), "
        f"{reads} reads beside them; unscaled cycle times "
        f"{' '.join(f'{c:.2f}' for c in raw_cycles)} s; ack p50 {writes['p50_ms']:.1f} ms, "
        f"p90 {writes['tail_ms']:.1f} ms (n={writes['n']}); recovery {recoveries[0]:.2f} s; "
        f"echo median {median(echo.times) * 1000:.2f} ms (n={len(echo.times)})")
    say(f"scaled to the echo yardstick: cycle times {' '.join(f'{c:.2f}' for c in cycles)} s, "
        f"median {median(cycles):.2f} s; read p50 per cycle "
        f"{' '.join(f'{r:.1f}' for r in read_p50)} ms, median {median(read_p50):.1f} ms; "
        f"set-ups {' '.join(f'{t:.3f}' for t in sorted(setups))} s")
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": median(setups),
            "pass_s": median(cycles),
            "read_p50_ms": median(read_p50),
            "peak_rss_mb": median(rss),
        },
        "outside": {
            "server.update.p50_ms": writes["p50_ms"],
            "server.update.p90_ms": writes["tail_ms"],
            "server.ingest_triples_per_s": net / median(raw_cycles),
            "server.recovery_s": recoveries[0],
            "server.wal.fsync_per_update": (
                totals["repro_wal_fsync_seconds_count"] / updates_total if updates_total else 0.0
            ),
            "server.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "server.exec.ms": (
                totals['repro_query_seconds_sum{cache="miss"}'] * 1000 / executed
                if executed
                else 0.0
            ),
            "server.shed": totals["repro_shed_total"],
            "server.timeouts": totals["repro_timeouts_total"],
            "server.worker_restarts": totals["repro_worker_restarts_total"],
            "client.failed_share": failed / attempted,
            "host.raw_pass_s": median(raw_cycles),
            "host.echo_ms": median(echo.times) * 1000,
        },
    }


def replay(seed: int, clock: LayerClock, run_dir: Path) -> dict:
    """The update sequence in process, as the server's writer applies it
    (update, WAL append, sync), two reads after each, traced and
    untraced in turn; then recovery from the WAL, traced."""
    from repro.core import SparqlUOEngine
    from repro.sparql import results
    from repro.storage import TripleStore
    from repro.storage.wal import WriteAheadLog

    touched, updates, _ = plan(seed)
    work = fresh_dir(run_dir / "write-mix-replay")
    snapshot = work / "data.snap"
    shutil.copyfile(snapshot_file("lubm"), snapshot)
    engine = SparqlUOEngine(TripleStore.load(str(snapshot)), bgp_engine="wco", mode="full")
    expected = len(engine.store) + sum(u.added - u.removed for u in updates)
    wal = WriteAheadLog(str(work / "data.wal"), policy="interval")
    turns = Alternation(clock)

    def write(text: str) -> None:
        outcome = engine.update(text)
        if outcome.added or outcome.removed:
            wal.sync(wal.append(outcome.generation, text))

    def read(entity: str) -> None:
        result = engine.execute(crawl_query(entity, 0))
        observe_result(clock, result)
        results.to_json(result.variables, result.solutions)

    untraced_reads: List[float] = []
    operations = 0
    for i, update in enumerate(updates):
        # Every sixth update deletes, and the first read after a write
        # pays for the new generation: shift both parities so deletes and
        # first reads fall on both sides.
        turns.run((i + i // 6) % 2 == 1, lambda: write(update.text))
        for j, entity in enumerate((touched[i % TOUCHED], touched[(i * 7) % TOUCHED])):
            traced = (i + j) % 2 == 1
            turns.run(traced, lambda: read(entity))
            if not traced:
                untraced_reads.append(turns.seconds[False][-1])
        operations += 3
    fsyncs = wal.stats()["fsync_count"]
    wal.close()
    clock.on()
    recovered = SparqlUOEngine.from_snapshot(
        str(snapshot), wal=str(work / "data.wal"), bgp_engine="wco", mode="full"
    )
    problems = []
    if len(recovered.store) != expected:
        problems.append("in-process recovery: triple count differs from the updates")
    shutil.rmtree(work, ignore_errors=True)
    return {
        "operations": operations,
        "overhead": turns.overhead(),
        "read_p50_ms": median(untraced_reads) * 1000,
        "problems": problems,
        "values": {"storage.wal.fsyncs": fsyncs},
    }
