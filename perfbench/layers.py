"""Per-layer timing from outside the program: patched public functions.

A :class:`LayerClock` wraps the public functions each layer exposes, at
the names their callers look them up by (the evaluator imports ``join``,
``left_join`` and ``union`` from ``sparql.bags`` by name, so they are
patched at ``repro.core.evaluator``; methods are patched on their
class).  A call's *self* time is its duration minus the wrapped calls
nested inside it.  Nothing under ``src/`` is changed; the patches live
only in the benchmark's own replay process.

:data:`CATALOGUE` lists every per-layer metric with its unit and the
end-to-end metric, on the named workload, that it should move.
``BENCHMARK.json`` lists the same names; ``run.py`` refuses to report
when the two disagree.
"""

from __future__ import annotations

import time
from statistics import linear_regression, median
from typing import Callable, Dict, List, Optional, Tuple

#: (name, unit, better, what it should move).  "count" metrics repeat
#: exactly across two traced runs with the same seed (checked by run.py).
CATALOGUE: List[Tuple[str, str, str, str]] = [
    # sparql
    ("sparql.parse_query.ms", "ms", "lower", "read_p50_ms on write-mix"),
    ("sparql.parse_query.calls", "count", "lower", "read_p50_ms on write-mix"),
    ("sparql.parse_update.ms", "ms", "lower", "pass_s and server.recovery_s on write-mix"),
    ("sparql.parse_update.calls", "count", "lower", "pass_s and server.recovery_s on write-mix"),
    ("sparql.bags.join.ms", "ms", "lower", "pass_s and read_p50_ms on paper-uo"),
    ("sparql.bags.join.calls", "count", "lower", "pass_s on paper-uo"),
    ("sparql.bags.join.rows_in", "count", "lower", "pass_s on paper-uo"),
    ("sparql.bags.join.rows_out", "count", "lower", "pass_s on paper-uo"),
    ("sparql.bags.left_join.ms", "ms", "lower", "pass_s and read_p50_ms on paper-uo"),
    ("sparql.bags.left_join.calls", "count", "lower", "pass_s on paper-uo"),
    ("sparql.bags.left_join.rows_in", "count", "lower", "pass_s on paper-uo"),
    ("sparql.bags.left_join.rows_out", "count", "lower", "pass_s on paper-uo"),
    ("sparql.bags.union.ms", "ms", "lower", "pass_s on paper-uo, read_p50_ms on write-mix"),
    ("sparql.bags.union.calls", "count", "lower", "pass_s on paper-uo"),
    ("sparql.results.serialize.ms", "ms", "lower", "read_p50_ms on write-mix"),
    ("sparql.results.serialize.calls", "count", "lower", "read_p50_ms on write-mix"),
    # core
    ("core.prepare.ms", "ms", "lower", "read_p50_ms on write-mix"),
    ("core.prepare.calls", "count", "lower", "read_p50_ms on write-mix"),
    ("core.transforms_applied", "count", "higher", "pass_s on paper-uo, read_p50_ms on write-mix"),
    ("core.plan_cache.hit_ratio", "ratio", "higher", "read_p50_ms on write-mix"),
    ("core.evaluate.ms", "ms", "lower", "pass_s on paper-uo"),
    ("core.evaluate.calls", "count", "lower", "pass_s on paper-uo"),
    ("core.candidates.ms", "ms", "lower", "pass_s on paper-uo"),
    ("core.candidates.calls", "count", "lower", "pass_s on paper-uo"),
    ("core.candidates.pruned_share", "ratio", "higher", "pass_s on paper-uo"),
    ("core.join_space", "count", "lower", "pass_s on paper-uo"),
    ("core.base_pass_s", "s", "lower", "the paper's full-vs-base claim on paper-uo (not a gate)"),
    # bgp
    ("bgp.evaluate.ms", "ms", "lower", "pass_s on paper-uo, read_p50_ms on write-mix"),
    ("bgp.evaluate.calls", "count", "lower", "pass_s on paper-uo"),
    ("bgp.evaluate.rows", "count", "lower", "pass_s on paper-uo"),
    ("bgp.decode.ms", "ms", "lower", "pass_s on paper-uo, read_p50_ms on write-mix"),
    ("bgp.decode.calls", "count", "lower", "pass_s on paper-uo"),
    ("bgp.exec.merge_joins", "count", "higher", "pass_s on paper-uo"),
    ("bgp.exec.hash_joins", "count", "lower", "pass_s on paper-uo"),
    ("bgp.exec.gallop_probes", "count", "lower", "pass_s on paper-uo"),
    ("bgp.exec.rows_materialized", "count", "lower", "pass_s on paper-uo"),
    ("bgp.exec.terms_decoded", "count", "lower", "pass_s on paper-uo"),
    # storage
    ("storage.snapshot.load.ms", "ms", "lower", "setup_s on every workload"),
    ("storage.snapshot.load.calls", "count", "lower", "setup_s on every workload"),
    ("storage.apply_update.ms", "ms", "lower", "pass_s and server.recovery_s on write-mix"),
    ("storage.apply_update.calls", "count", "lower", "pass_s on write-mix"),
    ("storage.apply_update.slope_ms_per_1k_pending", "ms", "lower", "pass_s and server.recovery_s on write-mix"),
    ("storage.wal.append.ms", "ms", "lower", "pass_s on write-mix"),
    ("storage.wal.append.calls", "count", "lower", "pass_s on write-mix"),
    ("storage.wal.sync.ms", "ms", "lower", "pass_s on write-mix"),
    ("storage.wal.fsyncs", "count", "lower", "pass_s on write-mix"),
    ("storage.wal.replay.ms", "ms", "lower", "server.recovery_s on write-mix"),
    # server (read from outside: /metrics deltas and client timing)
    ("server.cache.hit_ratio", "ratio", "higher", "read_p50_ms on write-mix"),
    ("server.exec.ms", "ms", "lower", "read_p50_ms on write-mix"),
    ("server.overhead.ms", "ms", "lower", "read_p50_ms on write-mix"),
    ("server.update.p50_ms", "ms", "lower", "pass_s on write-mix"),
    ("server.update.p90_ms", "ms", "lower", "pass_s on write-mix"),
    ("server.ingest_triples_per_s", "1/s", "higher", "pass_s on write-mix"),
    ("server.wal.fsync_per_update", "ratio", "lower", "pass_s on write-mix"),
    ("server.recovery_s", "s", "lower", "itself: kill -9 to healthy with acked writes, write-mix"),
    ("server.shed", "count", "lower", "pass_s and read_p50_ms on write-mix"),
    ("server.timeouts", "count", "lower", "pass_s and read_p50_ms on write-mix"),
    ("server.worker_restarts", "count", "lower", "pass_s and read_p50_ms on write-mix"),
    # the benchmark itself
    ("client.failed_share", "ratio", "lower", "every read and write metric on every workload"),
    ("trace.overhead_share", "ratio", "lower", "nothing: what tracing adds to the same requests"),
    # the host
    ("host.raw_pass_s", "s", "lower", "pass_s unscaled: each query's fastest time summed (paper-uo), the median cycle (write-mix)"),
    ("host.yardstick_ms", "ms", "lower", "nothing: the host speed that scales the timings of paper-uo"),
    ("host.echo_ms", "ms", "lower", "nothing: the host speed that scales the timings of write-mix"),
]

#: Physical-path counters summed from ``QueryResult.exec_counters``.
EXEC_COUNTERS = ("merge_joins", "hash_joins", "gallop_probes", "rows_materialized", "terms_decoded")


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class LayerClock:
    """Self and inclusive time per wrapped function, plus event counts.

    :meth:`on` and :meth:`off` swap the wrappers in and out, so a replay
    can alternate traced and untraced requests and measure the cost of
    tracing on the same work, in the same process and minute.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {}
        self.counts: Dict[str, float] = {}
        #: (pending delta triples, seconds) per traced ``apply_update``.
        self.apply_points: List[Tuple[float, float]] = []
        self.active = False
        self._children: List[float] = []
        self._patches: List[Tuple[object, str, object, object]] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed under ``name``; ``after(args, result, token)`` sees
        each completed call, with ``token = before(args)`` taken first."""
        stat = self.stats.setdefault(name, _Stat())
        children = self._children

        def timed(*args, **kwargs):
            token = before(args) if before is not None else None
            children.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = children.pop()
                if children:
                    children[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - nested
                stat.incl_s += elapsed
            if after is not None:
                after(args, result, token)
            return result

        return timed

    def patch(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Register a timed wrapper for ``owner.attr`` (applied by :meth:`on`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, after, before))
        else:
            replacement = self.wrap(name, original, after, before)
        self._patches.append((owner, attr, original, replacement))

    def on(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self.active = True

    def off(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.active = False

    def ms_per_call(self, name: str) -> float:
        stat = self.stats.get(name)
        if stat is None or not stat.calls:
            return 0.0
        return stat.self_s * 1000.0 / stat.calls

    def inclusive_ms_per_call(self, name: str) -> float:
        stat = self.stats.get(name)
        if stat is None or not stat.calls:
            return 0.0
        return stat.incl_s * 1000.0 / stat.calls

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat is not None else 0


class Alternation:
    """Operations run traced and untraced in turn, timed by side.

    The cost of tracing is then measured on the same work in the same
    process and minute, which a shared VM's speed swings would swamp
    across two processes.
    """

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self.seconds: Dict[bool, List[float]] = {True: [], False: []}

    def run(self, traced: bool, operation: Callable):
        if traced:
            self.clock.on()
        else:
            self.clock.off()
        started = time.perf_counter()
        result = operation()
        self.seconds[self.clock.active].append(time.perf_counter() - started)
        return result

    def overhead(self) -> float:
        """Median traced time over median untraced time, minus one (medians:
        a write's fsync varies far more than tracing costs)."""
        return median(self.seconds[True]) / median(self.seconds[False]) - 1.0


def install(clock: LayerClock) -> None:
    """Wrap every layer's public entry points into ``clock`` and turn it on."""
    import repro.core.engine as engine_module
    import repro.core.evaluator as evaluator_module
    import repro.sparql.results as results_module
    from repro.bgp.hashjoin import HashJoinEngine
    from repro.bgp.interface import BGPEngine
    from repro.bgp.wco import WCOJoinEngine
    from repro.core.candidates import CandidatePolicy
    from repro.core.engine import SparqlUOEngine
    from repro.core.evaluator import BGPBasedEvaluator
    from repro.storage.store import TripleStore
    from repro.storage.wal import WriteAheadLog

    def rows(name: str) -> Callable:
        def after(args, result, token):
            clock.add(name + ".rows_in", len(args[0]) + len(args[1]))
            clock.add(name + ".rows_out", len(result))

        return after

    def prepared(args, plan, token):
        if plan.cached:
            clock.add("core.plan_cache.hits")
        else:
            clock.add("core.plan_cache.misses")
            if plan.report is not None:
                clock.add("core.transforms_applied", plan.report.transformations)

    def candidates(args, result, token):
        if result is not None:
            clock.add("core.candidates.pruned")

    def bgp_rows(args, result, token):
        clock.add("bgp.evaluate.rows", len(result))

    def pending_before(args):
        return sum(args[0].pending_delta), time.perf_counter()

    def apply_update(args, result, token):
        pending, started = token
        clock.apply_points.append((pending, time.perf_counter() - started))

    clock.patch(engine_module, "parse_query", "sparql.parse_query")
    clock.patch(engine_module, "parse_update", "sparql.parse_update")
    clock.patch(evaluator_module, "join", "sparql.bags.join", rows("sparql.bags.join"))
    clock.patch(
        evaluator_module, "left_join", "sparql.bags.left_join", rows("sparql.bags.left_join")
    )
    clock.patch(evaluator_module, "union", "sparql.bags.union")
    clock.patch(results_module, "to_json", "sparql.results.serialize")
    clock.patch(SparqlUOEngine, "prepare", "core.prepare", prepared)
    clock.patch(BGPBasedEvaluator, "evaluate", "core.evaluate")
    clock.patch(CandidatePolicy, "candidates_for", "core.candidates", candidates)
    clock.patch(WCOJoinEngine, "evaluate", "bgp.evaluate", bgp_rows)
    clock.patch(HashJoinEngine, "evaluate", "bgp.evaluate", bgp_rows)
    clock.patch(BGPEngine, "decode_bag", "bgp.decode")
    clock.patch(TripleStore, "load", "storage.snapshot.load")
    clock.patch(
        TripleStore, "apply_update", "storage.apply_update", apply_update, pending_before
    )
    clock.patch(WriteAheadLog, "append", "storage.wal.append")
    clock.patch(WriteAheadLog, "sync", "storage.wal.sync")
    clock.patch(SparqlUOEngine, "from_snapshot", "storage.wal.replay")
    clock.on()


def observe_result(clock: LayerClock, result) -> None:
    """Fold a traced ``QueryResult``'s deterministic counters into ``clock``."""
    if not clock.active:
        return
    clock.add("core.join_space", result.join_space)
    for name in EXEC_COUNTERS:
        clock.add("bgp.exec." + name, result.exec_counters.get(name, 0))


def engine_layers(clock: LayerClock) -> Dict[str, float]:
    """Per-layer values measured in process (times in ms per call)."""
    out: Dict[str, float] = {}
    for name in (
        "sparql.parse_query", "sparql.parse_update", "sparql.bags.join",
        "sparql.bags.left_join", "sparql.bags.union", "sparql.results.serialize",
        "core.prepare", "core.evaluate", "core.candidates", "bgp.evaluate",
        "bgp.decode", "storage.snapshot.load", "storage.apply_update",
        "storage.wal.append",
    ):  # fmt: skip
        out[name + ".ms"] = clock.ms_per_call(name)
        out[name + ".calls"] = clock.calls(name)
    out["storage.wal.sync.ms"] = clock.ms_per_call("storage.wal.sync")
    # Recovery is reported whole: snapshot open plus every replayed frame.
    out["storage.wal.replay.ms"] = clock.inclusive_ms_per_call("storage.wal.replay")
    for name in ("join", "left_join"):
        for side in ("rows_in", "rows_out"):
            key = f"sparql.bags.{name}.{side}"
            out[key] = clock.counts.get(key, 0)
    hits = clock.counts.get("core.plan_cache.hits", 0)
    misses = clock.counts.get("core.plan_cache.misses", 0)
    out["core.plan_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["core.transforms_applied"] = clock.counts.get("core.transforms_applied", 0)
    calls = clock.calls("core.candidates")
    out["core.candidates.pruned_share"] = (
        clock.counts.get("core.candidates.pruned", 0) / calls if calls else 0.0
    )
    out["core.join_space"] = clock.counts.get("core.join_space", 0)
    out["bgp.evaluate.rows"] = clock.counts.get("bgp.evaluate.rows", 0)
    for name in EXEC_COUNTERS:
        out["bgp.exec." + name] = clock.counts.get("bgp.exec." + name, 0)
    # Least-squares slope of apply_update time over pending delta size,
    # from seconds per triple to ms per 1k triples.
    slope = 0.0
    if len({pending for pending, _ in clock.apply_points}) > 1:
        pending, seconds = zip(*clock.apply_points)
        slope = linear_regression(pending, seconds).slope * 1e6
    out["storage.apply_update.slope_ms_per_1k_pending"] = slope
    return out


def deterministic(values: Dict[str, float]) -> Dict[str, float]:
    """The per-layer values that must repeat exactly across two traced
    runs with one seed: the counts, and the ratios of counts."""
    ratios = ("core.plan_cache.hit_ratio", "core.candidates.pruned_share")
    units = {name: unit for name, unit, _, _ in CATALOGUE}
    return {
        name: value
        for name, value in values.items()
        if units.get(name) == "count" or name in ratios
    }
