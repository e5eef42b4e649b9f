"""Shared pieces of the benchmark: paths, inputs, percentiles, servers.

Everything here runs inside the benchmark's own processes.  The program
under test is reached only through its public Python API (in process)
or through ``python -m repro serve`` (as a subprocess), so the same
benchmark files can time any later version of ``src/``.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.parse
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (listed in .gitignore).
BUILD = ROOT / ".bench_build" / "perfbench"
DATA = BUILD / "data"

#: The paper's repro scales (LUBM needs >= 13 universities for
#: q2.5/q2.6's University12; DBpedia a1500 is the harness default).
LUBM_UNIVERSITIES = 13
DBPEDIA_ARTICLES = 1500
DATASET_SEED = 42

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

#: Client-side limit on one HTTP request.  A failed or refused request
#: counts as taking this long in every latency percentile.
CLIENT_TIMEOUT_S = 60.0

JSON_ACCEPT = "application/sparql-results+json"


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------
def snapshot_file(flavor: str) -> Path:
    from repro.datasets.cache import snapshot_path

    return snapshot_path(
        flavor,
        DATA,
        seed=DATASET_SEED,
        universities=LUBM_UNIVERSITIES,
        articles=DBPEDIA_ARTICLES,
    )


ENTITIES_FILE = DATA / "entities.json"


def prepare_data() -> None:
    """Build the two snapshots and the LUBM student list once per checkout.

    Runs before any timed or set-up interval.  Each file is published
    atomically, so an interrupted build is redone by the next run.
    """
    from repro.datasets import cached_store, generate_lubm

    DATA.mkdir(parents=True, exist_ok=True)
    for flavor in ("lubm", "dbpedia"):
        if not snapshot_file(flavor).exists():
            cached_store(
                flavor,
                DATA,
                seed=DATASET_SEED,
                universities=LUBM_UNIVERSITIES,
                articles=DBPEDIA_ARTICLES,
            )
    if ENTITIES_FILE.exists():
        return
    students = set()
    for triple in generate_lubm(universities=LUBM_UNIVERSITIES, seed=DATASET_SEED):
        if (
            triple.predicate.value == RDF_TYPE
            and triple.object.value == UB + "UndergraduateStudent"
        ):
            students.add(triple.subject.value)
    tmp = ENTITIES_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps({"lubm": sorted(students)}))
    os.replace(tmp, ENTITIES_FILE)


def entities(flavor: str) -> List[str]:
    return json.loads(ENTITIES_FILE.read_text())[flavor]


PAGE = 10


def crawl_query(entity: str, page: Optional[int] = None) -> str:
    """The SNIPPETS.md entity-crawl template, in the BIND-free form the
    parser takes; ``page=None`` asks for the whole, unpaged result."""
    text = f"SELECT * WHERE {{ {{ <{entity}> ?p ?o . }} UNION {{ ?s ?p <{entity}> . }} }}"
    if page is None:
        return text
    return f"{text} LIMIT {PAGE} OFFSET {page * PAGE}"


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def latency_summary(
    seconds: Sequence[float], tail: float, failed: int = 0, limit_s: float = CLIENT_TIMEOUT_S
) -> Dict[str, float]:
    """Median and ``p<tail>`` in ms, with the sample count.

    Every latency metric goes through here.  Failed or refused requests
    enter the sample at ``limit_s``: they count as missing the limit.
    The tail is refused unless at least ten samples lie beyond it.
    """
    values = list(seconds) + [limit_s] * failed
    n = len(values)
    rank = math.ceil(n * tail / 100.0)
    if n - rank < 10:
        raise ValueError(
            f"p{tail:g} needs 10 samples beyond it; have {n} samples ({n - rank} beyond)"
        )
    return {
        "p50_ms": percentile(values, 50) * 1000.0,
        "tail_ms": percentile(values, tail) * 1000.0,
        "n": n,
    }


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: The yardstick's time on a quiet vCPU of a 2.0 GHz Xeon; scaled
#: timings read as seconds on a host that runs the yardstick this fast.
YARDSTICK_S = 0.004


class Yardstick:
    """A fixed pure-Python hash join, timed around each of the program's
    operations.

    On a shared VM the host's speed swings by 30-50% within seconds and
    drifts as much over minutes, so a whole run can sit in a slow spell
    and even an operation's fastest time over the run follows the host.
    The yardstick uses builtins only and lives in the benchmark, so no
    change to the program moves it (it runs with the garbage collector
    off, whatever the program sets).  ``measure`` times an operation
    between two ticks and divides by their mean: the operation's cost in
    yardsticks at that moment, which the host's speed cancels out of,
    given back as seconds at the fixed speed of ``YARDSTICK_S``.
    """

    def __init__(self, rows: int = 10000) -> None:
        rng = random.Random(7)
        self._rows = [(i, rng.randrange(2 * rows)) for i in range(rows)]
        self._index: Dict[int, List[int]] = {}
        for k in range(4 * rows):
            self._index.setdefault(rng.randrange(2 * rows), []).append(k)
        self.times: List[float] = []

    def tick(self) -> float:
        """Run the yardstick once; return (and keep) its time."""
        index, out = self._index, []
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            for left, key in self._rows:
                matches = index.get(key)
                if matches is not None:
                    for right in matches:
                        out.append((left, right))
            took = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self.times.append(took)
        return took

    def measure(self, operation: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``operation`` after the last tick and before a new one.

        Returns its result, its time in seconds, and its time scaled to
        the fixed speed.  Call ``tick()`` first after any other work, so
        the tick before is the operation's neighbour.
        """
        before = self.times[-1] if self.times else self.tick()
        started = time.perf_counter()
        value = operation()
        took = time.perf_counter() - started
        after = self.tick()
        return value, took, took * 2.0 * YARDSTICK_S / (before + after)


#: The echo yardstick's round trip on a quiet 2-vCPU host of 2.0 GHz
#: Xeons; scaled timings read as seconds on a host this fast.
ECHO_S = 0.004
ECHO_SERVER = Path(__file__).resolve().parent / "echo.py"


class EchoYardstick:
    """A fixed HTTP round trip to a benchmark-owned server, the yardstick
    of the server workloads.

    A server's request time follows the host through process wake-ups and
    loopback TCP as much as through CPU speed, which a yardstick ticking
    in the client does not see.  ``echo.py`` answers each POST after a
    small fixed ``Yardstick`` tick, over the same stdlib HTTP stack and a
    fresh connection per request, as the program's server is reached; it
    is the benchmark's own code, so no change to the program moves it.
    Dividing a timing by the round trips around it cancels the host's
    speed; ``ECHO_S`` gives it back in seconds.
    """

    def __init__(self, pid_log: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(ECHO_SERVER)],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            cwd=str(ROOT),
            text=True,
            start_new_session=True,
        )
        with open(pid_log, "a") as handle:
            handle.write(f"{self.proc.pid}\n")
        self.port = int(self.proc.stdout.readline())  # type: ignore[union-attr]
        self.times: List[float] = []

    def ping(self) -> float:
        """One round trip; return (and keep) its time."""
        started = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=CLIENT_TIMEOUT_S)
        try:
            conn.request("POST", "/", body=b"ping")
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"echo yardstick answered HTTP {response.status}")
        took = time.perf_counter() - started
        self.times.append(took)
        return took

    def scale(self, pings: Sequence[float]) -> float:
        """Factor from timings beside ``pings`` to seconds at ``ECHO_S``."""
        return ECHO_S / median(pings)

    def kill(self) -> None:
        kill_group(self.proc.pid, reap=self.proc)


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _descendants(pid: int) -> List[int]:
    out: List[int] = []
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            text = Path(f"/proc/{current}/task/{current}/children").read_text()
        except OSError:
            continue
        for child in text.split():
            out.append(int(child))
            pending.append(int(child))
    return out


def _hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``python -m repro serve`` process tree on a free loopback port.

    The server runs in its own session, so :meth:`kill` takes down the
    parent and its workers together, as a machine crash would.  Every
    process group started is recorded in ``pid_log``; the benchmark's
    entry point kills whatever is still listed there when it exits.
    """

    def __init__(self, snapshot: Path, pid_log: Path, wal: Optional[Path] = None):
        self.snapshot = snapshot
        self.wal = wal
        self.pid_log = pid_log
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, ready_timeout: float = 60.0) -> float:
        """Spawn and wait for a healthy ``/healthz``; returns seconds taken."""
        argv = [
            sys.executable, "-m", "repro", "serve", str(self.snapshot),
            "--workers", "1", "--port", "0",
        ]  # fmt: skip
        if self.wal is not None:
            argv += ["--wal", str(self.wal)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            env=child_env(),
            cwd=str(ROOT),
            text=True,
            start_new_session=True,
        )
        with open(self.pid_log, "a") as handle:
            handle.write(f"{self.proc.pid}\n")
        line = self.proc.stdout.readline()  # type: ignore[union-attr]
        found = re.search(r"http://127\.0\.0\.1:(\d+)/sparql", line)
        if found is None:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(found.group(1))
        deadline = time.monotonic() + ready_timeout
        while True:
            try:
                status, body = self.request("GET", "/healthz", timeout=5.0)
                if status == 200 and json.loads(body)["status"] == "ok":
                    break
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.kill()
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)
        return time.perf_counter() - started

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        timeout: float = CLIENT_TIMEOUT_S,
    ) -> Tuple[int, bytes]:
        """One request on a fresh connection, as SPARQLWrapper/urllib send them.

        A fresh connection per request is also what keeps this client
        clear of the keep-alive path, where the server's separate
        header and body writes meet delayed ACKs (~40 ms per response).
        """
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def select(self, query: str) -> Tuple[int, bytes]:
        return self.request(
            "GET",
            "/sparql?" + urllib.parse.urlencode({"query": query}),
            headers={"Accept": JSON_ACCEPT},
        )

    def update(self, text: str) -> Tuple[int, bytes]:
        return self.request(
            "POST",
            "/update",
            body=text.encode("utf-8"),
            headers={"Content-Type": "application/sparql-update"},
        )

    def triple_count(self) -> int:
        status, body = self.select("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
        if status != 200:
            raise RuntimeError(f"count query failed with HTTP {status}")
        return int(json.loads(body)["results"]["bindings"][0]["n"]["value"])

    def metrics(self) -> Dict[str, float]:
        """``/metrics`` as {series: value}, label sets kept in the key."""
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics failed with HTTP {status}")
        out: Dict[str, float] = {}
        for line in body.decode("utf-8").splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server parent plus every process under it."""
        if self.proc is None:
            return 0.0
        pids = [self.proc.pid] + _descendants(self.proc.pid)
        return sum(_hwm_kb(pid) for pid in pids) / 1024.0

    def kill(self) -> None:
        """SIGKILL the whole process tree and wait until it is gone."""
        if self.proc is None:
            return
        kill_group(self.proc.pid, reap=self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None


def _live_members(pgid: int) -> List[int]:
    """Processes of group ``pgid`` that have not exited (zombies excluded)."""
    out: List[int] = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            out.append(int(entry.name))
    return out


def kill_group(pgid: int, reap: Optional[subprocess.Popen] = None, timeout: float = 30.0) -> None:
    """SIGKILL process group ``pgid`` and wait until every member is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    if reap is not None:
        reap.wait()
    deadline = time.monotonic() + timeout
    while _live_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
