"""The SPARQL-UO engine's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload paper-uo --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

- ``paper-uo``   the paper's 24 queries x {wco, hashjoin}, in process;
- ``write-mix``  updates beside SNIPPETS.md crawl reads against
                 ``repro serve --wal``, then ``kill -9`` and recovery.

Every end-to-end metric is measured on every workload, named for what a
user sees:

- ``setup_s``      open the snapshots and build the engines (paper-uo), or
                   spawn ``repro serve`` to a healthy ``/healthz``; the
                   median of three or more;
- ``pass_s``       one fixed unit of work: a ``full`` pass over 24 queries
                   x 2 engines (paper-uo), acking the 100 seeded updates
                   (write-mix);
- ``read_p50_ms``  median SELECT latency: paper queries under ``full``, or
                   the crawl reads beside the writes;
- ``peak_rss_mb``  the engine process, or the server parent plus workers.

On a shared cloud VM the host's speed swings by 30-50% within seconds (on
a 2-vCPU Firecracker VM a fixed CPU loop alternates between two speeds,
in process time as much as in wall time) and drifts by 20-40% over
minutes, so a whole run can sit in a slow spell.  Every run therefore
repeats the same work many times:

- paper-uo is pure CPU in one process.  Each set-up and each query runs
  between two ticks of a fixed yardstick (``common.Yardstick``) and is
  scaled to the yardstick's fixed speed, which cancels the host's speed
  at that moment; the timed passes are split over four fresh processes,
  since a process's memory layout moves its speed too.  A query's cost
  is the lower quartile of its scaled times over the processes' warm
  passes; ``pass_s`` is the sum of the costs and ``read_p50_ms`` their
  median.  ``host.raw_pass_s`` (unscaled) and ``host.yardstick_ms`` show
  the host's side.
- write-mix spreads its work over a server's processes, where a CPU
  yardstick in the client does not follow the host but a fixed HTTP round
  trip to a benchmark-owned server does (``common.EchoYardstick``).  The
  writer pings it before its first update and after each one, each spawn
  is timed between pings, and each cycle's time to ack its updates, its
  read p50 and each set-up are scaled by the pings beside them.  The
  metrics are medians over the cycles.  Recovery after ``kill -9`` runs
  once per run, after the last cycle, and is a per-layer value
  (``server.recovery_s``).  ``host.raw_pass_s`` and ``host.echo_ms`` show
  the host's side.

The human-readable lines also give the per-cycle or per-process values,
and the tail percentiles with their sample counts.

With ``--trace 1`` the workload runs untraced as above (for the server
layer, read from ``/metrics`` and client timing), then a fixed, seeded
replay of its requests runs twice more, in fresh processes, with every
layer's public functions timed (``layers.py``).  The two replays must
give identical counts.  Each replay runs its requests traced and
untraced in turn, which gives the tracing overhead.

Outputs are checked: paper-uo result multisets agree across engines and
modes and match ``expected_counts.json``; write-mix acks report what each
update must change, and the triple counts after the writes and after
recovery equal what the acked updates imply.  A failed check prints the result
with ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BUILD, ROOT, SRC, child_env, fresh_dir, kill_group  # noqa: E402
from layers import CATALOGUE, deterministic  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
#: Every run, traced or not, ends within this many seconds.
BUDGET_S = 175.0


class StepFailed(RuntimeError):
    pass


def step(argv: List[str], deadline: float, say) -> dict:
    """Run ``child.py argv`` in its own process group; return its JSON."""
    proc = subprocess.Popen(
        [sys.executable, str(CHILD)] + argv,
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=str(ROOT),
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        kill_group(proc.pid, reap=proc)
        raise StepFailed(f"step {argv[:2]} ran out of time") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise StepFailed(f"step {argv[:2]} exited with code {proc.returncode}")
    for line in lines[:-1]:
        say(line)
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if [m["name"] for m in spec["per_layer"]] != [name for name, *_ in CATALOGUE]:
        print("error: BENCHMARK.json per_layer differs from layers.CATALOGUE", file=sys.stderr)
        return 2

    def say(line: str) -> None:
        print(line, flush=True)

    deadline = time.monotonic() + BUDGET_S
    run_dir = fresh_dir(BUILD / f"run-{os.getpid()}")
    shared = ["--seed", str(args.seed), "--run-dir", str(run_dir)]
    try:
        step(["prepare"], deadline, say)
        main_run = step(
            ["run", args.workload, "--seconds", str(args.seconds)] + shared, deadline, say
        )
        problems = list(main_run["problems"])
        attempted, failed = main_run["attempted"], main_run["failed"]
        if args.trace:
            replays = [step(["replay", args.workload] + shared, deadline, say) for _ in "ab"]
            for replay in replays:
                problems += replay.get("problems", [])
                attempted += replay["operations"]
            metrics = per_layer(args.workload, main_run, replays, problems, say)
        else:
            metrics = {
                m["name"]: {"value": main_run["end_to_end"][m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
            for name, entry in metrics.items():
                say(f"{name} = {entry['value']:.6g} {entry['unit']}")
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        cleanup(run_dir)
    for problem in problems:
        say(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


def per_layer(workload: str, main_run: dict, replays: List[dict], problems, say) -> Dict:
    traced, again = replays
    counts, repeat = deterministic(traced["values"]), deterministic(again["values"])
    if counts != repeat:
        differ = sorted(k for k in counts if counts[k] != repeat.get(k))
        problems.append(f"counts differ between two traced runs with one seed: {differ}")
    values = dict(traced["values"])
    values.update(main_run["outside"])
    values["trace.overhead_share"] = traced["overhead"]
    if workload == "write-mix":
        values["server.overhead.ms"] = (
            main_run["end_to_end"]["read_p50_ms"] - traced["read_p50_ms"]
        )
    say(f"tracing overhead on {workload}: {traced['overhead']:+.1%} (median traced over "
        f"median untraced request in the replay; VM speed swings are of the same order)")
    metrics = {}
    for name, unit, _, target in CATALOGUE:
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        say(f"{name} = {value:.6g} {unit}  -> {target}")
    return metrics


def cleanup(run_dir: Path) -> None:
    """Stop every server any step started, then drop the run's files."""
    log = run_dir / "servers.pids"
    if log.exists():
        for line in log.read_text().split():
            kill_group(int(line))
    shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
