"""One benchmark step in its own process; ``run.py`` starts these.

    python3 perfbench/child.py prepare
    python3 perfbench/child.py run    WORKLOAD --seed N --seconds S --run-dir DIR
    python3 perfbench/child.py replay WORKLOAD --seed N --run-dir DIR
    python3 perfbench/child.py part   paper-uo --part-seed S --seconds S

Lines before the last are for people; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import common
import paper_uo
import write_mix
from layers import LayerClock, engine_layers, install

WORKLOADS = {"paper-uo": paper_uo, "write-mix": write_mix}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=["prepare", "run", "replay", "part"])
    parser.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--run-dir", type=Path)
    parser.add_argument("--part-seed", default="0")
    args = parser.parse_args()

    def say(line: str) -> None:
        print(line, flush=True)

    if args.step == "prepare":
        common.prepare_data()
        print(json.dumps({"ok": True}))
        return 0
    module = WORKLOADS[args.workload]
    if args.step == "part":
        out = paper_uo.timed_part(args.part_seed, args.seconds)
    elif args.step == "run":
        out = module.run(args.seed, args.seconds, say, args.run_dir)
    else:
        clock = LayerClock()
        install(clock)
        out = module.replay(args.seed, clock, args.run_dir)
        clock.off()
        out["values"].update(engine_layers(clock))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
