"""Record the pinned answers and counters that ``run.py`` checks against.

Usage, from the repository root::

    python3 bench_e2e/pin.py --workload s3-planted --seeds 0-99
    python3 bench_e2e/pin.py --workload standins-warm

For every requested seed the script runs the workload's set-up and one
pass, and stores each input's side size plus the pass counters (total B&B
nodes, subgraphs generated/pruned/searched and the ``terminated_at``
histogram) in ``pins.json``.  Workloads whose inputs do not depend on the
seed are pinned once, under the key their ``pin_key`` names.  Re-pin only
when a change is meant to alter what the solvers compute; a pure speed-up
must leave every pin intact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer  # noqa: E402
from suite import PINS_PATH, WORKLOADS, pass_counters  # noqa: E402


def seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=range(0, 1))
    parser.add_argument("--family-seed", type=int, default=0)
    args = parser.parse_args()

    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    table = pins.setdefault(args.workload, {})
    cls = WORKLOADS[args.workload]
    for seed in args.seeds:
        workload = cls(seed, family_seed=args.family_seed)
        workload.setup()
        result = workload.run_pass(Tracer())
        bad = [report.tag for report in result.reports if not report.ok or not report.optimal]
        if bad:
            print(f"seed {seed}: not solved to optimality: {bad}", file=sys.stderr)
            return 1
        problems = workload.check_pass(result)
        if problems:
            print(f"seed {seed}: {problems}", file=sys.stderr)
            return 1
        sides = {
            workload.input_label(index): report.side_size
            for report, index in zip(result.reports, result.inputs, strict=True)
        }
        counters = pass_counters(result.reports)
        table[workload.pin_key()] = {
            "sides": dict(sorted(sides.items())),
            "counters": counters,
        }
        print(workload.pin_key(), counters, flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
