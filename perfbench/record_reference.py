"""Record the oracle's reference cells into ``reference.json``.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py --seeds 0-10,1009 --seconds 30

Records the serial scheduling sweep (its cells do not depend on the
seed) and, for every run seed given, the mixed-phases cells of every
stream a ``--seconds`` run of that seed draws.  Existing entries are
kept; a cell is recorded only after it passes the invariant checks,
and the sweep only after the two-worker sweep reproduced it.  Re-record
only for a change that is meant to alter simulated outcomes, and say
so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def parse_seeds(text: str) -> list[int]:
    """``"0-3,9"`` -> ``[0, 1, 2, 3, 9]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    from perfbench import oracle, workloads
    from repro.runner import cache

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-10,1009")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    cache.configure(False)

    reference = oracle.load_reference()
    serial = workloads.sweep_iteration(1)
    parallel = workloads.sweep_iteration(2)
    if serial.raised or oracle.canonical(serial.cells) \
            != oracle.canonical(parallel.cells):
        print("serial and parallel sweeps disagree", file=sys.stderr)
        return 1
    bad = oracle.failed_cells("scheduling_sweep", serial.cells, [], {})
    if bad:
        print(f"sweep cells break invariants: {bad}", file=sys.stderr)
        return 1
    reference["scheduling_sweep"] = oracle.canonical(serial.cells)

    mixed = reference.setdefault("mixed_phases", {})
    runs = workloads.iterations("mixed_phases", args.seconds)
    for seed in parse_seeds(args.seeds):
        for index in range(runs):
            stream = workloads.stream_seed(seed, index)
            it = workloads.mixed_iteration(stream)
            bad = oracle.failed_cells("mixed_phases", it.cells, it.raised,
                                      {})
            if bad:
                print(f"cells break invariants: {bad}", file=sys.stderr)
                return 1
            mixed.update(oracle.canonical(it.cells))
            print(f"recorded stream {stream}", flush=True)
        oracle.REFERENCE.write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n")
    oracle.REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
