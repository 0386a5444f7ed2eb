"""Correctness oracle: which cells of an iteration failed.

A cell fails when it raised, when it breaks an invariant (fewer queries
completed than issued, a non-positive makespan or throughput), or when
its simulated outcome differs from the reference recorded in
``reference.json`` for that workload and seed.  The parallel sweep is
checked against the *serial* sweep's reference, so any divergence of
the fan-out from the serial run fails it.  Cells without a recorded
reference get only the invariant checks, plus — for the sweeps, whose
cells do not depend on the seed — equality with the run's first
iteration.

Comparison is exact: cells are compared after a JSON round trip, which
preserves every float bit.
"""

from __future__ import annotations

import json
from pathlib import Path

from .workloads import MIXED_MODES, SWEEP_USERS

REFERENCE = Path(__file__).with_name("reference.json")

#: run seeds whose mixed-phases cells are recorded but which no change
#: may be tuned on; quote them only to confirm a result
HELD_OUT_SEEDS = (1009,)


def load_reference(path: Path = REFERENCE) -> dict:
    """The recorded reference (empty when none was recorded)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def canonical(cell: dict) -> dict:
    """The cell as it reads back from JSON."""
    return json.loads(json.dumps(cell))


def reference_key(workload: str) -> str:
    """The reference section a workload is checked against."""
    return "mixed_phases" if workload == "mixed_phases" \
        else "scheduling_sweep"


def expected_labels(workload: str, cells: dict, raised: list) -> list:
    """Every cell label one iteration must produce."""
    if workload == "mixed_phases":
        seeds = {label.split("/")[0] for label in (*cells, *raised)}
        return [f"{seed}/{mode or 'OS'}" for seed in sorted(seeds)
                for mode in MIXED_MODES]
    from repro.experiments.fig13_scheduling import MODES
    return [f"{mode or 'OS'}/{users}" for mode in MODES
            for users in SWEEP_USERS]


def invariant_ok(workload: str, cell: dict) -> bool:
    """The checks every cell must pass, reference or not."""
    if cell["throughput"] <= 0:
        return False
    if workload == "mixed_phases":
        return (cell["makespan"] > 0
                and cell["queries_completed"] == cell["queries_issued"])
    return 0 <= cell["cpu_load"] <= 100 and cell["tasks"] > 0


def failed_cells(workload: str, cells: dict, raised: list,
                 reference: dict, first: dict | None = None) -> list:
    """Labels of the failed cells of one iteration.

    ``first`` is the run's first iteration's cells; the sweeps repeat
    one deterministic sweep, so every iteration must equal it.
    """
    section = reference.get(reference_key(workload), {})
    failed = []
    for label in expected_labels(workload, cells, raised):
        cell = cells.get(label)
        if cell is None or not invariant_ok(workload, cell):
            failed.append(label)
            continue
        want = section.get(label)
        if want is None and first is not None:
            want = first.get(label)
        if want is not None and canonical(cell) != canonical(want):
            failed.append(label)
    return failed
