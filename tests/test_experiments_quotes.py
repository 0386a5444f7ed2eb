"""EXPERIMENTS.md quotes the committed figure tables.

Each entry names a table under ``benchmarks/results``, a passage of
EXPERIMENTS.md and the numbers that passage quotes from the table.  The
test fails when the passage is gone or when a quoted number no longer
appears in the table, so a table that is regenerated with new values
forces the document to be updated with it.
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

#: (table, quoted passage, numbers the passage takes from the table)
QUOTES = [
    ("fig05_migration_os",
     "Measured: 87 migrations across 32 worker threads", ["87"]),
    ("fig13_scheduling", "+8 % (44.24 vs 40.85 q/s)", ["44.24", "40.85"]),
    ("fig13_scheduling", "OS +39 % (920 vs 660)", ["920", "660"]),
    ("fig13_scheduling", "similar (99.74 vs 96.11 %)", ["99.74", "96.11"]),
    ("fig14_memory", "OS 3.827 GB/s, dense/adaptive 3.483, sparse 3.600",
     ["3.827", "3.483", "3.600"]),
    ("fig16_migration_modes", "| 90 migrations, 4 nodes |", ["90"]),
    ("fig16_migration_modes", "| 43 migrations, ≤3 nodes |", ["43"]),
    ("fig16_migration_modes", "| 47 migrations |", ["47"]),
    ("fig17_strategies", "35.93 ms (absolute scale differs)", ["35.93"]),
    ("fig17_strategies", "+17.8 % vs OS (42.33 vs 35.93 ms",
     ["42.33", "35.93"]),
    ("fig18_stable_phases", "on MonetDB (28.20 vs 28.30 s)",
     ["28.20", "28.30"]),
    ("fig18_stable_phases", "ties on SQL Server (25.30 vs\n25.30 s)",
     ["25.30"]),
    ("fig19_mixed_phases_monetdb", "1.29× on the single default-seed run",
     ["1.29"]),
    ("fig19_mixed_phases_sqlserver", "| 1.38× |", ["1.38"]),
    ("headline_trials", "**1.490 ± 0.131×** over 3 seeds",
     ["1.490", "0.131"]),
]


def _numbers(text: str) -> set[float]:
    """Every decimal number written in ``text``, as floats."""
    return {float(token) for token in re.findall(r"\d+(?:\.\d+)?", text)}


@pytest.mark.parametrize("table, passage, numbers", QUOTES,
                         ids=[f"{table}:{numbers[0]}"
                              for table, _, numbers in QUOTES])
def test_experiments_md_quotes_the_committed_table(table, passage, numbers):
    document = (ROOT / "EXPERIMENTS.md").read_text()
    assert passage in document, f"EXPERIMENTS.md no longer says {passage!r}"
    in_table = _numbers((RESULTS / f"{table}.txt").read_text())
    for number in numbers:
        assert number in passage
        assert float(number) in in_table, (
            f"EXPERIMENTS.md quotes {number} from {table}.txt, "
            f"which no longer holds it")
