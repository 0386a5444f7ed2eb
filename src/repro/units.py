"""Unit helpers, conversions and float folds used across the simulator.

Internally the simulator uses a single set of base units:

* **time** — seconds (floats; sub-microsecond resolution is never needed),
* **data** — bytes (ints where possible),
* **bandwidth** — bytes per second,
* **frequency** — hertz,
* **energy** — joules.

These helpers exist so that call sites read like the paper ("41.6 GB/s",
"6 MB L3", "2.8 GHz") instead of bare exponents.
"""

from __future__ import annotations

from functools import reduce
from operator import add

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

MICROSECOND = 1e-6
MILLISECOND = 1e-3

GHZ = 1e9
MHZ = 1e6


def kib(n: float) -> int:
    """Kibibytes to bytes."""
    return int(n * KIB)


def mib(n: float) -> int:
    """Mebibytes to bytes."""
    return int(n * MIB)


def gib(n: float) -> int:
    """Gibibytes to bytes."""
    return int(n * GIB)


def gb_per_s(n: float) -> float:
    """Decimal gigabytes per second to bytes per second."""
    return n * GB


def mb_per_s(n: float) -> float:
    """Decimal megabytes per second to bytes per second."""
    return n * MB


def ghz(n: float) -> float:
    """Gigahertz to hertz."""
    return n * GHZ


def usec(n: float) -> float:
    """Microseconds to seconds."""
    return n * MICROSECOND


def msec(n: float) -> float:
    """Milliseconds to seconds."""
    return n * MILLISECOND


def left_sum(values) -> float:
    """``values`` added strictly left to right from 0, like ``sum()``
    on CPython 3.11.  From 3.12 ``sum()`` compensates float rounding,
    which changes low-order bits; simulated quantities fold with this
    instead so their values are the same on every interpreter."""
    return reduce(add, values, 0)


def fmt_bytes(n: float) -> str:
    """Render a byte count with a binary suffix, for reports."""
    value = float(n)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024 or suffix == "TiB":
            return f"{value:.2f} {suffix}"
        value /= 1024
    raise AssertionError("unreachable")


def fmt_bandwidth(bytes_per_s: float) -> str:
    """Render a bandwidth with a decimal suffix, matching the paper's GB/s."""
    value = float(bytes_per_s)
    for suffix in ("B/s", "KB/s", "MB/s", "GB/s"):
        if abs(value) < 1000 or suffix == "GB/s":
            return f"{value:.2f} {suffix}"
        value /= 1000
    raise AssertionError("unreachable")


def fmt_seconds(t: float) -> str:
    """Render a duration with an adaptive unit."""
    if t < 1e-3:
        return f"{t * 1e6:.1f} us"
    if t < 1.0:
        return f"{t * 1e3:.2f} ms"
    return f"{t:.3f} s"
