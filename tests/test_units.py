"""Unit helpers: conversions, formatting and the left float fold."""

from array import array

import pytest

from repro import units


def test_binary_sizes():
    assert units.kib(1) == 1024
    assert units.mib(1) == 1024 ** 2
    assert units.gib(2) == 2 * 1024 ** 3


def test_decimal_bandwidths():
    assert units.gb_per_s(1) == 1e9
    assert units.mb_per_s(2.5) == 2.5e6


def test_frequencies_and_times():
    assert units.ghz(2.8) == 2.8e9
    assert units.usec(5) == pytest.approx(5e-6)
    assert units.msec(20) == pytest.approx(0.02)


def test_fmt_bytes_scales_suffix():
    assert units.fmt_bytes(512) == "512.00 B"
    assert units.fmt_bytes(2048) == "2.00 KiB"
    assert units.fmt_bytes(3 * 1024 ** 2) == "3.00 MiB"
    assert units.fmt_bytes(5 * 1024 ** 4) == "5.00 TiB"


def test_fmt_bandwidth_uses_decimal_steps():
    assert units.fmt_bandwidth(999) == "999.00 B/s"
    assert units.fmt_bandwidth(41.6e9) == "41.60 GB/s"


def test_fmt_seconds_adaptive_units():
    assert units.fmt_seconds(2e-6) == "2.0 us"
    assert units.fmt_seconds(0.020) == "20.00 ms"
    assert units.fmt_seconds(3.5) == "3.500 s"


#: a left fold gives 0.0 (1e16 + 1.0 rounds back to 1e16); CPython
#: 3.12's compensated ``sum()`` gives 2.0
UNBALANCED = [0.1] * 10 + [1e16, 1.0, -1e16]


def _fold(values):
    total = 0
    for value in values:
        total = total + value
    return total


def test_left_sum_adds_left_to_right():
    assert units.left_sum(UNBALANCED) == _fold(UNBALANCED) == 0.0
    assert units.left_sum(array("d", UNBALANCED)) == 0.0
    assert units.left_sum(iter(UNBALANCED)) == 0.0


def test_left_sum_of_nothing_is_zero():
    assert units.left_sum([]) == 0
