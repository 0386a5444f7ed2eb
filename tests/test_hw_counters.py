"""Counter bank and snapshots: totals, deltas, rates."""

import pytest

from repro.hardware.counters import CounterBank


@pytest.fixture
def bank():
    return CounterBank()


def test_add_and_get(bank):
    bank.add("l3_miss", 0, 5)
    bank.add("l3_miss", 0, 2)
    assert bank.get("l3_miss", 0) == 7
    assert bank.get("l3_miss", 1) == 0


def test_increment(bank):
    bank.increment("tasks", 3)
    bank.increment("tasks", 3)
    assert bank.get("tasks", 3) == 2


def test_total_sums_family(bank):
    bank.add("imc_bytes", 0, 10)
    bank.add("imc_bytes", 1, 20)
    bank.add("ht_tx_bytes", 0, 99)
    assert bank.total("imc_bytes") == 30


def test_totals_fold_left_to_right(bank):
    """Family totals add in slot order, on live banks and snapshots."""
    values = [0.1] * 10 + [1e16, 1.0, -1e16]
    for index, value in enumerate(values):
        bank.add("busy_time", index, value)
    assert bank.total("busy_time") == 0.0
    assert bank.snapshot(0.0).total("busy_time") == 0.0


def test_by_index(bank):
    bank.add("busy_time", 0, 1.5)
    bank.add("busy_time", 2, 0.5)
    assert bank.by_index("busy_time") == {0: 1.5, 2: 0.5}


def test_string_indices_for_query_attribution(bank):
    bank.add("query_ht_bytes", "q6", 4096)
    assert bank.get("query_ht_bytes", "q6") == 4096
    assert bank.total("query_ht_bytes") == 4096


def test_reset_zeroes_everything(bank):
    bank.add("l3_miss", 0, 5)
    bank.reset()
    assert bank.total("l3_miss") == 0


def test_snapshot_is_immutable_copy(bank):
    bank.add("l3_miss", 0, 5)
    snap = bank.snapshot(1.0)
    bank.add("l3_miss", 0, 5)
    assert snap.get("l3_miss", 0) == 5
    assert bank.get("l3_miss", 0) == 10


def test_snapshot_delta_and_rate(bank):
    bank.add("imc_bytes", 0, 100)
    early = bank.snapshot(1.0)
    bank.add("imc_bytes", 0, 300)
    late = bank.snapshot(3.0)
    assert late.delta(early, "imc_bytes", 0) == 300
    assert late.rate(early, "imc_bytes", 0) == pytest.approx(150.0)


def test_snapshot_family_delta_and_rate(bank):
    bank.add("imc_bytes", 0, 100)
    bank.add("imc_bytes", 1, 100)
    early = bank.snapshot(0.0)
    bank.add("imc_bytes", 1, 100)
    late = bank.snapshot(2.0)
    assert late.delta_total(early, "imc_bytes") == 100
    assert late.rate_total(early, "imc_bytes") == pytest.approx(50.0)


def test_zero_window_rate_is_zero(bank):
    early = bank.snapshot(1.0)
    late = bank.snapshot(1.0)
    assert late.rate(early, "anything") == 0.0


# ---------------------------------------------------------------------
# family isolation: the array-backed layout's complexity contract


class _Landmine:
    """Stands in for another family's storage; detonates if touched.

    The flat ``(name, index) -> float`` dict layout this bank replaced
    had to scan *every* counter on ``total()``/``by_index()``.  Planting
    an unreadable object as an unrelated family's value store proves the
    reductions now touch only the requested family.
    """

    def __iter__(self):
        raise AssertionError("reduction touched an unrelated family")

    def __len__(self):
        raise AssertionError("reduction touched an unrelated family")

    def __getitem__(self, _):
        raise AssertionError("reduction touched an unrelated family")


def test_total_reads_only_the_requested_family(bank):
    bank.add("busy_time", 3, 1.5)
    bank.add("busy_time", 7, 2.5)
    for noise in range(20):
        bank.family(f"noise_{noise}").values = _Landmine()
    assert bank.total("busy_time") == 4.0
    assert bank.get("busy_time", 7) == 2.5


def test_by_index_reads_only_the_requested_family(bank):
    bank.add("l3_miss", 0, 5.0)
    bank.add("l3_miss", 2, 7.0)
    for noise in range(20):
        bank.family(f"noise_{noise}").values = _Landmine()
    assert bank.by_index("l3_miss") == {0: 5.0, 2: 7.0}


def test_family_handle_survives_reset_and_keeps_slot_order(bank):
    handle = bank.family("busy_time")
    handle.add(9, 1.0)
    handle.add(4, 2.0)
    assert list(bank.family_slots("busy_time")) == [9, 4]
    bank.reset()
    assert bank.total("busy_time") == 0.0
    # the same handle keeps writing into the (fresh) family storage
    handle.add(4, 3.0)
    assert bank.get("busy_time", 4) == 3.0
    assert list(bank.family_slots("busy_time")) == [4]


def test_reset_leaves_earlier_snapshots_intact(bank):
    bank.add("l3_miss", 1, 5.0)
    snap = bank.snapshot(1.0)
    bank.reset()
    bank.add("l3_miss", 2, 9.0)
    # the pre-reset snapshot still reads the old slot layout and values
    assert snap.get("l3_miss", 1) == 5.0
    assert snap.by_index("l3_miss") == {1: 5.0}
    assert bank.by_index("l3_miss") == {2: 9.0}
