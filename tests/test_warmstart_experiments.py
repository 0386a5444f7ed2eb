"""Warm-start forking must be invisible in experiment results.

fig13's ``warm_start`` path simulates each user count's shared warm-up
once and forks the four mode cells from a capture.  The contract is
strict: the warm path's cells are *byte-identical* (under pickle) to the
cold path's at every parameterisation — warm-starting is a wall-clock
optimisation, never a semantics change.  Parameters here are tiny; the
bench-smoke CI job re-checks fig13 at bench scale.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigError
from repro.experiments import fig13_scheduling
from repro.experiments.common import (attach_controller, build_system,
                                      capture_system, fork_system,
                                      warm_system)


def test_fig13_warm_equals_cold():
    kwargs = dict(users=(1, 2), repetitions=2, scale=0.01, sim_scale=1.0)
    cold = fig13_scheduling.run(warm_start=False, **kwargs)
    warm = fig13_scheduling.run(warm_start=True, **kwargs)
    assert list(warm.cells) == list(cold.cells)
    assert pickle.dumps(warm.cells) == pickle.dumps(cold.cells)


def test_fig13_single_repetition_has_no_warmup_phase():
    """With one repetition there is nothing to amortise: every rep is
    measured, and warm/cold must still agree."""
    kwargs = dict(users=(1,), repetitions=1, scale=0.01, sim_scale=1.0)
    cold = fig13_scheduling.run(warm_start=False, **kwargs)
    warm = fig13_scheduling.run(warm_start=True, **kwargs)
    assert pickle.dumps(warm.cells) == pickle.dumps(cold.cells)


# ---------------------------------------------------------------------
# the harness primitives themselves


def test_attach_controller_refuses_double_attachment():
    sut = build_system(engine="monetdb", mode="dense", scale=0.01)
    with pytest.raises(ConfigError):
        attach_controller(sut, "sparse")


def test_capture_and_fork_share_the_dataset():
    sut = build_system(engine="monetdb", mode=None, scale=0.01)
    fork = fork_system(capture_system(sut))
    assert fork.dataset is sut.dataset
    assert fork.os is not sut.os


def test_warm_system_capture_is_small():
    """Shared-atom externalisation keeps captures in the kilobytes."""
    state = warm_system(scale=0.01)
    assert state.size_bytes() < 1_000_000
