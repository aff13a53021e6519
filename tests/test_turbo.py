"""Trust-region baseline: fraction schedule, windows, restarts."""

import pytest

from sizerforge.core import EvaluatedDesign, History, design_from
from sizerforge.optim.turbo import (
    EXPAND_FACTOR,
    INIT_FRACTION,
    SHRINK_FACTOR,
    TurboState,
    propose_turbo_baseline,
    window_bounds,
)
from sizerforge.space import SearchSpace

GRID = (0.84, 1.05, 1.26, 1.47, 1.68, 1.89, 2.10, 2.31, 2.52)


def _space():
    return SearchSpace(
        active={"W_a": GRID, "W_b": GRID},
        fixed={},
        full_grid={"W_a": GRID, "W_b": GRID},
        generation=0,
    )


def _seed_history(pairs):
    hist = History()
    for (ia, ib), fom in pairs:
        hist.append(
            EvaluatedDesign(
                design=design_from({"W_a": GRID[ia], "W_b": GRID[ib]}),
                raw_metrics={},
                normalized={},
                fom=fom,
                feasible=False,
                sim_status="ok",
                iteration=1,
                method="lhs",
                eval_index=hist.next_eval_index(),
                wall_time=0.0,
            )
        )
    return hist


def test_schedule_constants():
    assert INIT_FRACTION == 0.8
    assert EXPAND_FACTOR == 2.0
    assert SHRINK_FACTOR == 0.5


def test_fraction_follows_success_failure_script():
    state = TurboState()
    trace = [state.fraction]
    # improvement, improvement, miss, miss, miss, improvement
    script = [
        (0.5, True),
        (0.7, True),
        (0.6, False),
        (0.7, False),  # ties do not count as improvement
        (None, False),
        (0.9, True),
    ]
    for batch_best, want_improved in script:
        improved = state.update(batch_best)
        assert improved == want_improved
        trace.append(state.fraction)
    assert trace == [0.8, 1.0, 1.0, 0.5, 0.25, 0.125, 0.25]


def test_collapse_and_restart():
    state = TurboState()
    sizes = [9, 9]
    assert not state.collapsed(sizes)
    for _ in range(10):
        state.update(None)
    assert state.collapsed(sizes)
    state.restart()
    assert state.fraction == INIT_FRACTION
    assert state.best_fom is None
    assert state.restarts == 1


def test_window_width_and_edge_shift():
    # fraction 0.5 over 9 values -> width ceil(0.5*8) = 4
    lo, hi = window_bounds(4, 9, 0.5)
    assert (lo, hi) == (2, 6)
    # at the edge the window shifts instead of shrinking
    lo, hi = window_bounds(0, 9, 0.5)
    assert (lo, hi) == (0, 4)
    lo, hi = window_bounds(8, 9, 0.5)
    assert (lo, hi) == (4, 8)
    # full fraction spans everything
    assert window_bounds(3, 9, 1.0) == (0, 8)


def test_cold_start_samples_full_grid():
    proposal = propose_turbo_baseline(_space(), History(), 10, seed=1)
    assert proposal.method == "turbo_baseline"
    assert proposal.diagnostics["windows"] == [[0, 8], [0, 8]]
    assert not proposal.diagnostics["restarted"]


def test_windows_center_on_incumbent():
    space = _space()
    hist = _seed_history([((4, 4), 0.9), ((0, 0), 0.1)])
    state = TurboState(fraction=0.5)
    proposal = propose_turbo_baseline(space, hist, 8, seed=2, state=state)
    assert proposal.diagnostics["windows"] == [[2, 6], [2, 6]]
    for d in proposal.designs:
        assert 2 <= GRID.index(d.assignment["W_a"]) <= 6
        assert 2 <= GRID.index(d.assignment["W_b"]) <= 6


def test_collapsed_state_restarts_and_goes_global():
    space = _space()
    hist = _seed_history([((4, 4), 0.9)])
    state = TurboState(fraction=0.05)  # 0.05 * 8 < 1 on every axis
    proposal = propose_turbo_baseline(space, hist, 8, seed=3, state=state)
    assert proposal.diagnostics["restarted"]
    assert state.restarts == 1
    assert state.fraction == INIT_FRACTION
    assert proposal.diagnostics["windows"] == [[0, 8], [0, 8]]


def test_fraction_cap_at_one():
    state = TurboState()
    state.update(1.0)
    assert state.fraction == 1.0
    state.update(2.0)
    assert state.fraction == 1.0  # capped


def test_determinism_per_seed():
    space = _space()
    hist = _seed_history([((4, 4), 0.9)])
    a = propose_turbo_baseline(space, hist, 10, seed=6, state=TurboState())
    b = propose_turbo_baseline(space, hist, 10, seed=6, state=TurboState())
    assert [d.id for d in a.designs] == [d.id for d in b.designs]
