"""Trust-region baseline: fraction schedule, windows, restarts.

The region is replayed from the history's batches, so each test hands the
proposer a history built batch by batch.
"""

from sizerforge.core import EvaluatedDesign, History, design_from
from sizerforge.optim import turbo
from sizerforge.optim.sampling import lhs_index_rows
from sizerforge.optim.turbo import (
    EXPAND_FACTOR,
    INIT_FRACTION,
    SHRINK_FACTOR,
    propose_turbo_baseline,
    trust_region,
    window_bounds,
)

from conftest import W_GRID, grid_space

SIZES = [9, 9]


def _add_batch(hist, pairs):
    """Append one batch of ((ia, ib), fom) records; a None fom is a failed simulation."""
    iteration = hist.records[-1].iteration + 1 if hist.records else 1
    for (ia, ib), fom in pairs:
        hist.append(
            EvaluatedDesign(
                design=design_from({"W_a": W_GRID[ia], "W_b": W_GRID[ib]}),
                raw_metrics={},
                normalized={},
                fom=fom,
                feasible=False,
                sim_status="ok" if fom is not None else "sim_failed",
                iteration=iteration,
                method="turbo_baseline",
                eval_index=hist.next_eval_index(),
                wall_time=0.0,
            )
        )
    return hist


def _history(batches):
    """One single-record batch per FoM, each at its own grid point;
    a pair is taken as ((ia, ib), fom) as it stands."""
    hist = History()
    for k, entry in enumerate(batches):
        pair = entry if isinstance(entry, tuple) else ((k % 9, k // 9), entry)
        _add_batch(hist, [pair])
    return hist


def _fraction(hist):
    return trust_region(hist, SIZES)[0]


def _searched(monkeypatch):
    """The fraction of each ``window_bounds`` call and the windows of each
    LHS the proposer draws, from here on."""
    fractions, windows = [], []

    def bounds(center, m, fraction):
        fractions.append(fraction)
        return window_bounds(center, m, fraction)

    def lhs(space, n, rng, region):
        windows.append([list(w) for w in region])
        return lhs_index_rows(space, n, rng, region)

    monkeypatch.setattr(turbo, "window_bounds", bounds)
    monkeypatch.setattr(turbo, "lhs_index_rows", lhs)
    return fractions, windows


def test_schedule_constants():
    assert INIT_FRACTION == 0.8
    assert EXPAND_FACTOR == 2.0
    assert SHRINK_FACTOR == 0.5


def test_fraction_follows_success_failure_script(monkeypatch):
    # improvement, improvement, miss, tie, failed batch, improvement
    script = [0.5, 0.7, 0.6, 0.7, None, 0.9]
    trace = [_fraction(_history(script[:k])) for k in range(len(script) + 1)]
    assert trace == [0.8, 1.0, 1.0, 0.5, 0.25, 0.125, 0.25]
    # the proposer searches the region the schedule gives
    fractions, _ = _searched(monkeypatch)
    proposal = propose_turbo_baseline(grid_space(), _history(script), 4, seed=0)
    assert fractions == [0.25, 0.25]
    assert proposal.restart is None


def test_a_tie_is_not_an_improvement():
    assert _fraction(_history([0.7])) == 1.0
    assert _fraction(_history([0.7, 0.7])) == 0.5
    assert _fraction(_history([0.7, 0.7 + 1e-12])) == 1.0


def test_a_batch_is_judged_by_its_best_record():
    hist = _add_batch(History(), [((0, 0), 0.5)])
    _add_batch(hist, [((1, 1), 0.1), ((2, 2), None), ((3, 3), 0.6)])
    assert _fraction(hist) == 1.0  # 0.6 beats 0.5
    _add_batch(hist, [((4, 4), 0.2), ((5, 5), 0.6)])
    assert _fraction(hist) == 0.5  # 0.6 only ties the incumbent


def test_collapse_and_restart():
    # failed batches halve the region: 0.4, 0.2, 0.1, and 0.1 * 8 < 1
    assert [trust_region(_history([None] * k), SIZES) for k in range(4)] == [
        (0.8, False), (0.4, False), (0.2, False), (INIT_FRACTION, True)]
    # the restart is only the next batch's: after it the schedule goes on
    # from the initial fraction, and the incumbent is forgotten, so any
    # valid FoM improves
    assert trust_region(_history([None] * 4), SIZES) == (0.4, False)
    assert trust_region(_history([0.9, None, None, None, None]), SIZES) == (INIT_FRACTION, True)
    assert trust_region(_history([0.9, None, None, None, None, 0.1]), SIZES) == (1.0, False)


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


def test_cold_start_samples_full_grid(monkeypatch):
    fractions, windows = _searched(monkeypatch)
    proposal = propose_turbo_baseline(grid_space(), History(), 10, seed=1)
    assert (fractions, windows) == ([], [[[0, 8], [0, 8]]])
    assert proposal.restart is None


def test_windows_center_on_incumbent(monkeypatch):
    # 0.9 improves (fraction 1.0), 0.1 misses (fraction 0.5)
    hist = _history([((4, 4), 0.9), ((0, 0), 0.1)])
    fractions, windows = _searched(monkeypatch)
    proposal = propose_turbo_baseline(grid_space(), hist, 8, seed=2)
    assert fractions == [0.5, 0.5]
    assert windows == [[[2, 6], [2, 6]]]
    for d in proposal.designs:
        assert 2 <= W_GRID.index(d.assignment["W_a"]) <= 6
        assert 2 <= W_GRID.index(d.assignment["W_b"]) <= 6


def test_collapsed_state_restarts_and_goes_global(monkeypatch):
    # 1.0 after the improvement, then four misses: 0.0625 * 8 < 1 on every axis
    hist = _history([((4, 4), 0.9), 0.1, 0.1, 0.1, 0.1])
    fractions, windows = _searched(monkeypatch)
    proposal = propose_turbo_baseline(grid_space(), hist, 8, seed=3)
    assert proposal.restart == INIT_FRACTION
    assert (fractions, windows) == ([], [[[0, 8], [0, 8]]])


def test_fraction_cap_at_one():
    assert _fraction(_history([1.0])) == 1.0
    assert _fraction(_history([1.0, 2.0])) == 1.0  # capped
