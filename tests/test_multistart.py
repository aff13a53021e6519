"""Multistart neighborhood sweeps around the best evaluated designs."""

import random

from sizerforge.optim.multistart import neighborhood_rows, propose_multistart
from sizerforge.optim.sampling import lhs_index_rows

from conftest import W_GRID, grid_history, grid_space


def test_neighborhood_is_linf_ball_clipped_to_grid():
    rows = list(neighborhood_rows((0, 4), [9, 9], 1))
    assert rows[0] == (0, 3)  # lexicographic order
    assert set(rows) == {(a, b) for a in (0, 1) for b in (3, 4, 5)}


def test_radius_zero_returns_starts_verbatim():
    space = grid_space()
    hist = grid_history([((2, 2), 0.9), ((5, 5), 0.7), ((7, 1), 0.5)])
    proposal = propose_multistart(space, hist, 10, seed=0, n_starts=3, search_radius=0)
    got = [(d.assignment["W_a"], d.assignment["W_b"]) for d in proposal.designs]
    assert got == [(W_GRID[2], W_GRID[2]), (W_GRID[5], W_GRID[5]), (W_GRID[7], W_GRID[1])]


def test_starts_ranked_by_fom():
    space = grid_space()
    hist = grid_history([((1, 1), 0.2), ((3, 3), 0.9), ((6, 6), 0.6)])
    proposal = propose_multistart(space, hist, 30, seed=0, n_starts=2, search_radius=1)
    centers = {(3, 3), (6, 6)}
    for d in proposal.designs:
        row = (W_GRID.index(d.assignment["W_a"]), W_GRID.index(d.assignment["W_b"]))
        assert any(max(abs(row[0] - c[0]), abs(row[1] - c[1])) <= 1 for c in centers)


def test_history_repeats_skipped():
    space = grid_space()
    hist = grid_history([((3, 3), 0.9), ((3, 4), 0.5)])
    proposal = propose_multistart(space, hist, 20, seed=0, n_starts=1, search_radius=1)
    evaluated = {r.design.id for r in hist.records}
    for d in proposal.designs:
        assert d.id not in evaluated


def _row(design):
    return W_GRID.index(design.assignment["W_a"]), W_GRID.index(design.assignment["W_b"])


def test_lhs_padding_on_thin_history():
    space = grid_space()
    for pairs in ([((4, 4), 0.9)], []):
        hist = grid_history(pairs)
        # the evaluated starts, padded by an LHS of the missing ones under
        # the same seed; radius 0 returns the starts themselves
        padding = lhs_index_rows(space, 5 - len(pairs), random.Random(1))
        starts = [row for row, _ in pairs] + [tuple(row) for row in padding]
        proposal = propose_multistart(space, hist, 12, seed=1, n_starts=5, search_radius=0)
        assert [_row(d) for d in proposal.designs] == starts
        proposal = propose_multistart(space, hist, 12, seed=1, n_starts=5, search_radius=1)
        assert 0 < len(proposal.designs) <= 12
        for d in proposal.designs:
            assert any(max(abs(a - b) for a, b in zip(_row(d), s)) <= 1 for s in starts)


def test_batch_has_no_duplicates():
    space = grid_space()
    hist = grid_history([((2, 2), 0.8), ((2, 3), 0.7)])
    proposal = propose_multistart(space, hist, 25, seed=2, n_starts=2, search_radius=2)
    ids = [d.id for d in proposal.designs]
    assert len(ids) == len(set(ids))
