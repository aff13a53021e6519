"""Genetic proposals: cold-start seeding, elitism, mutation bounds."""

import itertools
import random
import types

from sizerforge.core import History
from sizerforge.optim import genetic
from sizerforge.optim.base import fresh, history_view
from sizerforge.optim.genetic import MUTATION_STEPS, crossover_uniform, propose_genetic
from sizerforge.optim.sampling import lhs_index_rows

from conftest import W_GRID, grid_history, grid_space


def _lhs_seeding(space, hist, n, seed):
    """The cold start's batch: an LHS of n rows under the same seed, less
    the evaluated ones."""
    return fresh(space, lhs_index_rows(space, n, random.Random(seed)),
                 history_view(space, hist).seen)


def test_cold_start_falls_back_to_lhs_seeding():
    space = grid_space()
    proposal = propose_genetic(space, History(), 10, seed=1)
    assert len(proposal.designs) == 10
    assert proposal.designs == _lhs_seeding(space, History(), 10, 1)


def test_single_parent_also_falls_back():
    space = grid_space()
    hist = grid_history([((0, 0), 0.5)])
    for population in (None, 7):
        proposal = propose_genetic(space, hist, 10, seed=1, population=population)
        assert proposal.designs == _lhs_seeding(space, hist, population or 10, 1)


def test_elite_leads_the_batch():
    space = grid_space()
    hist = grid_history([((0, 0), 0.2), ((3, 3), 0.9), ((5, 1), 0.4)])
    proposal = propose_genetic(space, hist, 8, seed=7)
    # incumbent best re-enters the batch even though history has it
    assert proposal.designs[0].assignment == {"W_a": W_GRID[3], "W_b": W_GRID[3]}
    assert proposal.designs[0] == hist.records[1].design
    # all other entries are new
    evaluated = {r.design.id for r in hist.records}
    for d in proposal.designs[1:]:
        assert d.id not in evaluated


def test_offspring_stay_on_grid():
    space = grid_space()
    hist = grid_history([((0, 0), 0.2), ((8, 8), 0.9)])
    proposal = propose_genetic(space, hist, 20, seed=3)
    for d in proposal.designs:
        assert d.assignment["W_a"] in W_GRID
        assert d.assignment["W_b"] in W_GRID


def test_another_seed_proposes_differently():
    space = grid_space()
    hist = grid_history([((0, 0), 0.2), ((3, 3), 0.9), ((5, 1), 0.4)])
    a = propose_genetic(space, hist, 12, seed=9)
    c = propose_genetic(space, hist, 12, seed=10)
    assert [d.id for d in a.designs] != [d.id for d in c.designs]


def test_population_overrides_batch_size():
    space = grid_space()
    hist = grid_history([((0, 0), 0.2), ((3, 3), 0.9)])
    proposal = propose_genetic(space, hist, 50, seed=2, population=6)
    assert len(proposal.designs) <= 6


def _indices(design):
    return W_GRID.index(design.assignment["W_a"]), W_GRID.index(design.assignment["W_b"])


def test_mutation_steps_clamp_at_the_grid_bounds():
    # parents in a corner of the grid: every gene of every child steps by
    # at most 2 from a parent's gene and stays on the grid. Unclamped, a
    # step below 0 would wrap to the top of the grid, and one past the top
    # would fail to index it
    space = grid_space()
    for corner in ((0, 1), (7, 8)):
        hist = grid_history([((a, b), 0.1 + 0.1 * a + 0.01 * b)
                                     for a in corner for b in corner])
        lo, hi = max(0, corner[0] - 2), min(8, corner[1] + 2)
        for seed in range(20):
            proposal = propose_genetic(space, hist, 30, seed=seed, mutation_rate=1.0,
                                       crossover_rate=0.0)
            assert len(proposal.designs) > 1
            for design in proposal.designs:
                assert all(lo <= i <= hi for i in _indices(design))


def test_a_large_tournament_picks_the_fittest_parent(monkeypatch):
    # with crossover on every child, each pair of tournament winners is
    # handed to crossover_uniform; 200 draws of 3 parents all but surely
    # include the fittest, so every winner is its vector
    space = grid_space()
    hist = grid_history([((0, 0), 0.1), ((1, 1), 0.9), ((2, 2), 0.5)])
    winners = []

    def recorded(g1, g2, uniform):
        winners.extend((tuple(g1), tuple(g2)))
        return list(g1)

    monkeypatch.setattr(genetic, "crossover_uniform", recorded)
    for seed in range(5):
        propose_genetic(space, hist, 10, seed=seed, mutation_rate=0.0,
                        crossover_rate=1.0, tournament_size=200)
    assert len(winners) == 5 * 9 * 2
    assert set(winners) == {(1, 1)}


class _KeptRandom(random.Random):
    """A generator that remembers each instance, to read its state after
    the proposer is done with it."""

    made = []

    def __init__(self, seed):
        super().__init__(seed)
        _KeptRandom.made.append(self)


def _reference_genetic(space, hist, n, seed, mutation_rate, crossover_rate, tournament_size):
    """``propose_genetic``'s designs past the cold start, drawn through
    ``rng.choice`` and ``rng.random``: a tournament is the first fittest of
    its choices of a parent, a mutation steps by a choice."""
    rng = random.Random(seed)
    view = history_view(space, hist)

    def tournament():
        picks = [rng.choice(view.obs) for _ in range(tournament_size)]
        return max(picks, key=lambda ob: ob[0].fom)[1]

    rows = []
    for _ in range(n - 1):
        g1, g2 = tournament(), tournament()
        if rng.random() < crossover_rate:
            child = [a if rng.random() < 0.5 else b for a, b in zip(g1, g2)]
        else:
            child = list(g1)
        for j, m in enumerate(space.sizes()):
            if rng.random() < mutation_rate:
                child[j] = min(m - 1, max(0, child[j] + rng.choice(MUTATION_STEPS)))
        rows.append(child)
    designs = [view.incumbent[0].design] + fresh(space, rows, view.seen)
    return designs[:n], rng.getstate()


PARENT_SETS = (
    # four parents, a power of two: half the draws of 3 bits are redrawn
    [((0, 0), 0.5), ((1, 1), 0.9), ((2, 2), 0.9), ((3, 3), 0.1)],
    [((0, 4), 0.3), ((6, 1), 0.7), ((2, 8), 0.7), ((5, 5), 0.2), ((8, 0), 0.6)],
)


def test_draws_are_the_stdlib_choice_stream(monkeypatch):
    """The proposer's draws straight off ``getrandbits`` are what
    ``rng.choice`` draws: the same designs, ties going to the earliest
    draw, and the generator left where the choices leave it."""
    monkeypatch.setattr(genetic, "random", types.SimpleNamespace(Random=_KeptRandom))
    space = grid_space()
    for parents, seed, k in itertools.product(PARENT_SETS, range(30), (1, 2, 3, 5)):
        hist = grid_history(parents)
        _KeptRandom.made.clear()
        got = propose_genetic(space, hist, 12, seed=seed, mutation_rate=0.5,
                              crossover_rate=0.7, tournament_size=k).designs
        want, state = _reference_genetic(space, hist, 12, seed, 0.5, 0.7, k)
        assert [d.id for d in got] == [d.id for d in want]
        [rng] = _KeptRandom.made
        assert rng.getstate() == state


def test_crossover_mixes_only_parent_genes():
    uniform = random.Random(5).random
    p1, p2 = [0, 0, 0, 0], [8, 8, 8, 8]
    for _ in range(50):
        child = crossover_uniform(p1, p2, uniform)
        assert all(g in (0, 8) for g in child)
