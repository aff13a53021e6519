"""Simulated-annealing proposals and the acceptance rule."""

import math
import random

import pytest

from sizerforge.core import History
from sizerforge.optim import annealing
from sizerforge.optim.annealing import metropolis_accept, propose_annealing

from conftest import W_GRID, grid_history, grid_space


def test_zero_temperature_accepts_only_improvements():
    rng = random.Random(123)
    for _ in range(10_000):
        assert metropolis_accept(0.01, 0.0, rng)
        assert metropolis_accept(0.0, 0.0, rng)
        assert not metropolis_accept(-0.01, 0.0, rng)


def test_improvements_always_accepted_at_any_temperature():
    rng = random.Random(9)
    for t in (0.0, 0.5, 3.0, 100.0):
        for _ in range(100):
            assert metropolis_accept(rng.uniform(0, 5), t, rng)


def test_finite_temperature_acceptance_rate_matches_boltzmann():
    # empirical acceptance over 10k draws within 3 sigma of exp(delta/T)
    n = 10_000
    for delta, temperature in ((-0.5, 1.0), (-1.0, 2.0), (-2.0, 1.5)):
        rng = random.Random(hash((delta, temperature)) & 0xFFFF)
        p = math.exp(delta / temperature)
        hits = sum(metropolis_accept(delta, temperature, rng) for _ in range(n))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma


def test_proposal_walks_from_incumbent():
    space = grid_space()
    hist = grid_history([((4, 4), 0.9), ((0, 0), 0.1)])
    proposal = propose_annealing(space, hist, 6, seed=1)
    assert 0 < len(proposal.designs) <= 6
    evaluated = {r.design.id for r in hist.records}
    for d in proposal.designs:
        assert d.id not in evaluated
        assert d.assignment["W_a"] in W_GRID


def test_cold_start_without_history():
    proposal = propose_annealing(grid_space(), History(), 5, seed=2)
    assert 0 < len(proposal.designs) <= 5


def _temperatures(monkeypatch):
    """The temperature of each ``metropolis_accept`` call from here on."""
    temperatures = []

    def spy(delta, temperature, rng):
        temperatures.append(temperature)
        return metropolis_accept(delta, temperature, rng)

    monkeypatch.setattr(annealing, "metropolis_accept", spy)
    return temperatures


def test_step_budget_bounds_the_walk(monkeypatch):
    # every grid point evaluated: no move yields a design, so the walk
    # runs to its budget of 60 steps per requested design. Halving from
    # 2.0 keeps each temperature an exact power of two: step s judges its
    # move at 2 ** (2 - s)
    space = grid_space()
    hist = grid_history([((a, b), 0.1 * a + 0.01 * b) for a in range(9) for b in range(9)])
    temperatures = _temperatures(monkeypatch)
    proposal = propose_annealing(space, hist, 4, seed=3, initial_temperature=2.0,
                                 cooling_rate=0.5)
    assert proposal.designs == []
    steps = [2 - math.log2(t) for t in temperatures]
    assert steps == sorted(set(steps)) and all(s == int(s) for s in steps)
    assert steps[0] >= 1 and 60 * 4 - 5 <= steps[-1] <= 60 * 4


def test_temperature_cools_geometrically(monkeypatch):
    temperatures = _temperatures(monkeypatch)
    proposal = propose_annealing(grid_space(), History(), 5, seed=4,
                                 initial_temperature=2.0, cooling_rate=0.9)
    assert len(proposal.designs) == 5
    # the k-th step judges its move at 2.0 * 0.9 ** (k - 1); a step that
    # stays in place (a move off the grid's edge) judges none
    exponents = [round(math.log(t / 2.0, 0.9)) for t in temperatures]
    assert exponents[0] >= 0 and exponents == sorted(set(exponents))
    for t, k in zip(temperatures, exponents):
        assert t == pytest.approx(2.0 * 0.9 ** k, rel=1e-9)


def test_another_seed_proposes_differently():
    space = grid_space()
    hist = grid_history([((4, 4), 0.9), ((0, 0), 0.1)])
    a = propose_annealing(space, hist, 6, seed=11)
    c = propose_annealing(space, hist, 6, seed=12)
    assert [d.id for d in a.designs] != [d.id for d in c.designs]
