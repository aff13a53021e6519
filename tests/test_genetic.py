"""Genetic proposals: cold-start seeding, elitism, mutation bounds."""

import random

from sizerforge.core import EvaluatedDesign, History, design_from
from sizerforge.optim.base import history_view
from sizerforge.optim.genetic import (
    MUTATION_STEPS,
    crossover_uniform,
    mutate_gene,
    propose_genetic,
    tournament,
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


def _seed_history(space, pairs):
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


def test_cold_start_falls_back_to_lhs_seeding():
    proposal = propose_genetic(_space(), History(), 10, seed=1)
    assert proposal.diagnostics["fallback"] == "lhs_seeding"
    assert proposal.diagnostics["parents_available"] == 0
    assert len(proposal.designs) == 10


def test_single_parent_also_falls_back():
    space = _space()
    hist = _seed_history(space, [((0, 0), 0.5)])
    proposal = propose_genetic(space, hist, 10, seed=1)
    assert proposal.diagnostics["fallback"] == "lhs_seeding"
    assert proposal.diagnostics["parents_available"] == 1


def test_the_diagnostics_name_the_elite_or_the_fallback_and_nothing_else():
    # a child's parents are not recorded: nothing reads them
    space = _space()
    cold = propose_genetic(space, _seed_history(space, [((0, 0), 0.5)]), 10, seed=1)
    assert set(cold.diagnostics) == {"fallback", "parents_available"}
    hist = _seed_history(space, [((0, 0), 0.2), ((3, 3), 0.9), ((5, 1), 0.4)])
    for seed in range(5):
        assert set(propose_genetic(space, hist, 8, seed=seed).diagnostics) == {"elite"}


def test_elite_leads_the_batch():
    space = _space()
    hist = _seed_history(space, [((0, 0), 0.2), ((3, 3), 0.9), ((5, 1), 0.4)])
    proposal = propose_genetic(space, hist, 8, seed=7)
    # incumbent best re-enters the batch even though history has it
    assert proposal.designs[0].assignment == {"W_a": GRID[3], "W_b": GRID[3]}
    assert proposal.diagnostics["elite"] == proposal.designs[0].id
    # all other entries are new
    evaluated = {r.design.id for r in hist.records}
    for d in proposal.designs[1:]:
        assert d.id not in evaluated


def test_offspring_stay_on_grid():
    space = _space()
    hist = _seed_history(space, [((0, 0), 0.2), ((8, 8), 0.9)])
    proposal = propose_genetic(space, hist, 20, seed=3)
    for d in proposal.designs:
        assert d.assignment["W_a"] in GRID
        assert d.assignment["W_b"] in GRID


def test_determinism_per_seed():
    space = _space()
    hist = _seed_history(space, [((0, 0), 0.2), ((3, 3), 0.9), ((5, 1), 0.4)])
    a = propose_genetic(space, hist, 12, seed=9)
    b = propose_genetic(space, hist, 12, seed=9)
    c = propose_genetic(space, hist, 12, seed=10)
    assert [d.id for d in a.designs] == [d.id for d in b.designs]
    assert [d.id for d in a.designs] != [d.id for d in c.designs]


def test_population_overrides_batch_size():
    space = _space()
    hist = _seed_history(space, [((0, 0), 0.2), ((3, 3), 0.9)])
    proposal = propose_genetic(space, hist, 50, seed=2, population=6)
    assert len(proposal.designs) <= 6


def test_mutate_gene_clamps_at_bounds():
    below = random.Random(0)._randbelow
    for _ in range(200):
        assert 0 <= mutate_gene(0, 9, below) <= 8
        assert 0 <= mutate_gene(8, 9, below) <= 8
        # steps are at most 2 grid indices
        assert abs(mutate_gene(4, 9, below) - 4) <= 2


def test_tournament_picks_the_fittest_of_its_draws():
    space = _space()
    hist = _seed_history(space, [((0, 0), 0.1), ((1, 1), 0.9), ((2, 2), 0.5)])
    pool = history_view(space, hist).obs
    # k = len(pool) guarantees at least one draw of everything over repeats
    below = random.Random(4)._randbelow
    wins = {tournament(pool, 3, below)[0].fom for _ in range(50)}
    assert 0.9 in wins
    assert min(wins) >= 0.1


def test_draws_are_the_stdlib_choice_stream():
    """``pool[below(len(pool))]`` draws what ``rng.choice(pool)`` draws: a
    tournament is the first fittest of k choices, a mutation steps by a
    choice, and both leave the generator where the choices leave it."""
    space = _space()
    hist = _seed_history(space, [((0, 0), 0.5), ((1, 1), 0.9), ((2, 2), 0.9), ((3, 3), 0.1)])
    pool = history_view(space, hist).obs
    for seed in range(30):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for k in (1, 2, 3, 5):
            picks = [stdlib.choice(pool) for _ in range(k)]
            assert tournament(pool, k, ours._randbelow) is max(picks, key=lambda ob: ob[0].fom)
        step = stdlib.choice(MUTATION_STEPS)
        assert mutate_gene(4, 9, ours._randbelow) == 4 + step
        assert ours.getstate() == stdlib.getstate()


def test_crossover_mixes_only_parent_genes():
    uniform = random.Random(5).random
    p1, p2 = [0, 0, 0, 0], [8, 8, 8, 8]
    for _ in range(50):
        child = crossover_uniform(p1, p2, uniform)
        assert all(g in (0, 8) for g in child)
