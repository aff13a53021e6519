"""Genetic proposals: tournament selection, uniform crossover, index-step
mutation, elitism.

Parents come from the valid in-space history. With fewer than two usable
parents the method silently falls back to LHS seeding and says so in the
proposal diagnostics instead of raising: the inner loop must keep moving
on a cold start.

Elitism resubmits the incumbent best as the first batch entry; the
evaluation cache serves it for free, and it guarantees the best value of
every generation never drops below the running best.

The diagnostics name the elite, or the fallback and the number of
parents available.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..core import History
from ..space import SearchSpace
from .base import Proposal, fresh, history_view
from .sampling import lhs_index_rows

MUTATION_STEPS = (-2, -1, 1, 2)


# The draws take a generator's bound methods: ``below`` is
# ``rng._randbelow``, so ``seq[below(len(seq))]`` draws what
# ``rng.choice(seq)`` draws, and ``uniform`` is ``rng.random``.


def mutate_gene(idx: int, m: int, below: Callable[[int], int]) -> int:
    step = MUTATION_STEPS[below(len(MUTATION_STEPS))]
    return min(m - 1, max(0, idx + step))


def tournament(pool, k: int, below: Callable[[int], int]):
    """The fittest of k >= 1 uniform draws from (record, index vector)
    pairs; the earliest draw on ties."""
    n = len(pool)
    best = pool[below(n)]
    for _ in range(k - 1):
        pick = pool[below(n)]
        if pick[0].fom > best[0].fom:
            best = pick
    return best


def crossover_uniform(p1: List[int], p2: List[int], uniform: Callable[[], float]) -> List[int]:
    return [a if uniform() < 0.5 else b for a, b in zip(p1, p2)]


def propose_genetic(
    space: SearchSpace,
    history: History,
    n_samples: int,
    seed: int,
    mutation_rate: float = 0.2,
    crossover_rate: float = 0.8,
    tournament_size: int = 3,
    population: Optional[int] = None,
) -> Proposal:
    rng = random.Random(seed)
    below, uniform = rng._randbelow, rng.random
    n = population if population is not None else n_samples
    sizes = space.sizes()

    view = history_view(space, history)
    parents = view.obs
    if len(parents) < 2:
        rows = lhs_index_rows(space, n, rng)
        return Proposal(
            designs=fresh(space, rows, view.seen),
            diagnostics={"fallback": "lhs_seeding", "parents_available": len(parents)},
        )

    elite = view.incumbent[0]
    offspring_rows: List[List[int]] = []
    budget = n - 1  # first slot goes to the elite
    for _ in range(max(0, budget)):
        _, g1 = tournament(parents, tournament_size, below)
        _, g2 = tournament(parents, tournament_size, below)
        if uniform() < crossover_rate:
            child = crossover_uniform(g1, g2, uniform)
        else:
            child = list(g1)
        for j, m in enumerate(sizes):
            if uniform() < mutation_rate:
                child[j] = mutate_gene(child[j], m, below)
        offspring_rows.append(child)

    # elitism: the incumbent re-enters first, a free cache hit; the
    # offspring drop every evaluated vector, the incumbent's included
    return Proposal(
        designs=([elite.design] + fresh(space, offspring_rows, view.seen))[:n],
        diagnostics={"elite": elite.design.id},
    )
