"""Genetic proposals: tournament selection, uniform crossover, index-step
mutation, elitism.

Parents come from the valid in-space history. With fewer than two usable
parents the method falls back to LHS seeding instead of raising: the
inner loop must keep moving on a cold start. The proposal is then the
unevaluated rows of ``lhs_index_rows`` under the same seed.

Elitism resubmits the incumbent best as the first batch entry; the
evaluation cache serves it for free, and it guarantees the best value of
every generation never drops below the running best. The proposal
carries only the designs: the elite first, or the fallback's LHS rows.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..core import History
from ..space import SearchSpace
from .base import Proposal, fresh, history_view
from .sampling import lhs_index_rows

MUTATION_STEPS = (-2, -1, 1, 2)
_N_STEPS = len(MUTATION_STEPS)
_STEP_BITS = _N_STEPS.bit_length()


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
    bits, uniform = rng.getrandbits, rng.random
    n = population if population is not None else n_samples
    sizes = space.sizes()

    view = history_view(space, history)
    parents = view.obs
    if len(parents) < 2:
        return Proposal(fresh(space, lhs_index_rows(space, n, rng), view.seen))

    # Every draw below is ``rng._randbelow(size)`` written out: k =
    # size.bit_length() bits, redrawn while the value is not below size.
    # So a draw takes what ``rng.choice`` over that many items takes.
    foms = [record.fom for record, _ in parents]
    n_parents = len(parents)
    k = n_parents.bit_length()
    elite = view.incumbent[0]
    offspring_rows: List[List[int]] = []
    budget = n - 1  # first slot goes to the elite
    for _ in range(max(0, budget)):
        # two tournaments: each is the fittest of tournament_size uniform
        # draws of a parent, the earliest draw on ties
        picked = []
        for _ in (1, 2):
            best = bits(k)
            while best >= n_parents:
                best = bits(k)
            for _ in range(tournament_size - 1):
                pick = bits(k)
                while pick >= n_parents:
                    pick = bits(k)
                if foms[pick] > foms[best]:
                    best = pick
            picked.append(parents[best][1])
        g1, g2 = picked
        if uniform() < crossover_rate:
            child = crossover_uniform(g1, g2, uniform)
        else:
            child = list(g1)
        for j, m in enumerate(sizes):
            if uniform() < mutation_rate:
                # an index step drawn from MUTATION_STEPS, clamped to the grid
                step = bits(_STEP_BITS)
                while step >= _N_STEPS:
                    step = bits(_STEP_BITS)
                child[j] = min(m - 1, max(0, child[j] + MUTATION_STEPS[step]))
        offspring_rows.append(child)

    # elitism: the incumbent re-enters first, a free cache hit; the
    # offspring drop every evaluated vector, the incumbent's included
    return Proposal(([elite.design] + fresh(space, offspring_rows, view.seen))[:n])
