"""Simulated annealing over single-variable index moves.

The chain needs an objective value for points nobody has simulated yet.
The proxy is deliberately simple and documented: the figure of merit of
the nearest evaluated in-space neighbor (L1 distance on index
coordinates, earliest evaluation on ties), zero when nothing has been
evaluated. The batch emitted for real evaluation is the sequence of
unique accepted designs the chain visits that the history does not hold,
and the proposal carries only that batch.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

from ..core import History
from ..space import SearchSpace
from .base import Proposal, history_view, materialize, uniform_indices

DEFAULT_T0 = 2.0
DEFAULT_COOLING = 0.95
MAX_STEPS_PER_SAMPLE = 60


def metropolis_accept(delta: float, temperature: float, rng: random.Random) -> bool:
    """Accept an improving move always, a worsening one with exp(delta/T)."""
    if delta >= 0:
        return True
    if temperature <= 0:
        return False
    threshold = math.exp(delta / temperature)
    return rng.random() < threshold


class _NeighborProxy:
    """fom lookup with nearest-evaluated-neighbor fallback."""

    def __init__(self, obs):
        self.exact: Dict[Tuple[int, ...], float] = {}
        for r, row in obs:
            self.exact.setdefault(tuple(row), r.fom)

    def value(self, row: Tuple[int, ...]) -> float:
        if row in self.exact:
            return self.exact[row]
        if not self.exact:
            return 0.0
        best_dist = None
        best_fom = 0.0
        for known, fom in self.exact.items():
            dist = sum(abs(a - b) for a, b in zip(known, row))
            if best_dist is None or dist < best_dist:
                best_dist = dist
                best_fom = fom
        return best_fom


def propose_annealing(
    space: SearchSpace,
    history: History,
    n_samples: int,
    seed: int,
    initial_temperature: float = DEFAULT_T0,
    cooling_rate: float = DEFAULT_COOLING,
) -> Proposal:
    rng = random.Random(seed)
    sizes = space.sizes()
    view = history_view(space, history)
    proxy = _NeighborProxy(view.obs)
    # every evaluated vector, then every one visited
    seen = set(view.seen)

    if view.incumbent is not None:
        current = tuple(view.incumbent[1])
    else:
        current = tuple(uniform_indices(space, rng))

    temperature = initial_temperature
    batch: List[Tuple[int, ...]] = []
    steps = 0
    max_steps = MAX_STEPS_PER_SAMPLE * max(1, n_samples)
    while len(batch) < n_samples and steps < max_steps:
        steps += 1
        var = rng.randrange(len(sizes))
        direction = rng.choice((-1, 1))
        candidate = list(current)
        candidate[var] = min(sizes[var] - 1, max(0, candidate[var] + direction))
        candidate = tuple(candidate)
        if candidate != current:
            delta = proxy.value(candidate) - proxy.value(current)
            if metropolis_accept(delta, temperature, rng):
                current = candidate
                if candidate not in seen:
                    seen.add(candidate)
                    batch.append(candidate)
        temperature *= cooling_rate

    return Proposal([materialize(space, row) for row in batch])
