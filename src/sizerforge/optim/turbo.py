"""Trust-region LHS baseline.

One rectangular region on the index grid, centered on the incumbent
best. The region's side length is a fraction of each variable's index
range, doubled (capped at the full range) after an improving batch and
halved otherwise. When the region collapses below one grid step in every
variable, the search restarts from a fresh full-space LHS.

The region state lives outside the proposer so repeated calls stay pure;
the controller's run object owns a TurboState for a turbo baseline, and
its batch step (``_Run.batch``) feeds batch outcomes back via
``TurboState.update``.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import List, Optional, Tuple

from ..core import History, rank_key
from ..space import SearchSpace
from .base import Proposal, materialize, observations, unevaluated
from .sampling import stratified_column

INIT_FRACTION = 0.8
EXPAND_FACTOR = 2.0
SHRINK_FACTOR = 0.5


@dataclasses.dataclass
class TurboState:
    """Mutable trust-region bookkeeping threaded through baseline batches."""

    fraction: float = INIT_FRACTION
    best_fom: Optional[float] = None
    restarts: int = 0

    def update(self, batch_best: Optional[float]) -> bool:
        """Grow on improvement, shrink otherwise. Returns whether it improved."""
        improved = (
            batch_best is not None
            and (self.best_fom is None or batch_best > self.best_fom)
        )
        if improved:
            self.best_fom = batch_best
            self.fraction = min(1.0, self.fraction * EXPAND_FACTOR)
        else:
            self.fraction = self.fraction * SHRINK_FACTOR
        return improved

    def collapsed(self, sizes: List[int]) -> bool:
        """True when no variable's window spans even one grid step."""
        return all(self.fraction * (m - 1) < 1.0 for m in sizes)

    def restart(self) -> None:
        self.fraction = INIT_FRACTION
        self.best_fom = None
        self.restarts += 1


def window_bounds(center: int, m: int, fraction: float) -> Tuple[int, int]:
    """Inclusive index window of width ceil(fraction*(m-1)) containing center.

    The window is shifted, not clipped, at grid edges so its width is
    preserved whenever the grid allows.
    """
    width = min(m - 1, math.ceil(fraction * (m - 1)))
    lo = center - width // 2
    if lo < 0:
        lo = 0
    if lo + width > m - 1:
        lo = (m - 1) - width
    return lo, lo + width


def propose_turbo_baseline(
    space: SearchSpace,
    history: History,
    n_samples: int,
    seed: int,
    state: Optional[TurboState] = None,
) -> Proposal:
    if state is None:
        state = TurboState()
    rng = random.Random(seed)
    sizes = [len(values) for _, values in space.active.items()]

    obs = observations(space, history)
    restarted = False
    if state.collapsed(sizes):
        state.restart()
        restarted = True

    if not obs or restarted:
        windows = [(0, m - 1) for m in sizes]
    else:
        center = max(obs, key=lambda ob: rank_key(ob[0]))[1]
        windows = [
            window_bounds(idx, m, state.fraction) for idx, m in zip(center, sizes)
        ]

    columns = []
    for lo, hi in windows:
        column = stratified_column(hi - lo + 1, n_samples, rng)
        columns.append([lo + idx for idx in column])
    rows = [[col[row] for col in columns] for row in range(n_samples)]
    designs = unevaluated([materialize(space, row) for row in rows], history)
    return Proposal(
        designs=designs,
        method="turbo_baseline",
        diagnostics={
            "fraction": state.fraction,
            "restarted": restarted,
            "windows": [list(w) for w in windows],
        },
    )
