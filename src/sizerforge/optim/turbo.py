"""Trust-region LHS baseline.

One rectangular region on the index grid, centered on the incumbent
best. The region's side length is a fraction of each variable's index
range, doubled (capped at the full range) after a batch whose best FoM
beats the incumbent and halved otherwise; a tie is no improvement. When
the region collapses below one grid step in every variable, the search
restarts from a fresh full-space LHS and forgets the incumbent.

The proposer keeps no state: ``trust_region`` replays this schedule over
the history's batches, every one of which a turbo run proposed, so each
call is a pure function of the space and the history like every other
proposer's. Its proposal carries the designs and, on a batch that
restarts, the fraction it restarts at (``Proposal.restart``, always
``INIT_FRACTION``), which the controller logs as ``turbo_restart``.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from ..core import History
from ..space import SearchSpace
from .base import Proposal, fresh, history_view
from .sampling import lhs_index_rows

INIT_FRACTION = 0.8
EXPAND_FACTOR = 2.0
SHRINK_FACTOR = 0.5


def _collapsed(fraction: float, sizes: List[int]) -> bool:
    """True when no variable's window spans even one grid step."""
    return all(fraction * (m - 1) < 1.0 for m in sizes)


def trust_region(history: History, sizes: List[int]) -> Tuple[float, bool]:
    """The region's fraction for the next batch, and whether it restarts there.

    Replays the schedule over the history's batches: before each batch a
    collapsed region restarts, and after it the fraction doubles (capped
    at 1) when the batch's best FoM beats the incumbent's, else halves.
    """
    fraction, best = INIT_FRACTION, None
    for batch in history.batches():
        if _collapsed(fraction, sizes):
            fraction, best = INIT_FRACTION, None
        batch_best = max((r.fom for r in batch if r.fom is not None), default=None)
        if batch_best is not None and (best is None or batch_best > best):
            fraction, best = min(1.0, fraction * EXPAND_FACTOR), batch_best
        else:
            fraction *= SHRINK_FACTOR
    if _collapsed(fraction, sizes):
        return INIT_FRACTION, True
    return fraction, False


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
    space: SearchSpace, history: History, n_samples: int, seed: int
) -> Proposal:
    rng = random.Random(seed)
    sizes = space.sizes()
    fraction, restarted = trust_region(history, sizes)

    view = history_view(space, history)
    if view.incumbent is None or restarted:
        windows = [(0, m - 1) for m in sizes]
    else:
        center = view.incumbent[1]
        windows = [
            window_bounds(idx, m, fraction) for idx, m in zip(center, sizes)
        ]

    rows = lhs_index_rows(space, n_samples, rng, windows)
    return Proposal(fresh(space, rows, view.seen), restart=fraction if restarted else None)
