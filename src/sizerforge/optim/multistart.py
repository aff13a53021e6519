"""Multi-start local enumeration.

Starts are the best distinct evaluated designs, padded with LHS rows
when history is thin. Each start owns its L-infinity index neighborhood;
candidates are interleaved round-robin across starts so every start gets
a fair share of the batch after dedup and truncation.

The degenerate radius-0 call returns the starts themselves verbatim (an
explicit resample; the cache serves evaluated starts for free). The
proposal carries the designs only; the padding rows are those of
``lhs_index_rows`` under the same seed.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Tuple

from ..core import History, rank_key
from ..space import SearchSpace
from .base import Proposal, history_view, materialize
from .sampling import lhs_index_rows

DEFAULT_N_STARTS = 5
DEFAULT_RADIUS = 2


def neighborhood_rows(row: Tuple[int, ...], sizes: List[int], radius: int):
    """All index vectors within L-infinity ``radius``, lexicographic order."""
    windows = [
        range(max(0, idx - radius), min(m - 1, idx + radius) + 1)
        for idx, m in zip(row, sizes)
    ]
    return itertools.product(*windows)


def propose_multistart(
    space: SearchSpace,
    history: History,
    n_samples: int,
    seed: int,
    n_starts: int = DEFAULT_N_STARTS,
    search_radius: int = DEFAULT_RADIUS,
) -> Proposal:
    rng = random.Random(seed)
    sizes = space.sizes()
    view = history_view(space, history)
    # every evaluated vector, then every one chosen
    seen = set(view.seen)
    ranked = sorted(view.obs, key=lambda ob: rank_key(ob[0]), reverse=True)
    # the distinct vectors, best first
    starts = list(dict.fromkeys(tuple(row) for _, row in ranked))[:n_starts]
    if len(starts) < n_starts:
        starts.extend(tuple(row) for row in lhs_index_rows(space, n_starts - len(starts), rng))

    if search_radius == 0:
        return Proposal([materialize(space, row) for row in starts[:n_samples]])

    iterators = [neighborhood_rows(row, sizes, search_radius) for row in starts]
    chosen: List[Tuple[int, ...]] = []
    active = list(range(len(iterators)))
    while active and len(chosen) < n_samples:
        # round-robin truncation keeps the batch balanced across starts
        for slot in list(active):
            try:
                row = next(iterators[slot])
            except StopIteration:
                active.remove(slot)
                continue
            if row in seen:
                continue
            seen.add(row)
            chosen.append(row)
            if len(chosen) == n_samples:
                break

    return Proposal([materialize(space, row) for row in chosen])
