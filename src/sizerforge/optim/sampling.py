"""Latin hypercube sampling on the discrete index grid.

Stratification is per variable: with n samples over a window of m
values, every value index of the window appears floor(n/m) or ceil(n/m)
times in that variable's column. The window is the whole active list
unless a caller narrows it (the trust-region baseline). Columns are
built as shuffled multisets, so the joint sample is seed-deterministic.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..core import History
from ..space import SearchSpace
from .base import Proposal, fresh, history_view


def stratified_column(m: int, n: int, rng: random.Random) -> List[int]:
    """n index draws over m values with per-value counts in {floor, ceil}."""
    base, extra = divmod(n, m)
    column = []
    for idx in range(m):
        column.extend([idx] * base)
    if extra:
        column.extend(rng.sample(range(m), extra))
    rng.shuffle(column)
    return column


def lhs_index_rows(space: SearchSpace, n: int, rng: random.Random,
                   windows: Optional[Sequence[Tuple[int, int]]] = None) -> List[List[int]]:
    """n stratified index vectors; each variable's column covers its
    inclusive index window ``(lo, hi)``, the whole active list by default."""
    windows = windows or [(0, m - 1) for m in space.sizes()]
    columns = [[lo + idx for idx in stratified_column(hi - lo + 1, n, rng)] for lo, hi in windows]
    return [[col[row] for col in columns] for row in range(n)]


def propose_lhs(space: SearchSpace, history: History, n_samples: int, seed: int) -> Proposal:
    rng = random.Random(seed)
    rows = lhs_index_rows(space, n_samples, rng)
    seen = history_view(space, history).seen
    return Proposal(fresh(space, rows, seen))
