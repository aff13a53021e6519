"""Latin hypercube sampling on the discrete index grid.

Stratification is per variable: with n samples over m values, every
value index appears floor(n/m) or ceil(n/m) times in that variable's
column. Columns are built as shuffled multisets, so the joint sample is
seed-deterministic.
"""

from __future__ import annotations

import random
from typing import List

from ..core import History
from ..space import SearchSpace
from .base import Proposal, materialize, unevaluated


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


def lhs_index_rows(space: SearchSpace, n: int, rng: random.Random) -> List[List[int]]:
    columns = [
        stratified_column(len(values), n, rng) for _, values in space.active.items()
    ]
    return [[col[row] for col in columns] for row in range(n)]


def propose_lhs(space: SearchSpace, history: History, n_samples: int, seed: int) -> Proposal:
    rng = random.Random(seed)
    rows = lhs_index_rows(space, n_samples, rng)
    designs = unevaluated([materialize(space, row) for row in rows], history)
    return Proposal(designs=designs, method="lhs", diagnostics={"requested": n_samples})
