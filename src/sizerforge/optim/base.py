"""Shared plumbing for the proposal methods.

All methods work in per-variable index coordinates over the active value
lists, which keeps every proposal grid-valid by construction. Fixed
variables are attached at materialization time so a Design always covers
the full variable set.

Every proposer takes ``(space, history, n_samples, seed, **params)``
and is a pure function of them; none keeps state between calls.
The methods that learn from the history read ``observations``: each
valid record inside the space with its index vector, in history order,
checked against the space once per call. They rank records by
``core.rank_key``. Every proposer drops designs the history already
holds (``unevaluated``, or the same ``History.contains_design`` test
inline where a proposer stops once its batch is full). A method
resubmits an evaluated design only deliberately (GA elitism, degenerate
multistart), and the evaluation cache serves those for free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core import Design, EvaluatedDesign, History, design_from
from ..space import SearchSpace, index_rows


@dataclass
class Proposal:
    designs: List[Design]
    method: str
    diagnostics: Dict[str, object] = field(default_factory=dict)


def materialize(space: SearchSpace, indices: Sequence[int]) -> Design:
    """Index vector over the active lists -> full Design (fixed pins included)."""
    assignment = dict(space.fixed)
    for (var, values), idx in zip(space.active.items(), indices):
        assignment[var] = values[idx]
    return design_from(assignment)


def observations(space: SearchSpace, history: History) -> List[Tuple[EvaluatedDesign, List[int]]]:
    """(record, index vector) of each valid record inside the space, in history order."""
    valid = history.valid_records()
    rows = index_rows(space, (r.design for r in valid))
    return [(r, row) for r, row in zip(valid, rows) if row is not None]


def unevaluated(designs: Sequence[Design], history: History) -> List[Design]:
    """The designs the history holds no record of, in order."""
    return [d for d in designs if not history.contains_design(d.id)]


def uniform_indices(space: SearchSpace, rng: random.Random) -> List[int]:
    return [rng.randrange(len(values)) for _, values in space.active.items()]
