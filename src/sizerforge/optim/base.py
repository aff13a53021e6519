"""Shared plumbing for the proposal methods.

All methods work in per-variable index coordinates over the active value
lists, which keeps every proposal grid-valid by construction. Fixed
variables are attached at materialization time so a Design always covers
the full variable set.

Every proposer takes ``(space, history, n_samples, seed, **params)``
and is a pure function of them; none keeps state between calls.
``observations`` is every proposer's one view of the history, built in
one pass that checks each record against the space: the valid records
inside the space with their index vectors, in history order, for the
methods that learn from the history (they rank records by
``core.rank_key``), and the set of index vectors of every record inside
the space, failed ones included. A record outside the space cannot
share a design with a candidate, so a candidate is evaluated exactly
when its vector is in that set. Every proposer drops candidates by
vector (``fresh``, or the set itself where a proposer stops once its
batch is full) before it builds a design. A method resubmits an
evaluated design only deliberately (GA elitism, degenerate multistart),
and the evaluation cache serves those for free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..core import Design, EvaluatedDesign, History, design_from, is_valid
from ..space import SearchSpace, index_rows


@dataclass
class Proposal:
    designs: List[Design]
    diagnostics: Dict[str, object] = field(default_factory=dict)


def materialize(space: SearchSpace, indices: Sequence[int]) -> Design:
    """Index vector over the active lists -> full Design (fixed pins included)."""
    assignment = dict(space.fixed)
    for (var, values), idx in zip(space.active.items(), indices):
        assignment[var] = values[idx]
    return design_from(assignment)


def observations(
    space: SearchSpace, history: History
) -> Tuple[List[Tuple[EvaluatedDesign, List[int]]], Set[Tuple[int, ...]]]:
    """(record, index vector) of each valid record inside the space, in
    history order, and the vectors of every record inside the space."""
    records = history.records
    obs, seen = [], set()
    for record, row in zip(records, index_rows(space, (r.design for r in records))):
        if row is not None:
            seen.add(tuple(row))
            if is_valid(record):
                obs.append((record, row))
    return obs, seen


def fresh(space: SearchSpace, rows: Sequence[Sequence[int]],
          seen: Set[Tuple[int, ...]]) -> List[Design]:
    """The designs of the rows not in ``seen``, in order."""
    return [materialize(space, row) for row in rows if tuple(row) not in seen]


def uniform_indices(space: SearchSpace, rng: random.Random) -> List[int]:
    return [rng.randrange(m) for m in space.sizes()]
