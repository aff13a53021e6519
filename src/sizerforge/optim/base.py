"""Shared plumbing for the proposal methods.

All methods work in per-variable index coordinates over the active value
lists, which keeps every proposal grid-valid by construction. Fixed
variables are attached at materialization time so a Design always covers
the full variable set.

Every proposer takes ``(space, history, n_samples, seed, **params)``
and drops designs the history already holds (``unevaluated``, or the
same ``History.contains_design`` test inline where a proposer stops once
its batch is full). A method resubmits an evaluated design only
deliberately (GA elitism, degenerate multistart), and the evaluation
cache serves those for free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core import Design, EvaluatedDesign, History, design_from
from ..space import SearchSpace, sample_validate


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


def indices_of(space: SearchSpace, design: Design) -> Optional[List[int]]:
    """Inverse of materialize; None when the design is outside the space."""
    if not sample_validate(space, design):
        return None
    out = []
    for var, values in space.active.items():
        out.append(values.index(design.assignment[var]))
    return out


def in_space_valid(history: History, space: SearchSpace) -> List[EvaluatedDesign]:
    """Valid records whose designs live inside the current space."""
    return [r for r in history.valid_records() if sample_validate(space, r.design)]


def unevaluated(designs: Sequence[Design], history: History) -> List[Design]:
    """The designs the history holds no record of, in order."""
    return [d for d in designs if not history.contains_design(d.id)]


def uniform_indices(space: SearchSpace, rng: random.Random) -> List[int]:
    return [rng.randrange(len(values)) for _, values in space.active.items()]


def best_record(records: Sequence[EvaluatedDesign]) -> Optional[EvaluatedDesign]:
    """Highest figure of merit, earliest eval index on ties."""
    best = None
    for r in records:
        if r.fom is None:
            continue
        if best is None or r.fom > best.fom:
            best = r
    return best
