"""Shared plumbing for the proposal methods.

All methods work in index vectors, one index per active variable into
its value list, which keeps every proposal grid-valid by construction. Fixed
variables are attached at materialization time so a Design always covers
the full variable set. A space formats the id fragment of each of its
values once (``SearchSpace.id_table``), so ``materialize`` only picks,
joins and hashes them.

Every proposer takes ``(space, history, n_samples, seed, **params)``
and is a pure function of them. It returns a ``Proposal``: the designs
to evaluate, in order, and of how they were found only the one fact the
controller acts on, the fraction a trust region restarted at, which it
logs as ``turbo_restart``. Each reads the history only through one
view of it (``history_view``), built in one pass that checks each
record against the space: the valid records inside the space with
their index vectors, in history order; the incumbent among them, the
best by ``core.rank_key``; and the set of index vectors of every record
inside the space, failed ones included. A record outside the space
cannot share a design with a candidate, so a candidate is evaluated
exactly when its vector is in that set. Every proposer drops candidates
by vector (``fresh``, or a copy of the set where a proposer adds the
vectors it takes) before it builds a design. A method resubmits an
evaluated design only deliberately (GA elitism, degenerate multistart),
and the evaluation cache serves those for free.

The view is memoized on the history and keyed by the space, so every
proposer of a run shares it and it is read-only to them: only
``history_view`` writes it, extending it by the records appended since
the last call, and only the Bayesian proposer replaces its GP, which it
carries over the enumerated grid from batch to batch
(``bayesian.propose_bayesian``). A history keeps the view of one space:
another space, or records that do not extend the ones the view has
seen, start a new view, so the old one and its GP are released.
Whether the records extend the view is an O(1) check that relies on
the history being append-only (``core.History``): the view keeps only
how many records it has indexed and the last of them, and the history
extends it when it is no shorter and that record is still in its place.
A history whose records were rewritten in place short of the last seen
one breaks that contract. The memo is a cache, not state: a fresh
history holding the same records proposes the same designs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..core import Design, EvaluatedDesign, History, design_id, is_valid, rank_key
from ..space import SearchSpace, index_rows

# each Bayesian acquisition and its default exploration weight, here so
# that ``pool`` checks a name without numpy
DEFAULT_WEIGHTS = {"EI": 0.2, "UCB": 2.0, "PI": 0.2}
ACQUISITIONS = tuple(DEFAULT_WEIGHTS)


@dataclass
class Proposal:
    designs: List[Design]
    # the fraction a trust region restarted at for this batch, else None
    restart: Optional[float] = None


def materialize(space: SearchSpace, indices: Sequence[int]) -> Design:
    """Index vector over the active lists -> full Design (fixed pins
    included, first): the id joins the fragments the space formatted
    once, so it is ``design_from``'s id of the same assignment."""
    row = (*indices, 0)
    assignment = dict(space.fixed)
    for (var, values), idx in zip(space.active.items(), row):
        assignment[var] = values[idx]
    return Design(assignment, design_id([fragments[row[k]] for k, fragments in space.id_table]))


class HistoryView:
    """A history's records over one space, indexed once each; read-only
    to the proposers."""

    def __init__(self, space: SearchSpace):
        self.key = _space_key(space)
        # how many of the history's records the view has indexed, and the
        # last of them
        self.count = 0
        self.last: Optional[EvaluatedDesign] = None
        # (record, index vector) of each valid record inside the space, in
        # history order, and the best of them by ``rank_key``
        self.obs: List[Tuple[EvaluatedDesign, List[int]]] = []
        self.incumbent: Optional[Tuple[EvaluatedDesign, List[int]]] = None
        # the index vectors of every record inside the space
        self.seen: Set[Tuple[int, ...]] = set()
        # the Bayesian proposer's GP over the enumerated grid, as its last
        # batch left it (``bayesian.propose_bayesian``)
        self.gp = None


def _space_key(space: SearchSpace) -> tuple:
    """What ``index_rows`` reads of a space, and so what the view's index
    vectors and its GP's grid depend on."""
    return tuple(space.active.items()), tuple(space.fixed.items()), tuple(space.full_grid)


def history_view(space: SearchSpace, history: History) -> HistoryView:
    """The history's view over the space, extended by the records
    appended since the last call.

    The history is append-only, so it extends the view's records exactly
    when it holds at least as many and the last record the view indexed
    is still in its place."""
    view, records = history.view, history.records
    if (view is None or view.key != _space_key(space) or len(records) < view.count
            or (view.count and records[view.count - 1] is not view.last)):
        view = history.view = HistoryView(space)
    new = records[view.count:]
    for record, row in zip(new, index_rows(space, (r.design for r in new))):
        if row is not None:
            view.seen.add(tuple(row))
            if is_valid(record):
                view.obs.append((record, row))
                if view.incumbent is None or rank_key(record) > rank_key(view.incumbent[0]):
                    view.incumbent = (record, row)
    if new:
        view.count, view.last = len(records), records[-1]
    return view


def fresh(space: SearchSpace, rows: Sequence[Sequence[int]],
          seen: Set[Tuple[int, ...]]) -> List[Design]:
    """The designs of the rows not in ``seen``, in order."""
    return [materialize(space, row) for row in rows if tuple(row) not in seen]


def uniform_indices(space: SearchSpace, rng: random.Random) -> List[int]:
    return [rng.randrange(m) for m in space.sizes()]
