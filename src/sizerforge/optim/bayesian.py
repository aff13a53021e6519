"""Bayesian proposals: GP surrogate plus greedy batch acquisition.

Candidates are the full index grid while the space stays at or under
20000 points, otherwise 2000 uniform draws (``candidate_rows``). No
design is built for a candidate until it is picked.

The GP (``gp.GaussianProcess``) takes the observations and the
candidates as index vectors. On the enumerated grid its query points are
the grid itself, never listed: a candidate is its C-order flat index
(``np.ravel_multi_index``), the one convention of both modules, a pick's
index vector is ``GaussianProcess.row``, and a new block column is a
window of the GP's table of correlations by index offset, so no pick
computes a distance. On the random path its query points are the draws
that are not yet evaluated, and a new block column is ``gp.kernel`` of
their index offsets to the pick: the column the enumerated grid's
window would hold, bit for bit.

Batches are picked greedily with a constant-liar update between picks
(the lie is the best observed value), so the batch holds no duplicate.
The GP's jitter is relative to the amplitude, so its factor does not
depend on the targets that the lies change. Each lie is one
``GaussianProcess.add`` of the last pick's position: a rank-one append
to the factor and to the whitened candidate block, one N x n block
product for N candidates and n training points, and O(N) updates of the
running sums that the posterior mean is read from. No pick solves the
whitened targets again. Every pick scores all candidates and masks the
evaluated and the picked ones with -inf; argmax takes the first maximum,
so ties go to the earlier candidate. The proposal carries the picks'
designs in pick order, and none of their scores.

On the enumerated grid the GP is carried from batch to batch in the
history's view (``base.history_view``). It holds the factor over the
last batch's training points, the observations and then its lies, and
the whitened block of every grid point, evaluated or not. The next
batch ``fit``s it to the new observations: it keeps the longest prefix
of those points that the observations repeat, so a lie that came back
as a real record keeps its column, drops the rest and appends the new
records. The whitened targets and the running sums are formed again
once, from the real FoMs. Since a fit that keeps a prefix is a fit from
empty bit for bit, a batch proposes what a GP built from empty over the
same records would: the proposer stays a pure function of space,
history and seed. A new space starts a new view, and so a GP built from
empty. The random draws differ per seed, so that path builds its GP from
empty on each call, over the drawn points.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from ..core import History
from ..errors import InsufficientHistory
from ..space import SearchSpace
from .base import DEFAULT_WEIGHTS, Proposal, history_view, materialize
from .gp import GaussianProcess, acquisition

ENUMERATION_LIMIT = 20_000
FALLBACK_CANDIDATES = 2_000
MIN_OBSERVATIONS = 5


def candidate_rows(space: SearchSpace, rng: random.Random) -> np.ndarray:
    """The candidate index vectors of a space too large to enumerate:
    ``FALLBACK_CANDIDATES`` uniform draws, one per row."""
    sizes = space.sizes()
    return np.array([[rng.randrange(m) for m in sizes] for _ in range(FALLBACK_CANDIDATES)])


def propose_bayesian(
    space: SearchSpace,
    history: History,
    n_samples: int,
    seed: int,
    acquisition_function: str = "EI",
    exploration_weight: Optional[float] = None,
) -> Proposal:
    if acquisition_function not in DEFAULT_WEIGHTS:
        raise ValueError(f"unknown acquisition {acquisition_function!r}")
    weight = (
        exploration_weight
        if exploration_weight is not None
        else DEFAULT_WEIGHTS[acquisition_function]
    )
    view = history_view(space, history)
    if len(view.obs) < MIN_OBSERVATIONS:
        raise InsufficientHistory(
            f"bayesian proposals need >= {MIN_OBSERVATIONS} valid in-space "
            f"evaluations, have {len(view.obs)}"
        )

    rng = random.Random(seed)
    x = np.array([row for _, row in view.obs])
    y = np.array([r.fom for r, _ in view.obs], dtype=float)

    enumerated = space.cardinality() <= ENUMERATION_LIMIT
    if enumerated:
        rows = None
        evaluated = np.ravel_multi_index(np.array(list(view.seen)).T, space.sizes())
        n_candidates = space.cardinality() - len(evaluated)
    else:
        rows = candidate_rows(space, rng)
        rows = rows[[tuple(row) not in view.seen for row in rows.tolist()]]
        evaluated = np.array([], dtype=int)
        n_candidates = len(rows)
    if not n_candidates:
        return Proposal([])

    n_picks = min(n_samples, n_candidates)
    gp = view.gp if enumerated else None
    # put back once the batch is picked, so that a fit that raises
    # leaves no GP behind
    view.gp = None
    if gp is None:
        gp = GaussianProcess(space.sizes(), rows)
    gp.fit(x, y)
    best = float(np.max(y))
    picks: List[int] = []
    for _ in range(n_picks):
        if picks:
            # constant liar: pretend the last pick returned the incumbent best
            gp.add(picks[-1], best)
        mu, sigma = gp.moments()
        scores = acquisition(acquisition_function, mu, sigma, best, weight)
        scores[evaluated] = -np.inf
        scores[picks] = -np.inf
        picks.append(int(np.argmax(scores)))
    if enumerated:
        view.gp = gp

    return Proposal([materialize(space, gp.row(i)) for i in picks])
