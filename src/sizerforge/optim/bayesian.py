"""Bayesian proposals: GP surrogate plus greedy batch acquisition.

Candidates are the full index grid, as an array in the C order of
``itertools.product``, while the space stays at or under 20000 points,
otherwise 2000 uniform draws. Candidates already in the history are
dropped against the evaluated vectors of ``observations``: by C-order
flat index (``ravel_multi_index``) on the enumerated grid, by a set
lookup per row on the random draws. No design is built for a candidate
until it is picked.

Batches are picked greedily with a constant-liar update between picks
(the lie is the best observed value), so the batch holds no duplicate.
The GP is fit once per batch, on the observations: its jitter is
relative to the amplitude, so the factor does not depend on the targets
that the lies change. Each lie is then a rank-one append to the factor
and to the whitened candidate block (``gp.Posterior``), O(N n) for N
candidates and n training points, and a refit only when the append's
pivot is lost to rounding and the jitter must escalate. Every pick
scores all candidates and masks the ones already picked with -inf;
argmax takes the first maximum, so ties go to the earlier candidate.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import History
from ..errors import InsufficientHistory
from ..space import SearchSpace
from .base import Proposal, materialize, observations
from .gp import ACQUISITIONS, GaussianProcess, Posterior, acquisition

ENUMERATION_LIMIT = 20_000
FALLBACK_CANDIDATES = 2_000
MIN_OBSERVATIONS = 5

_DEFAULT_WEIGHT = {"EI": 0.2, "PI": 0.2, "UCB": 2.0, "LCB": 2.0}


def normalize_rows(space: SearchSpace, rows: Sequence[Sequence[int]]) -> np.ndarray:
    out = np.asarray(rows, dtype=float)
    for j, m in enumerate(space.sizes()):
        out[:, j] = out[:, j] / (m - 1) if m > 1 else 0.0
    return out


def candidate_rows(space: SearchSpace, rng: random.Random) -> np.ndarray:
    """Candidate index vectors over the active lists, one per row."""
    sizes = space.sizes()
    if space.cardinality() <= ENUMERATION_LIMIT:
        # row i is the index vector whose mixed-radix flat index is i
        return np.indices(sizes).reshape(len(sizes), space.cardinality()).T
    return np.array([[rng.randrange(m) for m in sizes] for _ in range(FALLBACK_CANDIDATES)])


def _unseen(space: SearchSpace, rows: np.ndarray, seen: Set[Tuple[int, ...]]) -> np.ndarray:
    """Mask of the candidate rows not in ``seen``."""
    if space.cardinality() > ENUMERATION_LIMIT:
        return np.array([tuple(row) not in seen for row in rows.tolist()], dtype=bool)
    keep = np.ones(len(rows), dtype=bool)
    if seen:
        keep[np.ravel_multi_index(np.array(list(seen)).T, space.sizes())] = False
    return keep


def propose_bayesian(
    space: SearchSpace,
    history: History,
    n_samples: int,
    seed: int,
    acquisition_function: str = "EI",
    exploration_weight: Optional[float] = None,
) -> Proposal:
    if acquisition_function not in ACQUISITIONS:
        raise ValueError(f"unknown acquisition {acquisition_function!r}")
    weight = (
        exploration_weight
        if exploration_weight is not None
        else _DEFAULT_WEIGHT[acquisition_function]
    )
    obs, seen = observations(space, history)
    if len(obs) < MIN_OBSERVATIONS:
        raise InsufficientHistory(
            f"bayesian proposals need >= {MIN_OBSERVATIONS} valid in-space "
            f"evaluations, have {len(obs)}"
        )

    rng = random.Random(seed)
    x = normalize_rows(space, [row for _, row in obs])
    y = np.array([r.fom for r, _ in obs], dtype=float)

    rows = candidate_rows(space, rng)
    rows = rows[_unseen(space, rows, seen)]
    if not len(rows):
        return Proposal(designs=[], diagnostics={"note": "no unevaluated candidates"})
    cand = normalize_rows(space, rows)

    n_picks = min(n_samples, len(rows))
    best = float(np.max(y))
    posterior = Posterior(GaussianProcess(), cand, x, y, spare=n_picks - 1)
    picks: List[int] = []
    acq_values: List[float] = []
    for _ in range(n_picks):
        if picks:
            # constant liar: pretend the last pick returned the incumbent best
            posterior.add(picks[-1], best)
        mu, sigma = posterior.moments()
        scores = acquisition(acquisition_function, mu, sigma, best, weight)
        scores[picks] = -np.inf
        chosen = int(np.argmax(scores))
        picks.append(chosen)
        acq_values.append(float(scores[chosen]))

    return Proposal(
        designs=[materialize(space, rows[i]) for i in picks],
        diagnostics={
            "acquisition": acquisition_function,
            "weight": weight,
            "acquisition_values": acq_values,
            "n_candidates": len(rows),
        },
    )
