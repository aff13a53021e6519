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
The GP is refit on the observations plus the lies before every pick:
a lie changes the target variance and with it the kernel amplitude, so
a refit is the exact posterior where a one-row factor update is not.
The unscaled correlation of the candidates to the training points does
not change between picks, so each batch keeps it in one column-major
buffer, computed once for the observations, and appends one column per
lie; the columns of the current fit are then one contiguous block,
which the GP's triangular solve takes without a copy. Every pick scores
all candidates and masks the ones already picked with -inf; argmax
takes the first maximum, so ties go to the earlier candidate.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import History
from ..errors import InsufficientHistory
from ..space import SearchSpace
from .base import Proposal, materialize, observations
from .gp import ACQUISITIONS, GaussianProcess, acquisition, correlation

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
    gp = GaussianProcess()
    # correlation of every candidate to the observations, then to each
    # lie; column-major, so the first n columns are one contiguous block
    corr = np.empty((len(rows), len(x) + n_picks), order="F")
    corr[:, : len(x)] = correlation(cand, x, gp.length_scale)
    best = float(np.max(y))
    picks: List[int] = []
    acq_values: List[float] = []
    x_fit, y_fit = x, y
    for _ in range(n_picks):
        gp.fit(x_fit, y_fit)
        mu, sigma = gp.posterior(corr[:, : len(x_fit)])
        scores = acquisition(acquisition_function, mu, sigma, best, weight)
        scores[picks] = -np.inf
        chosen = int(np.argmax(scores))
        picks.append(chosen)
        acq_values.append(float(scores[chosen]))
        # constant liar: pretend the pick returned the incumbent best
        lie = cand[chosen : chosen + 1]
        corr[:, len(x_fit)] = correlation(cand, lie, gp.length_scale)[:, 0]
        x_fit = np.vstack([x_fit, lie])
        y_fit = np.append(y_fit, best)

    return Proposal(
        designs=[materialize(space, rows[i]) for i in picks],
        diagnostics={
            "acquisition": acquisition_function,
            "weight": weight,
            "acquisition_values": acq_values,
            "n_candidates": len(rows),
        },
    )
