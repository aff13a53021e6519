"""Golden picks: the design ids every method proposes on fixed cases.

Each case is a seeded space and history. The histories hold records
outside the space (an active value off its list or off the grid, a pin
not matched), failed records and repeated designs, so each method's
dedup against the history, its reading of observations and its RNG use
are pinned. The digests were recorded before the proposers shared one
index view of the history; a refactor of the proposers must leave every
pick unchanged.
"""

import hashlib
import json
import random

import pytest

from sizerforge.core import SIM_FAILED, SIM_OK, EvaluatedDesign, History, design_from
from sizerforge.errors import InsufficientHistory
from sizerforge.optim.pool import METHODS, MethodConfig, propose
from sizerforge.space import SearchSpace

from conftest import W_GRID

OFF_GRID = 2.73
VARIABLES = ("W_a", "W_b", "W_c", "W_d", "W_e")


def _space(active_lists, fixed):
    return SearchSpace(
        active={v: tuple(W_GRID[i] for i in idx) for v, idx in active_lists.items()},
        fixed={v: W_GRID[i] for v, i in fixed.items()},
        full_grid={v: W_GRID for v in VARIABLES},
    )


SPACES = {
    # 5 x 4 x 6 = 120 points: Bayesian enumerates the grid
    "small": _space({"W_a": (0, 2, 4, 6, 8), "W_b": (1, 3, 5, 7), "W_c": (2, 3, 4, 5, 6, 7)},
                    {"W_d": 4, "W_e": 0}),
    # 9^5 = 59049 points: Bayesian draws random candidates
    "full": _space({v: range(9) for v in VARIABLES}, {}),
    # 2 x 3 = 6 points, mostly evaluated: methods run out of candidates
    "tiny": _space({"W_b": (3, 4), "W_c": (0, 1, 2)}, {"W_a": 8, "W_d": 2, "W_e": 5}),
}


def _fom(assignment):
    x = [assignment[v] for v in VARIABLES]
    return round(1.0 + x[0] * x[1] - (x[2] - 1.6) ** 2 + 0.3 * x[3] / x[4], 6)


def _history(space, n, seed):
    """n records in batches of 6: in-space points, points off the active
    lists, off a pin or off the grid, failed evaluations and repeats of
    earlier designs."""
    rng = random.Random(seed)
    hist = History()
    for i in range(n):
        kind = rng.random()
        if hist.records and kind < 0.15:
            design = rng.choice(hist.records).design  # repeat
        elif kind < 0.35:
            # mostly off the space, also off the grid at times
            design = design_from({v: rng.choice(W_GRID + (OFF_GRID,)) for v in VARIABLES})
        else:
            assignment = dict(space.fixed)
            assignment.update({v: rng.choice(values) for v, values in space.active.items()})
            design = design_from(assignment)
        failed = rng.random() < 0.15
        hist.append(EvaluatedDesign(
            design=design,
            raw_metrics={},
            normalized={},
            fom=None if failed else _fom(design.assignment),
            feasible=False,
            sim_status=SIM_FAILED if failed else SIM_OK,
            iteration=1 + i // 6,
            method="lhs",
            eval_index=hist.next_eval_index(),
            wall_time=0.0,
        ))
    return hist


HISTORY_SIZES = (0, 3, 14, 40)
SEEDS = (0, 7)

# method -> extra parameter sets tried besides the defaults
PARAMETERS = {
    "genetic": ({"population": 6, "mutation_rate": 0.5, "crossover_rate": 0.3},),
    "bayesian": ({"acquisition_function": "PI"},),
    "adaptive": ({"explore_weight": 0.0, "random_weight": 1.0},),
    "annealing": ({"initial_temperature": 3.0, "cooling_rate": 0.8},),
    "multistart": ({"search_radius": 0}, {"n_starts": 2, "search_radius": 1}),
}

PICK_DIGESTS = {
    "lhs":
        "4b3862b03e2c872dab4f2a0b39b6e66a45c65fc633f9f3ba5d04abfec4a2fedc",
    "genetic":
        "cab30f12d7cb36ca691427849522f8100e7167eb06c6140e07ce6edab645ce03",
    "bayesian":
        "eb1b0604345b40f8f57d41a6ac798fdb881a4c666976771577a8dab12bea5f62",
    "adaptive":
        "cae8b5622cadcb5dda2393d4b0e483c9e24942210a08428f16207fd9347dc1d7",
    "annealing":
        "52042cf33292c1255211de73b77102dcb1da28a5535c16943f1594d3a5eb730a",
    "multistart":
        "59a8c7c965defbd089a33777a800d24805e5d1811a7a03eb4c8a42988f4b4f03",
    "ga_baseline":
        "00430c43c4753aae39be49fab0c71f84130ae347e92bde85722fcc3f1fa0c7ee",
    "bo_baseline":
        "b62744c939307a320686f598a85b1cd0fb1088b4162c8c30a56499bd1626b277",
    "turbo_baseline":
        "c5e7765661e1ff6c1be7bd81146c4c8a5bf625e2337c84d5859d42a8d6e9d22a",
}


def picks(method):
    """Every case's proposal for ``method``: design ids in order, or the
    name of the error a proposer raised on purpose."""
    out = []
    for space_name, space in SPACES.items():
        for n in HISTORY_SIZES:
            history = _history(space, n, seed=n)
            for params in ({},) + PARAMETERS.get(method, ()):
                for seed in SEEDS:
                    config = MethodConfig(method=method, n_samples=8, parameters=params, seed=seed)
                    try:
                        ids = [d.id for d in propose(space, config, history).designs]
                    except InsufficientHistory:
                        ids = "InsufficientHistory"
                    out.append([space_name, n, params, seed, ids])
    return out


def test_every_method_has_a_golden():
    assert set(PICK_DIGESTS) == set(METHODS)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_picks_match_the_golden(method):
    blob = json.dumps(picks(method), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PICK_DIGESTS[method]
