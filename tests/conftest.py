"""Shared fixtures: a synthetic stagnating run used across test modules, a
history whose every simulation failed, and the artefact digest of
``tools/artefact_digests.py``; the proposer tests' space and history
builders; and ``raises_exactly``, for an error that raises a root class
of ``sizerforge.errors`` itself."""

from __future__ import annotations

import contextlib
import importlib.util
import itertools
import os
from pathlib import Path
from unittest import mock

import pytest

from sizerforge.core import Design, EvaluatedDesign, History, design_from
from sizerforge.space import SearchSpace

_TOOL = importlib.util.spec_from_file_location(
    "artefact_digests", Path(__file__).resolve().parents[1] / "tools" / "artefact_digests.py")
_tool = importlib.util.module_from_spec(_TOOL)
with mock.patch.dict(os.environ):  # the tool pins BLAS to one thread on import
    _TOOL.loader.exec_module(_tool)
# the digest of a run's artefacts, as tools/artefact_digests.py takes it
artefact_digest = _tool.digest


@contextlib.contextmanager
def raises_exactly(cls, message=None):
    """``pytest.raises(cls)`` that refuses a subclass of ``cls`` and, given
    ``message``, any other message: an error raised as a root class is
    told from its siblings by its type and its words."""
    with pytest.raises(cls) as caught:
        yield caught
    assert type(caught.value) is cls, f"{type(caught.value).__name__}: {caught.value}"
    if message is not None:
        assert str(caught.value) == message


W_GRID = (0.84, 1.05, 1.26, 1.47, 1.68, 1.89, 2.10, 2.31, 2.52)


def grid_space():
    """The proposer tests' 9 x 9 space: ``W_a`` and ``W_b`` over all of W_GRID."""
    return SearchSpace(
        active={"W_a": W_GRID, "W_b": W_GRID},
        fixed={},
        full_grid={"W_a": W_GRID, "W_b": W_GRID},
        generation=0,
    )


def grid_history(pairs):
    """One lhs batch over ``grid_space``: a record per ``((ia, ib), fom)``,
    ``ia`` and ``ib`` indexing W_GRID."""
    hist = History()
    for (ia, ib), fom in pairs:
        hist.append(
            EvaluatedDesign(
                design=design_from({"W_a": W_GRID[ia], "W_b": W_GRID[ib]}),
                raw_metrics={},
                normalized={},
                fom=fom,
                feasible=False,
                sim_status="ok",
                iteration=1,
                method="lhs",
                eval_index=hist.next_eval_index(),
                wall_time=0.0,
            )
        )
    return hist

# top-10 (W_tail, W_casc) pairs chosen so the marginal counts are
# tail {1.26: 3, 2.10: 3, 2.52: 2, 0.84: 2} and
# casc {1.68: 4, 2.10: 3, 1.26: 2, 2.52: 1}; W_diff/W_load pinned.
TOP_PAIRS = [
    (1.26, 1.68),
    (1.26, 2.10),
    (1.26, 1.26),
    (2.10, 1.68),
    (2.10, 2.10),
    (2.10, 2.52),
    (2.52, 1.68),
    (2.52, 1.26),
    (0.84, 1.68),
    (0.84, 2.10),
]


def _record(hist, assignment, fom, iteration, method, sim_status="ok"):
    design = Design(
        id="d%04d" % (len(hist) + 1),
        assignment=dict(assignment),
    )
    hist.append(
        EvaluatedDesign(
            design=design,
            raw_metrics={"fom": fom} if fom is not None else {},
            normalized={},
            fom=fom,
            feasible=False,
            sim_status=sim_status,
            iteration=iteration,
            method=method,
            eval_index=hist.next_eval_index(),
            wall_time=0.0,
        )
    )


def _space():
    return SearchSpace(
        active={
            "W_tail": W_GRID,
            "W_diff": (0.84, 1.26, 1.68, 2.10),
            "W_casc": (1.26, 1.47, 1.68, 1.89, 2.10, 2.31, 2.52),
            "W_load": (1.68,),
        },
        fixed={},
        full_grid={v: W_GRID for v in ("W_tail", "W_diff", "W_casc", "W_load")},
        generation=1,
    )


def build_stagnation_state():
    """A 4-iteration, 72-design run whose best FoM froze at 0.099.

    The top 10 designs all sit at W_diff's lower edge and fill W_load's
    single-value list, so boundary clustering fires for both variables
    alongside a 3-iteration stagnation flag.
    """
    space = _space()

    top_designs = [
        {"W_tail": tail, "W_diff": 0.84, "W_casc": casc, "W_load": 1.68}
        for tail, casc in TOP_PAIRS
    ]
    top_foms = [0.099 - 0.0002 * i for i in range(10)]

    top_keys = {tuple(sorted(d.items())) for d in top_designs}
    fillers = []
    for tail, diff, casc in itertools.product(W_GRID, (1.26, 1.68), space.active["W_casc"]):
        a = {"W_tail": tail, "W_diff": diff, "W_casc": casc, "W_load": 1.68}
        if tuple(sorted(a.items())) in top_keys:
            continue
        fillers.append(a)
        if len(fillers) == 62:
            break

    hist = History()
    filler_iter = iter(fillers)

    # iteration 1: 25 LHS designs, best exactly 0.095
    for j in range(25):
        _record(hist, next(filler_iter), 0.095 - 0.0001 * j, 1, "lhs")

    # iteration 2: the 0.099 best appears, then stalls for two more rounds
    for fom, a in zip(top_foms[0:4], top_designs[0:4]):
        _record(hist, a, fom, 2, "bayesian")
    for j in range(11):
        _record(hist, next(filler_iter), 0.090 - 0.0001 * j, 2, "bayesian")

    for fom, a in zip(top_foms[4:7], top_designs[4:7]):
        _record(hist, a, fom, 3, "bayesian")
    for j in range(12):
        _record(hist, next(filler_iter), 0.089 - 0.0001 * j, 3, "bayesian")

    for fom, a in zip(top_foms[7:10], top_designs[7:10]):
        _record(hist, a, fom, 4, "annealing")
    for j in range(14):
        _record(hist, next(filler_iter), 0.088 - 0.0001 * j, 4, "annealing")

    return hist, space


@pytest.fixture
def stagnation_state():
    return build_stagnation_state()


@pytest.fixture
def failed_state():
    """Two lhs batches over the stagnating run's space, every simulation
    failed: a history with no valid design."""
    space = _space()
    hist = History()
    for iteration, tail in ((1, 0.84), (1, 1.26), (2, 2.10)):
        _record(hist, {"W_tail": tail, "W_diff": 0.84, "W_casc": 1.68, "W_load": 1.68},
                None, iteration, "lhs", sim_status="sim_failed")
    return hist, space
