"""Latin hypercube proposals: stratification counts and dedupe."""

import random
from collections import Counter

from sizerforge.core import EvaluatedDesign, History
from sizerforge.optim.sampling import lhs_index_rows, propose_lhs, stratified_column
from sizerforge.space import SearchSpace

from conftest import W_GRID


def _space():
    return SearchSpace(
        active={"W_a": W_GRID, "W_b": W_GRID[:4]},
        fixed={},
        full_grid={"W_a": W_GRID, "W_b": W_GRID},
        generation=0,
    )


def _note(hist, design, fom):
    hist.append(
        EvaluatedDesign(
            design=design,
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


def test_stratified_column_counts_exact_multiple():
    rng = random.Random(3)
    column = stratified_column(9, 18, rng)
    assert Counter(column) == {i: 2 for i in range(9)}


def test_stratified_column_counts_floor_or_ceil():
    rng = random.Random(3)
    for m, n in ((9, 20), (4, 7), (5, 3), (3, 10)):
        counts = Counter(stratified_column(m, n, rng))
        base = n // m
        assert sum(counts.values()) == n
        for idx in range(m):
            assert counts.get(idx, 0) in (base, base + 1)
        # the "extra" draws never repeat a value
        assert sum(1 for c in counts.values() if c == base + 1) == n % m


def test_lhs_rows_stratify_every_column():
    space = _space()
    rows = lhs_index_rows(space, 36, random.Random(11))
    col_a = Counter(row[0] for row in rows)
    col_b = Counter(row[1] for row in rows)
    assert col_a == {i: 4 for i in range(9)}
    assert col_b == {i: 9 for i in range(4)}


def test_propose_lhs_designs_live_in_space():
    space = _space()
    proposal = propose_lhs(space, History(), 12, seed=5)
    assert len(proposal.designs) == 12
    for d in proposal.designs:
        assert d.assignment["W_a"] in W_GRID
        assert d.assignment["W_b"] in W_GRID[:4]


def test_propose_lhs_drops_already_evaluated():
    space = _space()
    first = propose_lhs(space, History(), 10, seed=7)
    hist = History()
    for d in first.designs:
        _note(hist, d, 0.5)
    again = propose_lhs(space, hist, 10, seed=7)
    assert not set(d.id for d in again.designs) & set(d.id for d in first.designs)
