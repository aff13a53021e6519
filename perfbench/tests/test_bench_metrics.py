"""Metric arithmetic of the benchmark, on hand-built histories.

Run from the repo root: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from sizerforge import controller  # noqa: E402
from sizerforge.core import EvaluatedDesign, History, SIM_FAILED, SIM_OK, design_from  # noqa: E402
from sizerforge.evaluation import ResultCache  # noqa: E402
from sizerforge.optim.gp import GaussianProcess  # noqa: E402

import metrics as m  # noqa: E402
from tracing import Tracer  # noqa: E402

def record(i, a, fom, feasible=False, cached=False, status=SIM_OK):
    return EvaluatedDesign(
        design=design_from({"a": a}), raw_metrics={}, normalized={},
        fom=fom if status == SIM_OK else None, feasible=feasible and status == SIM_OK,
        sim_status=status, iteration=1, method="lhs", eval_index=i, wall_time=0.0,
        cached=cached,
    )


def history(*records):
    h = History()
    h.append_batch(records)
    return h


def test_reported_design_prefers_best_feasible_then_earliest():
    h = history(
        record(1, 1.0, fom=3.0),                 # infeasible, highest fom
        record(2, 2.0, fom=1.44, feasible=True),
        record(3, 3.0, fom=1.44, feasible=True),  # tie: the earlier wins
        record(4, 4.0, fom=None, status=SIM_FAILED),
    )
    best = h.records[0]
    assert m.reported_design(h, best).eval_index == 2
    only_infeasible = history(record(1, 1.0, fom=3.0))
    assert m.reported_design(only_infeasible, only_infeasible.records[0]).eval_index == 1


def test_evals_to_feasible_counts_fresh_records_only():
    h = history(
        record(1, 1.0, fom=0.5),
        record(2, 1.0, fom=0.5, cached=True),
        record(3, 2.0, fom=0.5),
        record(4, 3.0, fom=1.44, feasible=True),
    )
    assert m.evals_to_feasible(h, budget=10) == 3


def test_evals_to_feasible_censors_at_budget_plus_one():
    h = history(record(1, 1.0, fom=0.5), record(2, 2.0, fom=0.5))
    assert m.evals_to_feasible(h, budget=300) == 301
    assert m.evals_to_feasible(History(), budget=40) == 41


def test_oracle_gap_and_a_missing_design_counts_100():
    assert m.gap_pct(10.0, 9.0) == pytest.approx(10.0)
    assert m.gap_pct(-4.0, -5.0) == pytest.approx(25.0)
    assert m.gap_pct(10.0, 10.0) == 0.0
    assert m.gap_pct(10.0, None) == 100.0


def test_useful_frac():
    assert m.useful_frac(45, 60) == 0.75
    assert m.useful_frac(0, 0) == 0.0


def test_self_time_subtracts_the_union_of_children():
    assert m.self_time(0.0, 10.0, []) == 10.0
    assert m.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # overlapping and nested children are not counted twice
    assert m.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 3.0), (3.0, 5.0)]) == 6.0
    # parts outside the span are clipped
    assert m.self_time(2.0, 10.0, [(0.0, 4.0), (9.0, 12.0)]) == 5.0


def test_tracer_self_time_excludes_wrapped_children():
    tracer = Tracer()

    def child():
        with tracer.span("child"):
            pass

    def trial():
        child()
        child()

    tracer.trial(trial)
    assert tracer.counts["child"] == 2
    wall = tracer.seconds["trial"]
    self_s = tracer.seconds["controller.self"]
    assert 0 < self_s <= wall - tracer.seconds["child"]
    assert self_s == pytest.approx(wall - tracer.seconds["child"], abs=1e-3)


def test_tracer_restores_every_rebound_name():
    before = (controller.propose, controller.evaluate_batch, controller.analyze,
              controller.render_text, GaussianProcess.__dict__["fit"],
              ResultCache.__dict__["key_for"])
    with Tracer().installed():
        assert controller.propose is not before[0]
    after = (controller.propose, controller.evaluate_batch, controller.analyze,
             controller.render_text, GaussianProcess.__dict__["fit"],
             ResultCache.__dict__["key_for"])
    assert after == before


def test_check_trial_flags_each_invariant():
    config = SimpleNamespace(w_values=[1.0, 2.0], variables=["a"])
    good = history(record(1, 1.0, fom=1.44), record(2, 2.0, fom=1.8))
    result = SimpleNamespace(history=good, evals_used=2)
    assert m.check_trial(result, config, 2, good.records[1], oracle_fom=10.0) == []

    overrun = m.check_trial(result, config, 1, None, None)
    assert any("budget overrun" in p for p in overrun)

    off_grid = history(record(1, 1.5, fom=1.44))
    problems = m.check_trial(SimpleNamespace(history=off_grid, evals_used=1), config, 5, None, None)
    assert any("off the config grid" in p for p in problems)

    problems = m.check_trial(result, config, 2, good.records[1], oracle_fom=1.0)
    assert any("exceeds the oracle" in p for p in problems)

    sparse = History()
    sparse.records = [record(1, 1.0, fom=1.44), record(3, 2.0, fom=1.44)]
    problems = m.check_trial(SimpleNamespace(history=sparse, evals_used=2), config, 5, None, None)
    assert any("not dense" in p for p in problems)


def test_digest_depends_on_decisions_and_design_sequence():
    h = history(record(1, 1.0, fom=1.44), record(2, 2.0, fom=1.8))
    swapped = history(record(1, 2.0, fom=1.8), record(2, 1.0, fom=1.44))
    log = [{"kind": "batch", "fresh": 2}]
    assert m.digest(log, h) == m.digest([dict(log[0])], h)
    assert m.digest(log, h) != m.digest(log, swapped)
    assert m.digest(log, h) != m.digest([{"kind": "batch", "fresh": 1}], h)


def test_ms_per_eval_keeps_each_trials_fastest_pass_and_cell_medians():
    # two passes over three blocks of two cells; (wall seconds, fresh evals)
    first = [[(0.010, 10), (0.100, 50)],
             [(0.030, 10), (0.200, 50)],
             [(0.020, 20), (0.900, 50)]]
    second = [[(0.012, 10), (0.050, 50)],
              [(0.015, 10), (0.300, 50)],
              [(0.020, 20), (0.100, 50)]]
    # fastest walls: cell 0 -> 0.010, 0.015, 0.020; cell 1 -> 0.050, 0.200, 0.100
    # medians: 0.015 + 0.100 seconds over 10 + 50 evals
    assert m.ms_per_eval([first, second]) == pytest.approx(1000 * 0.115 / 60)
    assert m.ms_per_eval([first]) == pytest.approx(1000 * (0.020 + 0.200) / 60)
