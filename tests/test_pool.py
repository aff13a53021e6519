"""Method dispatch, parameter validation, and the adaptive mix."""

import dataclasses
import gc
import math
import random
import sys
import types
import weakref

import pytest

from sizerforge.core import EvaluatedDesign, History, design_from
from sizerforge.errors import BadParameter, UnknownMethod
from sizerforge.optim.pool import (
    ADAPTIVE_DEFAULTS,
    BO_BASELINE_PRESET,
    GA_BASELINE_PRESET,
    MethodConfig,
    ORCHESTRATED,
    _RANGES,
    _apportion,
    propose,
    validate_method_config,
)
from sizerforge.optim import base, genetic, pool
from sizerforge.space import SearchSpace

from conftest import W_GRID, grid_space, raises_exactly


def _history(n=6):
    hist = History()
    for i in range(n):
        hist.append(
            EvaluatedDesign(
                design=design_from({"W_a": W_GRID[i], "W_b": W_GRID[(i * 3) % 9]}),
                raw_metrics={},
                normalized={},
                fom=0.1 * (i + 1),
                feasible=False,
                sim_status="ok",
                iteration=1,
                method="lhs",
                eval_index=hist.next_eval_index(),
                wall_time=0.0,
            )
        )
    return hist


def test_baseline_presets_pinned():
    assert GA_BASELINE_PRESET == {"population": 20, "crossover_rate": 0.8, "mutation_rate": 0.1}
    assert BO_BASELINE_PRESET == {"acquisition_function": "UCB", "exploration_weight": 2.0}
    assert ADAPTIVE_DEFAULTS == {"explore_weight": 0.5, "exploit_weight": 0.5, "random_weight": 0.2}


@pytest.mark.parametrize("method", ORCHESTRATED)
def test_every_orchestrated_method_dispatches(method):
    space = grid_space()
    hist = _history(6)
    proposal = propose(space, MethodConfig(method=method, n_samples=5, seed=1), history=hist)
    assert len(proposal.designs) <= 5 or method == "annealing"
    for d in proposal.designs:
        assert d.assignment["W_a"] in W_GRID


@pytest.mark.parametrize("method", ("ga_baseline", "bo_baseline", "turbo_baseline"))
def test_baseline_methods_dispatch(method):
    space = grid_space()
    hist = _history(6)
    proposal = propose(space, MethodConfig(method=method, n_samples=5, seed=1), history=hist)
    assert proposal.designs
    for d in proposal.designs:
        assert d.assignment["W_a"] in W_GRID


def test_optuna_is_an_unknown_method():
    with raises_exactly(UnknownMethod, "unknown method 'optuna'"):
        validate_method_config(MethodConfig(method="optuna", n_samples=5))


def test_unknown_method_rejected():
    with pytest.raises(UnknownMethod):
        validate_method_config(MethodConfig(method="gradient_descent", n_samples=5))


def test_unknown_parameter_rejected():
    with pytest.raises(BadParameter):
        validate_method_config(
            MethodConfig(method="lhs", n_samples=5, parameters={"temperature": 1.0})
        )


@pytest.mark.parametrize(
    "method,params",
    [
        ("genetic", {"mutation_rate": 1.5}),
        ("genetic", {"crossover_rate": -0.1}),
        ("genetic", {"tournament_size": 0}),
        ("genetic", {"population": 1}),
        ("bayesian", {"acquisition_function": "MAX"}),
        ("bayesian", {"acquisition_function": "LCB"}),
        ("bayesian", {"exploration_weight": -1}),
        ("annealing", {"cooling_rate": 1.5}),
        ("annealing", {"initial_temperature": -2}),
        ("multistart", {"n_starts": 0}),
        ("multistart", {"search_radius": -1}),
        ("genetic", {"mutation_rate": "high"}),
        ("genetic", {"tournament_size": True}),
    ],
)
def test_out_of_range_parameters_rejected(method, params):
    with pytest.raises(BadParameter):
        validate_method_config(MethodConfig(method=method, n_samples=5, parameters=params))


INTEGER_PARAMETERS = [("genetic", "tournament_size"), ("genetic", "population"),
                      ("multistart", "n_starts"), ("multistart", "search_radius")]


def test_the_integer_cases_cover_every_integer_parameter():
    assert sorted(name for _, name in INTEGER_PARAMETERS) == sorted(
        name for name, rule in _RANGES.items() if rule[0] is int)


@pytest.mark.parametrize("method,name", INTEGER_PARAMETERS)
@pytest.mark.parametrize("value", [10**6, 10**400], ids=["million", "int_past_float_range"])
def test_an_integer_parameter_past_its_bound_is_rejected(method, name, value):
    # a proposer loops over each of them: unbounded, one reply could stall a run
    high = _RANGES[name][2]
    assert high is not None and high < 10**6
    with pytest.raises(BadParameter, match=f"^{name} must be <= {high}, got 1000+$"):
        validate_method_config(MethodConfig(method=method, n_samples=5,
                                            parameters={name: value}))
    validate_method_config(MethodConfig(method=method, n_samples=5, parameters={name: high}))


# past Python's int-to-string digit limit: such an integer has no repr
HUGE = 10**5000
PAST_LIMIT = f"an integer of more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("method,name", INTEGER_PARAMETERS)
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_an_integer_parameter_past_the_digit_limit_is_refused_by_its_bound(method, name, sign):
    low, high = _RANGES[name][1:]
    bound = f"<= {high}" if sign > 0 else f">= {low}"
    with pytest.raises(BadParameter) as caught:
        validate_method_config(MethodConfig(method, 5, {name: sign * HUGE}))
    assert str(caught.value) == f"{name} must be {bound}, got {PAST_LIMIT}"


def test_a_sample_count_or_acquisition_past_the_digit_limit_is_a_bad_parameter():
    with pytest.raises(BadParameter) as caught:
        validate_method_config(MethodConfig("lhs", -HUGE))
    assert str(caught.value) == f"n_samples must be positive, got {PAST_LIMIT}"
    with pytest.raises(BadParameter) as caught:
        validate_method_config(MethodConfig("bayesian", 5, {"acquisition_function": HUGE}))
    assert str(caught.value) == (f"acquisition_function must be one of "
                                 f"{_RANGES['acquisition_function']}, got {PAST_LIMIT}")


class _CountingRandom(random.Random):
    """A generator that counts its ``getrandbits`` calls: every tournament
    pick and mutation step of a genetic proposal is one or more."""

    draws = 0

    def getrandbits(self, k):
        _CountingRandom.draws += 1
        return super().getrandbits(k)


def test_a_genetic_proposal_at_both_bounds_stays_bounded(monkeypatch):
    # the tournament and population bounds together cap one proposal's
    # draws near 2 * 100 * 999, each redrawn under half the time
    monkeypatch.setattr(genetic, "random", types.SimpleNamespace(Random=_CountingRandom))
    monkeypatch.setattr(_CountingRandom, "draws", 0)
    high = {name: _RANGES[name][2] for name in ("tournament_size", "population")}
    proposal = propose(grid_space(), MethodConfig("genetic", 5, high), _history(6))
    assert len(proposal.designs) > 1
    tournaments = 2 * high["tournament_size"] * (high["population"] - 1)
    assert tournaments <= _CountingRandom.draws < 2 * tournaments + 2 * 2 * high["population"]


FLOAT_PARAMETERS = [
    ("genetic", "mutation_rate"), ("genetic", "crossover_rate"),
    ("bayesian", "exploration_weight"), ("annealing", "initial_temperature"),
    ("annealing", "cooling_rate"), ("adaptive", "explore_weight"),
    ("adaptive", "exploit_weight"), ("adaptive", "random_weight"),
]


def test_the_non_finite_cases_cover_every_number_parameter():
    assert sorted(name for _, name in FLOAT_PARAMETERS) == sorted(
        name for name, rule in _RANGES.items() if rule[0] is float)


@pytest.mark.parametrize("method,name", FLOAT_PARAMETERS)
@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400],
                         ids=["nan", "inf", "int_past_float_range"])
def test_a_non_finite_parameter_is_rejected(method, name, value):
    # NaN fails no comparison, and inf passes a missing upper bound
    with pytest.raises(BadParameter, match=f"^{name} must be finite, got (nan|inf)$"):
        validate_method_config(MethodConfig(method=method, n_samples=5,
                                            parameters={name: value}))


def test_nonpositive_sample_count_rejected():
    with pytest.raises(BadParameter):
        validate_method_config(MethodConfig(method="lhs", n_samples=0))


def test_apportion_largest_remainder():
    counts = _apportion(10, {"a": 0.5, "b": 0.5, "c": 0.2})
    assert sum(counts.values()) == 10
    assert counts["a"] + counts["b"] >= 8  # heavy weights dominate
    with pytest.raises(BadParameter):
        _apportion(5, {"a": 0.0, "b": 0.0})


def _exploits(monkeypatch):
    """The exploit proposers that return a batch to the adaptive mix from
    here on, each with the number of designs asked of it."""
    calls = []
    for name in ("_propose_bayesian", "propose_multistart"):
        def spy(space, history, n, seed, _original=getattr(pool, name), _name=name):
            proposal = _original(space, history, n, seed)
            calls.append((_name, n))
            return proposal
        monkeypatch.setattr(pool, name, spy)
    return calls


def test_adaptive_mix_merges_and_dedupes(monkeypatch):
    space = grid_space()
    hist = _history(6)
    exploits = _exploits(monkeypatch)
    proposal = propose(space, MethodConfig(method="adaptive", n_samples=12, seed=4), history=hist)
    assert len(proposal.designs) <= 12
    ids = [d.id for d in proposal.designs]
    assert len(ids) == len(set(ids))
    # 6 >= 5 observations; 12 splits 5 explore, 5 exploit, 2 random
    assert exploits == [("_propose_bayesian", 5)]


def test_adaptive_thin_history_uses_multistart(monkeypatch):
    space = grid_space()
    hist = _history(3)
    exploits = _exploits(monkeypatch)
    propose(space, MethodConfig(method="adaptive", n_samples=9, seed=4), history=hist)
    assert exploits == [("propose_multistart", 4)]


def test_method_config_seed_changes_proposals():
    space = grid_space()
    a = propose(space, MethodConfig(method="lhs", n_samples=8, seed=0), History())
    b = propose(space, MethodConfig(method="lhs", n_samples=8, seed=1), History())
    assert [d.id for d in a.designs] != [d.id for d in b.designs]


def _counted_index_rows(monkeypatch):
    """The number of designs indexed against a space from here on."""
    indexed = []
    index_rows = base.index_rows

    def counted(space, designs):
        rows = index_rows(space, designs)
        indexed.append(len(rows))
        return rows

    monkeypatch.setattr(base, "index_rows", counted)
    return indexed


def test_adaptive_indexes_each_record_once(monkeypatch):
    space = grid_space()
    hist = _history(6)
    indexed = _counted_index_rows(monkeypatch)
    exploits = _exploits(monkeypatch)
    config = MethodConfig(method="adaptive", n_samples=12, seed=4)
    first = propose(space, config, history=hist)
    assert exploits == [("_propose_bayesian", 5)]
    assert sum(indexed) == 6  # lhs, bayesian and the random draws share one pass
    for design in first.designs[:3]:
        hist.append(EvaluatedDesign(design=design, raw_metrics={}, normalized={}, fom=0.5,
                                    feasible=False, sim_status="ok", iteration=2,
                                    method="adaptive", eval_index=hist.next_eval_index(),
                                    wall_time=0.0))
    propose(space, config, history=hist)
    assert sum(indexed) == 9  # only the records appended since


def _record(design, eval_index, fom=0.5):
    return EvaluatedDesign(design, {}, {}, fom, False, "ok", 2, "lhs", eval_index, 0.0)


def test_appending_a_batch_extends_the_same_view(monkeypatch):
    space, hist = grid_space(), _history(6)
    indexed = _counted_index_rows(monkeypatch)
    view = base.history_view(space, hist)
    assert (indexed, view.count, view.last) == ([6], 6, hist.records[-1])
    assert base.history_view(space, hist) is view and indexed == [6, 0]
    hist.append_batch([_record(design_from({"W_a": W_GRID[8], "W_b": W_GRID[i]}), 7 + i)
                       for i in range(3)])
    assert base.history_view(space, hist) is view
    assert indexed == [6, 0, 3]  # only the appended records
    assert (view.count, view.last) == (9, hist.records[-1])
    assert len(view.obs) == 9 and len(view.seen) == 9


@pytest.mark.parametrize("edit", ["shorter", "last_replaced"])
def test_a_history_that_does_not_extend_its_view_gets_a_fresh_one(monkeypatch, edit):
    space, hist = grid_space(), _history(9)
    stale = base.history_view(space, hist)
    if edit == "shorter":
        hist.records = hist.records[:6]
    else:  # the same design and index, a different record: the view must not trust it
        hist.records[-1] = dataclasses.replace(hist.records[-1], fom=2.0)
    indexed = _counted_index_rows(monkeypatch)
    view = base.history_view(space, hist)
    assert view is not stale and indexed == [len(hist.records)]
    alone = History()
    alone.append_batch(hist.records)
    mine = base.history_view(space, alone)
    assert (view.obs, view.incumbent, view.seen) == (mine.obs, mine.incumbent, mine.seen)
    for method in ORCHESTRATED + ("ga_baseline", "turbo_baseline"):
        config = MethodConfig(method=method, n_samples=8, seed=5)
        assert propose(space, config, hist).designs == propose(space, config, alone).designs


def test_a_history_keeps_only_the_view_of_the_currentgrid_space():
    wide, hist = grid_space(), _history(6)
    narrow = SearchSpace(active={"W_a": W_GRID[:5], "W_b": W_GRID}, fixed={},
                         full_grid=wide.full_grid, generation=1)
    config = MethodConfig(method="bayesian", n_samples=3, seed=0)
    propose(wide, config, history=hist)
    gp = weakref.ref(hist.view.gp)
    assert gp() is not None
    propose(narrow, config, history=hist)
    gc.collect()
    assert gp() is None  # the wide space's candidate block is released
    assert hist.view.key == base.history_view(narrow, hist).key
    assert hist.view.gp.sizes == (5, 9)


def test_proposers_leave_the_shared_view_as_they_found_it():
    # annealing and multistart add the vectors they take to a set of their
    # own: written into the shared view, they would be dropped by every
    # proposer after them on this history but not on a fresh one
    space, hist = grid_space(), _history(6)
    for method in ("annealing", "multistart", "lhs", "turbo_baseline", "genetic"):
        config = MethodConfig(method=method, n_samples=12, seed=3)
        shared = propose(space, config, history=hist).designs
        alone = History()
        alone.append_batch(hist.records)
        assert shared == propose(space, config, history=alone).designs, method
    view, fresh = base.history_view(space, hist), base.history_view(space, alone)
    assert (view.obs, view.incumbent, view.seen) == (fresh.obs, fresh.incumbent, fresh.seen)
