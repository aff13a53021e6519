"""Objective engine and run history bookkeeping."""

import dataclasses
import logging
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sizerforge.core import (
    FOM_METRIC,
    Comparison,
    Design,
    EvaluatedDesign,
    History,
    IterationSummary,
    SpecExpr,
    assess,
    design_from,
    parse_spec,
    rank_key,
)
from sizerforge.diagnostics import analyze
from sizerforge.space import full_space

BENCH = parse_spec("fom > 0.100 AND dc_gain_db > 55 AND ugbw > 10 AND power_dc < 50")


def _fom(text, metrics):
    """The figure of merit ``assess`` gives ``metrics`` under the spec ``text``."""
    return assess(parse_spec(text), metrics)[0]


def _record(i, fom, feasible=False, method="lhs", iteration=1, cached=False, status="ok"):
    return EvaluatedDesign(
        design=design_from({"w": float(i)}),
        raw_metrics={},
        normalized={},
        fom=fom,
        feasible=feasible,
        sim_status=status,
        iteration=iteration,
        method=method,
        eval_index=i,
        wall_time=0.0,
        cached=cached,
    )


# ---------------------------------------------------------------- fom


def test_fom_is_ratio_of_normalized_products():
    fom = _fom("gain > 50 AND bw > 10 AND power < 2", {"gain": 100.0, "bw": 20.0, "power": 1.0})
    # (100/50)*(20/10) / (1/2) = 8
    assert fom == pytest.approx(8.0, rel=1e-12)


def test_fom_all_at_spec_is_exactly_one():
    assert _fom("gain > 50 AND bw > 10 AND power < 2",
                {"gain": 50.0, "bw": 10.0, "power": 2.0}) == 1.0


def test_fom_scale_invariance():
    # scaling a metric and its threshold together leaves the value unchanged
    rng = random.Random(5)
    for _ in range(50):
        g, p = rng.uniform(1, 100), rng.uniform(1, 100)
        scale = rng.uniform(0.01, 1000)
        a = _fom("g > 10 AND p < 5", {"g": g, "p": p})
        b = _fom(f"g > {10 * scale!r} AND p < 5", {"g": g * scale, "p": p})
        assert b == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize(
    "metrics",
    [
        {"gain": -1.0, "power": 1.0},
        {"gain": 0.0, "power": 1.0},
        {"gain": 10.0, "power": -2.0},
        {"gain": 10.0, "power": 0.0},
        {"gain": float("nan"), "power": 1.0},
        {"gain": float("inf"), "power": 1.0},
    ],
)
def test_fom_failed_values_return_none(metrics):
    assert assess(parse_spec("gain > 50 AND power < 2"), metrics) == (None, False, {})


def test_fom_zero_threshold_returns_none():
    assert assess(parse_spec("gain > 0 AND power < 2"), {"gain": 10.0, "power": 1.0}) == (
        None, False, {})


def test_fom_missing_metric_fails():
    # a missing numerator or denominator metric fails the figure of merit,
    # whichever side it is on, and the design with it
    for metrics in ({"gain": 10.0}, {"power": 1.0}, {}):
        assert assess(parse_spec("gain > 50 AND power < 2"), metrics) == (None, False, {})


# ---------------------------------------------------------------- assess


def test_assess_excludes_fom_clause_from_products():
    metrics = {"dc_gain_db": 60.0, "ugbw": 20.0, "power_dc": 25.0}
    fom, feasible, _ = assess(BENCH, metrics)
    want = (60.0 / 55.0) * (20.0 / 10.0) / (25.0 / 50.0)
    assert fom == pytest.approx(want, rel=1e-12)
    assert feasible


def test_assess_engine_value_feeds_fom_clause():
    # barely above the fom threshold passes, barely below fails
    lo = {"dc_gain_db": 55.0 + 1e-9, "ugbw": 10.0 + 1e-9, "power_dc": 49.999}
    fom, feasible, _ = assess(BENCH, lo)
    assert fom is not None and fom > 0.100
    assert feasible

    spec = parse_spec("fom > 8.0 AND dc_gain_db > 55 AND ugbw > 10 AND power_dc < 50")
    fom, feasible, _ = assess(spec, {"dc_gain_db": 60.0, "ugbw": 20.0, "power_dc": 25.0})
    assert fom == pytest.approx(4.36363636363636, rel=1e-10)
    assert not feasible


def test_assess_warns_on_reported_fom_mismatch(caplog):
    metrics = {"dc_gain_db": 60.0, "ugbw": 20.0, "power_dc": 25.0, "fom": 1.0}
    with caplog.at_level(logging.WARNING, logger="sizerforge.core"):
        fom, _, _ = assess(BENCH, metrics)
    assert fom == pytest.approx(4.36363636363636, rel=1e-10)
    assert any("disagrees" in r.message for r in caplog.records)


def test_assess_quiet_on_close_reported_fom(caplog):
    engine = (60.0 / 55.0) * (20.0 / 10.0) / (25.0 / 50.0)
    metrics = {"dc_gain_db": 60.0, "ugbw": 20.0, "power_dc": 25.0, "fom": engine * 1.005}
    with caplog.at_level(logging.WARNING, logger="sizerforge.core"):
        assess(BENCH, metrics)
    assert not any("disagrees" in r.message for r in caplog.records)


def test_assess_failed_fom_is_infeasible():
    fom, feasible, normalized = assess(BENCH, {"dc_gain_db": -5.0, "ugbw": 20.0, "power_dc": 25.0})
    assert fom is None
    assert not feasible
    assert normalized == {}


def test_assess_normalized_values():
    _, _, normalized = assess(BENCH, {"dc_gain_db": 55.0, "ugbw": 20.0, "power_dc": 25.0})
    assert normalized["dc_gain_db"] == pytest.approx(1.0)
    assert normalized["ugbw"] == pytest.approx(2.0)
    assert normalized["power_dc"] == pytest.approx(0.5)


_REFERENCE_LOG = logging.getLogger("tests.reference_assess")


class _Missing(Exception):
    """A metric the reference needs and the design lacks."""


def _reference_split(spec):
    """``specexpr.split_directions`` as it was: (maximize, minimize)
    clauses, declaration order kept."""
    maximize = tuple(c for c in spec.clauses if c.op in (">", ">="))
    minimize = tuple(c for c in spec.clauses if c.op in ("<", "<="))
    return maximize, minimize


def _reference_product(clauses, raw_metrics):
    """``core._normalized_product`` as it was: the product of each clause's
    metric over its threshold; ``None`` at a zero threshold or a normalized
    value <= 0 or non-finite."""
    product = 1.0
    for clause in clauses:
        if clause.metric not in raw_metrics:
            raise _Missing(clause.metric)
        if clause.threshold == 0:
            return None
        normalized = raw_metrics[clause.metric] / clause.threshold
        if not math.isfinite(normalized) or normalized <= 0:
            return None
        product *= normalized
    return product


def _reference_fom(maximize, minimize, raw_metrics):
    """``core.compute_fom`` as it was: the numerator's product over the
    denominator's, ``None`` for a failed value."""
    numerator = _reference_product(maximize, raw_metrics)
    denominator = None if numerator is None else _reference_product(minimize, raw_metrics)
    if not denominator:
        return None
    value = numerator / denominator
    return value if math.isfinite(value) else None


def _reference_holds(clause, value):
    """A clause's comparison as the if-chain wrote it."""
    if clause.op == ">":
        return value > clause.threshold
    if clause.op == ">=":
        return value >= clause.threshold
    if clause.op == "<":
        return value < clause.threshold
    if clause.op == "<=":
        return value <= clause.threshold
    raise ValueError(f"unknown operator {clause.op!r}")


def _reference_evaluate_spec(spec, metrics):
    """``evaluate_spec`` as it was before the spec kept its clause table:
    every metric checked first, then the clauses in order, stopping at the
    first that fails."""
    for clause in spec.clauses:
        if clause.metric not in metrics:
            raise _Missing(clause.metric)
    return all(_reference_holds(c, metrics[c.metric]) for c in spec.clauses)


def _reference_assess(spec, raw_metrics):
    """``assess`` as it was when it split the spec, computed the objective
    and checked the spec in separate functions and copied the metrics on
    every call: the reference its one walk of the clause table must match."""
    maximize, minimize = _reference_split(spec)
    fom_max = tuple(c for c in maximize if c.metric != FOM_METRIC)
    fom_min = tuple(c for c in minimize if c.metric != FOM_METRIC)
    try:
        fom = _reference_fom(fom_max, fom_min, raw_metrics)
    except _Missing:
        fom = None
    if fom is None:
        return None, False, {}

    spec_metrics = dict(raw_metrics)
    if any(c.metric == FOM_METRIC for c in spec.clauses):
        if FOM_METRIC in raw_metrics:
            reported = raw_metrics[FOM_METRIC]
            if reported != 0 and abs(reported - fom) / abs(reported) > 0.01:
                _REFERENCE_LOG.warning(
                    "engine fom %.6g disagrees with reported fom %.6g by more than 1%%",
                    fom, reported)
        spec_metrics[FOM_METRIC] = fom

    try:
        feasible = _reference_evaluate_spec(spec, spec_metrics)
    except _Missing:
        return fom, False, {}

    normalized = {}
    for clause in spec.clauses:
        if clause.threshold != 0:
            normalized[clause.metric] = spec_metrics[clause.metric] / clause.threshold
    return fom, feasible, normalized


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _hex(value):
    return None if value is None else float.hex(value)


_METRICS = (FOM_METRIC, "gain", "ugbw", "power")
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 55.0, 1e-300, 1e300,
                     math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _specs(draw):
    names = draw(st.lists(st.sampled_from(_METRICS), min_size=1, max_size=4, unique=True))
    thresholds = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -2.5, 0.1, 1.0, 11.0, 50.0]),
                           st.floats(allow_nan=False, allow_infinity=False))
    return SpecExpr(tuple(Comparison(name, draw(st.sampled_from([">", ">=", "<", "<="])),
                                     draw(thresholds)) for name in names))


@settings(max_examples=400, deadline=None)
@given(spec=_specs(), metrics=st.dictionaries(st.sampled_from(_METRICS), _VALUES),
       reported=st.none() | st.sampled_from([0.98, 0.985, 0.995, 1.0, 1.005, 1.015, 1.02]))
def test_assess_matches_the_split_per_call_reference(spec, metrics, reported):
    """Ops, zero and negative thresholds, a ``fom`` clause with and
    without a reported ``fom`` (at times within a few percent of the
    engine's), and metrics missing, 0, negative, NaN or infinite: the same
    tuple, FoMs to the bit, and the same warning."""
    engine = _reference_assess(spec, metrics)[0]
    if reported is not None and engine is not None:
        metrics[FOM_METRIC] = engine * reported
    handler = _Warnings()
    loggers = [logging.getLogger("sizerforge.core"), _REFERENCE_LOG]
    for logger in loggers:
        logger.addHandler(handler)
    try:
        before = repr(metrics)
        got = [assess(spec, metrics) for _ in range(2)]  # the second reads the kept split
        got_warnings, handler.messages = handler.messages, []
        want = _reference_assess(spec, metrics)
    finally:
        for logger in loggers:
            logger.removeHandler(handler)
    assert repr(metrics) == before  # the caller's metrics are left as they were
    for fom, feasible, normalized in got:
        assert (_hex(fom), feasible) == (_hex(want[0]), want[1])
        assert [(k, _hex(v)) for k, v in normalized.items()] == \
            [(k, _hex(v)) for k, v in want[2].items()]
    assert got_warnings == handler.messages * 2


def test_an_unknown_operator_still_raises_value_error():
    """An operator outside the language is refused when its clause is
    made, with the ValueError a check of it used to raise."""
    for op in ("=<", "!=", "==", "=", ""):
        with pytest.raises(ValueError, match=f"^unknown operator {op!r}$"):
            Comparison("gain", op, 1.0)


# ---------------------------------------------------------------- design ids


def test_design_id_is_content_derived_and_order_insensitive():
    a = design_from({"x": 1.0, "y": 2.0})
    b = design_from({"y": 2.0, "x": 1.0})
    assert a.id == b.id
    assert a == b
    assert design_from({"x": 1.0, "y": 2.5}).id != a.id


def test_design_hashable():
    a = design_from({"x": 1.0})
    b = design_from({"x": 1.0})
    assert len({a, b}) == 1


def test_slotted_records_keep_their_semantics():
    design, record = design_from({"y": 2.0, "x": 1.0}), _record(3, 0.5)
    for obj, name in ((design, "id"), (design, "assignment"), (record, "fom"),
                      (record, "cached")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        assert not hasattr(obj, "__dict__")
    # a replaced record is a new one, the original untouched
    moved = dataclasses.replace(record, fom=0.7, eval_index=4)
    assert (moved.fom, moved.eval_index, moved.design) == (0.7, 4, record.design)
    assert (record.fom, record.eval_index) == (0.5, 3)
    assert moved != record and dataclasses.replace(moved, fom=0.5, eval_index=3) == record
    # a Design is its id: equal and hashed by it, whatever else it holds
    twin = Design({"x": 9.0}, design.id)
    assert twin == design and hash(twin) == hash(design) and len({twin, design}) == 1
    assert Design(dict(design.assignment), "other") != design
    assert repr(design) == "Design(x=1.0, y=2.0)"
    assert repr(record) == (
        f"EvaluatedDesign(design=Design(w=3.0), raw_metrics={{}}, normalized={{}}, fom=0.5, "
        f"feasible=False, sim_status='ok', iteration=1, method='lhs', eval_index=3, "
        f"wall_time=0.0, cached=False, reason='')")


# ---------------------------------------------------------------- history


def test_history_eval_indices_dense_from_one():
    hist = History()
    for i in (1, 2, 3):
        hist.append(_record(i, 0.1 * i))
    assert hist.next_eval_index() == 4
    with pytest.raises(ValueError):
        hist.append(_record(7, 0.5))
    with pytest.raises(ValueError):
        hist.append(_record(3, 0.5))


def test_history_summarizes_each_batch():
    hist = History()
    assert hist.summaries() == []
    hist.append(_record(1, 0.2, iteration=1, method="lhs"))
    hist.append(_record(2, 0.5, iteration=1, method="lhs"))
    hist.append(_record(3, None, iteration=2, method="genetic", status="sim_failed"))
    hist.append(_record(4, 0.4, iteration=3, method="bayesian"))
    hist.append(_record(5, 1.0, iteration=3, method="bayesian"))
    hist.append(_record(6, None, iteration=3, method="bayesian"))
    assert hist.summaries() == [
        IterationSummary(1, "lhs", 2, 0.5, None),
        IterationSummary(2, "genetic", 1, 0.5, 0.0),
        IterationSummary(3, "bayesian", 3, 1.0, 100.0),
    ]


def test_history_summary_best_does_not_decrease_after_a_worse_batch():
    hist = History()
    hist.append(_record(1, 0.5, iteration=1))
    hist.append(_record(2, 0.4, iteration=2))
    assert [(s.best_fom_so_far, s.improvement_pct) for s in hist.summaries()] == [
        (0.5, None), (0.5, 0.0)]


def test_valid_records_drop_failures():
    hist = History()
    hist.append(_record(1, 0.5))
    hist.append(_record(2, None, status="sim_failed"))
    hist.append(_record(3, None))
    assert [r.eval_index for r in hist.valid_records()] == [1]


def test_history_jsonl_round_trip_fields():
    import json

    hist = History()
    hist.append(_record(1, 0.5, feasible=True, method="genetic"))
    lines = [json.loads(line) for line in hist.to_jsonl().splitlines()]
    kinds = [entry["kind"] for entry in lines]
    assert kinds == ["evaluation", "summary"]
    assert lines[0]["fom"] == 0.5
    assert lines[0]["method"] == "genetic"
    assert lines[1]["best_fom_so_far"] == 0.5


# ---------------------------------------------------------------- best/improvement


def test_best_prefers_earliest_on_ties():
    hist = History()
    hist.append(_record(1, 0.3))
    hist.append(_record(2, 0.7))
    hist.append(_record(3, 0.7))
    assert max(hist.valid_records(), key=rank_key).eval_index == 2


def test_best_and_reported_are_none_without_a_valid_record():
    hist = History()
    assert hist.valid_records() == [] and hist.reported() is None
    hist.append(_record(1, None, status="sim_failed"))
    hist.append(_record(2, None))
    assert hist.valid_records() == [] and hist.reported() is None
    assert not hist.feasible_found()


def test_reported_prefers_a_feasible_record_over_a_better_fom():
    hist = History()
    hist.append(_record(1, 0.9))
    hist.append(_record(2, 0.4, feasible=True))
    hist.append(_record(3, 0.6, feasible=True))
    hist.append(_record(4, None, status="sim_failed"))
    assert max(hist.valid_records(), key=rank_key).eval_index == 1
    assert hist.reported().eval_index == 3
    assert hist.feasible_found()


def test_reported_ties_go_to_the_earliest_feasible_record():
    hist = History()
    hist.append(_record(1, 0.5))
    hist.append(_record(2, 0.5, feasible=True))
    hist.append(_record(3, 0.5, feasible=True, cached=True))
    assert max(hist.valid_records(), key=rank_key).eval_index == 1
    assert hist.reported().eval_index == 2


def test_reported_falls_back_to_best_when_nothing_is_feasible():
    hist = History()
    hist.append(_record(1, 0.2))
    hist.append(_record(2, 0.8))
    hist.append(_record(3, 0.8))
    assert hist.reported() is max(hist.valid_records(), key=rank_key)
    assert hist.reported().eval_index == 2


def test_rank_key_orders_best_first():
    records = [_record(1, 0.3), _record(2, 0.7), _record(3, 0.7), _record(4, 0.1)]
    assert [r.eval_index for r in sorted(records, key=rank_key, reverse=True)] == [2, 3, 1, 4]


def _recent_pct(hist):
    """The diagnostics' improvement over the last summary step, in percent."""
    return analyze(hist, full_space({"w": (1.0, 2.0)})).convergence["recent_improvement_pct"]


def test_improvement_pct_window():
    hist = History()
    hist.append(_record(1, 1.0, iteration=1))
    assert _recent_pct(hist) is None  # one summary: no step to measure yet
    hist.append(_record(2, 1.5, iteration=2))
    assert hist.summaries()[-1].improvement_pct == pytest.approx(50.0)
    assert _recent_pct(hist) == pytest.approx(50.0)


def test_improvement_pct_degenerate_reference():
    hist = History()
    hist.append(_record(1, None, iteration=1))
    hist.append(_record(2, 2.0, iteration=2))
    assert hist.summaries()[-1].improvement_pct == math.inf
    assert _recent_pct(hist) == math.inf

    # no valid FoM yet: no trend, rather than a 0% plateau
    hist2 = History()
    hist2.append(_record(1, None, iteration=1))
    hist2.append(_record(2, None, iteration=2))
    assert hist2.summaries()[-1].improvement_pct is None
    assert _recent_pct(hist2) is None
