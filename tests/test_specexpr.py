"""Constraint expression mini-language: parsing, each clause's side in
the objective, and feasibility as ``assess`` decides it."""

import random

import pytest

from sizerforge.core import assess
from sizerforge.errors import SpecParseError, UnsupportedCombinator
from sizerforge.specexpr import parse_spec


def _feasible(spec, metrics):
    return assess(spec, metrics)[1]

BENCH_EXPR = "fom > 0.100 AND dc_gain_db > 55 AND ugbw > 10 AND power_dc < 50"


def test_parse_bench_expression():
    spec = parse_spec(BENCH_EXPR)
    assert len(spec.clauses) == 4
    assert [c.metric for c in spec.clauses] == ["fom", "dc_gain_db", "ugbw", "power_dc"]
    assert [c.op for c in spec.clauses] == [">", ">", ">", "<"]
    assert [c.threshold for c in spec.clauses] == [0.100, 55.0, 10.0, 50.0]


def test_each_clause_has_its_side_in_the_objective():
    # maximized metrics in the numerator, minimized in the denominator, and
    # the fom clause on neither: the engine computes it
    spec = parse_spec(BENCH_EXPR)
    assert [(metric, side) for metric, _, _, side in spec.table] == [
        ("fom", 0), ("dc_gain_db", 1), ("ugbw", 1), ("power_dc", -1)]
    assert spec.has_fom
    other = parse_spec("a >= 1 AND b <= 2")
    assert [side for *_, side in other.table] == [1, -1] and not other.has_fom


def test_and_is_case_insensitive():
    for conj in ("AND", "and", "And", "aNd"):
        spec = parse_spec(f"a > 1 {conj} b < 2")
        assert len(spec.clauses) == 2


def test_all_four_operators():
    spec = parse_spec("a > 1 AND b >= 2 AND c < 3 AND d <= 4")
    assert _feasible(spec, {"a": 1.5, "b": 2.0, "c": 2.9, "d": 4.0})
    # boundary cases: strict ops reject equality, non-strict accept it
    assert not _feasible(spec, {"a": 1.0, "b": 2.0, "c": 2.9, "d": 4.0})
    assert not _feasible(spec, {"a": 1.5, "b": 2.0, "c": 3.0, "d": 4.0})


def test_comparisons_are_exact():
    spec = parse_spec("x > 0.1")
    assert not _feasible(spec, {"x": 0.1})
    assert _feasible(spec, {"x": 0.1 + 1e-15})


@pytest.mark.parametrize(
    "text",
    [
        "a > 1 OR b < 2",
        "a > 1 or b < 2",
        "NOT a > 1",
        "(a > 1) AND b < 2",
        "a > 1 AND (b < 2)",
    ],
)
def test_unsupported_combinators_rejected(text):
    with pytest.raises(UnsupportedCombinator):
        parse_spec(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a >",
        "> 1",
        "a == 1",
        "a != 1",
        "a > 1 AND",
        "AND a > 1",
        "a > 1 b < 2",
        "a > one",
    ],
)
def test_malformed_expressions_rejected(text):
    with pytest.raises(SpecParseError):
        parse_spec(text)


def test_a_missing_metric_is_infeasible():
    spec = parse_spec("a > 1 AND b < 2")
    assert assess(spec, {"a": 2.0}) == (None, False, {})


def test_verdict_is_conjunction_of_clauses():
    spec = parse_spec(BENCH_EXPR)
    rng = random.Random(20081)
    for _ in range(500):
        metrics = {
            "fom": rng.uniform(-1, 1),  # reported, and outvoted by the engine's
            "dc_gain_db": rng.uniform(0, 120),
            "ugbw": rng.uniform(0, 40),
            "power_dc": rng.uniform(0, 120),
        }
        fom, verdict, _ = assess(spec, metrics)
        # recompute the figure of merit and each clause by hand
        assert fom == metrics["dc_gain_db"] / 55 * (metrics["ugbw"] / 10) / (
            metrics["power_dc"] / 50)
        want = (
            fom > 0.100
            and metrics["dc_gain_db"] > 55
            and metrics["ugbw"] > 10
            and metrics["power_dc"] < 50
        )
        assert verdict == want


def test_scientific_notation_thresholds():
    spec = parse_spec("cap < 1e-12 AND gain >= 2.5e1")
    assert _feasible(spec, {"cap": 0.9e-12, "gain": 25.0})

