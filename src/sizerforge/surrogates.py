"""Analytic benchmark models and the brute-force oracle.

Three closed-form models stand in for SPICE at desk scale. Their golden
optima are never hand-written: `enumerate_oracle` walks the whole grid
through the same assess path production runs use, so the only thing that
differs from a real run is that enumeration replaces search.

Width grids reuse the benchmark's shared 9-value list. The telescopic
shaped models apply the same scaling rules as the benchmark config
(tail x2, diff x4, casc x2, load x2) before the formulas, so assignments
are always in base units.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Mapping, Optional, Tuple

from .core import (SIM_OK, Design, EvaluatedDesign, assess, design_from, is_valid, parse_spec,
                   report_key)
from .errors import GridTooLarge, UnknownModel

W_GRID = (0.84, 1.05, 1.26, 1.47, 1.68, 1.89, 2.10, 2.31, 2.52)

ORACLE_GRID_LIMIT = 10**6


@dataclass(frozen=True)
class OracleResult:
    best_design: Design
    best_fom: Optional[float]
    feasible_count: int
    total_count: int

    def to_record(self) -> dict:
        return {
            "best_assignment": dict(self.best_design.assignment),
            "best_fom": self.best_fom,
            "feasible_count": self.feasible_count,
            "total_count": self.total_count,
        }


@dataclass(frozen=True)
class SurrogateModel:
    id: str
    variables: Tuple[str, ...]
    grids: Mapping[str, Tuple[float, ...]]
    spec_text: str
    metrics: Callable[[Mapping[str, float]], Dict[str, float]]  # assignment -> metric values


def _easy_metrics(assignment: Mapping[str, float]) -> Dict[str, float]:
    a = assignment["a"]
    b = assignment["b"]
    return {
        "gain_db": 20.0 * math.log10(a * b * 10.0),
        "power_uw": 15.0 * (a + b),
    }


_MED_SCALES = {"W_tail_base": 2.0, "W_diff_base": 4.0, "W_casc_base": 2.0, "W_load_base": 2.0}


def _telescopic_metrics(assignment: Mapping[str, float], cliff: bool) -> Dict[str, float]:
    w_tail = assignment["W_tail_base"] * _MED_SCALES["W_tail_base"]
    w_diff = assignment["W_diff_base"] * _MED_SCALES["W_diff_base"]
    w_casc = assignment["W_casc_base"] * _MED_SCALES["W_casc_base"]
    w_load = assignment["W_load_base"] * _MED_SCALES["W_load_base"]
    dc_gain_db = 40.0 + 8.0 * math.log(w_diff * w_casc) - 2.0 * w_load
    ugbw = 6.0 * w_diff / (0.5 + 0.3 * w_load)
    power_dc = 9.0 * w_tail + 6.0 * w_load
    if cliff and assignment["W_tail_base"] < 1.26:
        # sparse-feasibility cliff: a starved tail collapses bandwidth
        ugbw *= 0.2
    return {"dc_gain_db": dc_gain_db, "ugbw": ugbw, "power_dc": power_dc}


_TELESCOPIC_VARS = ("W_tail_base", "W_diff_base", "W_casc_base", "W_load_base")

REGISTRY: Dict[str, SurrogateModel] = {
    "sota_easy": SurrogateModel(
        id="sota_easy",
        variables=("a", "b"),
        grids={"a": W_GRID, "b": W_GRID},
        spec_text="gain_db > 25 AND power_uw < 60",
        metrics=_easy_metrics,
    ),
    "sota_med": SurrogateModel(
        id="sota_med",
        variables=_TELESCOPIC_VARS,
        grids={v: W_GRID for v in _TELESCOPIC_VARS},
        spec_text="fom > 0.100 AND dc_gain_db > 55 AND ugbw > 10 AND power_dc < 50",
        metrics=partial(_telescopic_metrics, cliff=False),
    ),
    "sota_hard": SurrogateModel(
        id="sota_hard",
        variables=_TELESCOPIC_VARS,
        grids={v: W_GRID for v in _TELESCOPIC_VARS},
        spec_text="fom > 11.000 AND dc_gain_db > 55 AND ugbw > 10 AND power_dc < 50",
        metrics=partial(_telescopic_metrics, cliff=True),
    ),
}


def get_model(model_id: str) -> SurrogateModel:
    try:
        return REGISTRY[model_id]
    except KeyError:
        raise UnknownModel(f"no surrogate model registered as {model_id!r}") from None


def enumerate_oracle(model: SurrogateModel) -> OracleResult:
    """Exhaustively certify the design a run should report.

    Walks the grid in lexicographic variable order through the same
    assess path runs use, and picks as ``History.reported()`` does: the
    best feasible point by figure of merit, else the best valid one, the
    earliest point on ties. With no valid point it is the first point.
    """
    total = math.prod(len(model.grids[v]) for v in model.variables)
    if total > ORACLE_GRID_LIMIT:
        raise GridTooLarge(f"{total} grid points exceeds the oracle limit {ORACLE_GRID_LIMIT}")

    spec = parse_spec(model.spec_text)
    first = best = None
    feasible_count = 0
    grid = itertools.product(*(model.grids[v] for v in model.variables))
    for index, values in enumerate(grid, start=1):
        assignment = dict(zip(model.variables, values))
        metrics = model.metrics(assignment)
        fom, feasible, normalized = assess(spec, metrics)
        feasible_count += feasible
        record = EvaluatedDesign(design_from(assignment), metrics, normalized, fom, feasible,
                                 SIM_OK, 1, "oracle", index, 0.0)
        first = first or record
        if is_valid(record) and (best is None or report_key(record) > report_key(best)):
            best = record
    best = best or first
    return OracleResult(best.design, best.fom, feasible_count, total)
