"""Figure-of-merit computation, feasibility, design identity and history.

``rank_key`` is the one ranking of evaluated designs: highest figure of
merit first, earliest eval index on ties. ``report_key`` puts every
feasible record ahead of every infeasible one, then ranks by
``rank_key``; ``History.reported``, the design a run hands back, is the
best valid record by it: the best feasible record, else the best valid
record by ``rank_key``.

A History holds only its records. A batch is a run of records sharing an
iteration number, and ``History.summaries`` computes one summary per
batch from them, so no second list can drift from the records. It keeps
no index of design ids: proposers match candidates by index vector.

The scalar objective is the product of normalized maximize-metrics over
the product of normalized minimize-metrics, each normalized by its
specification target. A failed figure of merit (any normalized value
non-positive or non-finite, or a zero denominator) is represented by
``None`` throughout the package; ``None`` orders below every finite
value and never poisons statistics.

A metric literally named ``fom`` may appear in the user specification as
a feasibility clause, but it is never an input to the objective's
products: the engine recomputes the figure of merit from the base
metrics. If a simulator log also reports one, the engine's value wins
and a disagreement above 1% logs a warning.

What every design of a run shares is computed once, where it is fixed:
``assess`` scores a design in one walk of the spec's clause table
(``SpecExpr.table``), which gives each clause its side in the objective,
and reads the engine's value for a ``fom`` clause without copying the
design's metrics. A design's id is ``design_id`` of its
``name=repr(value)`` fragments in name order; ``design_from`` formats
them per assignment, and ``optim.base.materialize`` joins the fragments
its space formatted once (``SearchSpace.id_table``).

``Design`` and ``EvaluatedDesign`` are frozen, slotted dataclasses: a
record has no ``__dict__``, and a run builds one per proposal and per
evaluation, positionally (``optim.base.materialize``,
``evaluation.evaluate_batch``). A Design's equality and hash follow its
id.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .specexpr import FOM_METRIC, SpecExpr


SIM_OK = "ok"
SIM_FAILED = "sim_failed"
METRIC_MISSING = "metric_missing"


@dataclass(frozen=True, eq=False, slots=True)
class Design:
    """One point of the design grid: a full variable assignment plus a
    content hash that serves as identity for caching and dedup."""

    assignment: Mapping[str, float]
    id: str

    def __eq__(self, other):
        return isinstance(other, Design) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.assignment.items()))
        return f"Design({inner})"


def design_id(parts: Iterable[str]) -> str:
    """The id of a design from its ``name=repr(value)`` fragments in
    variable-name order: the one id rule."""
    return hashlib.sha1(",".join(parts).encode("utf-8")).hexdigest()[:12]


def design_from(assignment: Mapping[str, float]) -> Design:
    """Build a Design with a canonical content id.

    The id hashes the assignment sorted by variable name, so semantically
    equal assignments always share an id regardless of insertion order.
    """
    return Design(dict(assignment),
                  design_id(f"{k}={v!r}" for k, v in sorted(assignment.items())))


@dataclass(frozen=True, slots=True)
class EvaluatedDesign:
    design: Design
    raw_metrics: Mapping[str, float]
    normalized: Mapping[str, float]
    fom: Optional[float]
    feasible: bool
    sim_status: str
    iteration: int
    method: str
    eval_index: int  # global 1-based ordinal, dense
    wall_time: float
    cached: bool = False

    def to_record(self) -> dict:
        return {
            "eval_index": self.eval_index,
            "design_id": self.design.id,
            "assignment": dict(self.design.assignment),
            "raw_metrics": dict(self.raw_metrics),
            "normalized": dict(self.normalized),
            "fom": self.fom,
            "feasible": self.feasible,
            "sim_status": self.sim_status,
            "iteration": self.iteration,
            "method": self.method,
            "wall_time": self.wall_time,
            "cached": self.cached,
        }


@dataclass(frozen=True)
class IterationSummary:
    iteration: int
    method: str
    n_samples: int
    best_fom_so_far: Optional[float]
    improvement_pct: Optional[float]

    def to_record(self) -> dict:
        return asdict(self)


def is_valid(record: EvaluatedDesign) -> bool:
    """A record that simulated and has a figure of merit."""
    return record.sim_status == SIM_OK and record.fom is not None


def rank_key(record: EvaluatedDesign) -> Tuple[float, int]:
    """Ranks valid records: highest FoM first, earliest eval index on ties.

    ``max(records, key=rank_key)`` is the best record, and
    ``sorted(records, key=rank_key, reverse=True)`` puts them best first.
    """
    return record.fom, -record.eval_index


def report_key(record: EvaluatedDesign) -> Tuple[bool, float, int]:
    """Ranks valid records as a run reports them: feasible first, then by
    ``rank_key``."""
    return (record.feasible,) + rank_key(record)


class History:
    """Append-only record of all evaluations.

    Only the run controller appends, one whole batch at a time after the
    evaluator returns, so no append races another.
    """

    def __init__(self):
        self.records: List[EvaluatedDesign] = []
        # the proposers' view of the records over one search space,
        # extended as records are appended (``optim.base.history_view``)
        self.view = None

    def __len__(self):
        return len(self.records)

    def append(self, record: EvaluatedDesign) -> None:
        expected = len(self.records) + 1
        if record.eval_index != expected:
            raise ValueError(
                f"eval_index must be dense: got {record.eval_index}, expected {expected}"
            )
        self.records.append(record)

    def append_batch(self, records: Sequence[EvaluatedDesign]) -> None:
        for r in records:
            self.append(r)

    def batches(self) -> Iterator[List[EvaluatedDesign]]:
        """The records batch by batch, in order."""
        return (list(batch) for _, batch in groupby(self.records, key=attrgetter("iteration")))

    def summaries(self) -> List[IterationSummary]:
        """One summary per batch: its label and size, the best valid FoM
        up to its end, and the change from the previous batch's best."""
        out: List[IterationSummary] = []
        best = None
        for batch in self.batches():
            for r in batch:
                if is_valid(r) and (best is None or r.fom > best):
                    best = r.fom
            improvement = pct_change(out[-1].best_fom_so_far, best) if out else None
            out.append(IterationSummary(batch[0].iteration, batch[0].method, len(batch),
                                        best, improvement))
        return out

    def next_eval_index(self) -> int:
        return len(self.records) + 1

    def valid_records(self) -> List[EvaluatedDesign]:
        return [r for r in self.records if is_valid(r)]

    def reported(self) -> Optional[EvaluatedDesign]:
        """The design a run hands back: its best record that meets the
        spec, else its best record, which may violate clauses."""
        return max(self.valid_records(), key=report_key, default=None)

    def feasible_found(self) -> bool:
        return any(r.feasible for r in self.records)

    def fresh_through(self, eval_index: int) -> int:
        """The fresh evaluations up to and including ``eval_index``: a
        cache hit is free, so this can be below the index."""
        return sum(1 for r in self.records[:eval_index] if not r.cached)

    def to_jsonl(self) -> str:
        lines = [json.dumps({"kind": "evaluation", **r.to_record()}, sort_keys=True)
                 for r in self.records]
        lines += [json.dumps({"kind": "summary", **s.to_record()}, sort_keys=True)
                  for s in self.summaries()]
        return "\n".join(lines) + ("\n" if lines else "")


def assess(
    spec: SpecExpr, raw_metrics: Mapping[str, float]
) -> Tuple[Optional[float], bool, Dict[str, float]]:
    """(fom, feasible, normalized) of one design's raw metrics: each
    clause's metric over its nonzero threshold, and the objective's
    products in clause order. A failed FoM, a missing objective metric
    included, gives ``(None, False, {})``. Any other missing metric makes
    the design infeasible with no normalized values; only then are the
    clauses compared, exactly and in declaration order up to the first
    that fails, so an unknown operator raises ValueError only when every
    clause before it holds.
    """
    numerator = denominator = 1.0
    normalized = {}
    missing = False
    for metric, _, threshold, side in spec.table:
        if side:
            if threshold == 0 or metric not in raw_metrics:
                return None, False, {}
            value = raw_metrics[metric] / threshold
            if not math.isfinite(value) or value <= 0:
                return None, False, {}
            if side > 0:
                numerator *= value
            else:
                denominator *= value
            normalized[metric] = value
        elif metric == FOM_METRIC:
            if threshold != 0:
                normalized[metric] = threshold  # divides the figure of merit below
        elif metric not in raw_metrics:
            missing = True
        elif threshold != 0:
            normalized[metric] = raw_metrics[metric] / threshold
    if not denominator:  # a product that underflowed to zero
        return None, False, {}
    fom = numerator / denominator
    if not math.isfinite(fom):
        return None, False, {}

    if spec.has_fom:
        reported = raw_metrics.get(FOM_METRIC)
        if reported and abs(reported - fom) / abs(reported) > 0.01:
            import logging  # loaded only by a run that has a disagreement to log

            logging.getLogger(__name__).warning(
                "engine fom %.6g disagrees with reported fom %.6g by more than 1%%",
                fom, reported)
        if FOM_METRIC in normalized:
            normalized[FOM_METRIC] = fom / normalized[FOM_METRIC]
    if missing:
        return fom, False, {}
    for metric, holds, threshold, _ in spec.table:
        if not holds(fom if metric == FOM_METRIC else raw_metrics[metric], threshold):
            return fom, False, normalized
    return fom, True, normalized


def pct_change(ago: Optional[float], now: Optional[float]) -> float:
    """Relative change from ``ago`` to ``now``, in percent.

    An undefined ``now`` gives 0; with a zero (or undefined) reference
    the value degenerates to +inf when ``now`` is positive, else 0.
    """
    if now is None:
        return 0.0
    if ago is None or ago == 0:
        return math.inf if now > 0 else 0.0
    return 100.0 * (now - ago) / abs(ago)

