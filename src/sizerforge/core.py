"""The spec and its scorer, design identity and history.

The specification language is deliberately tiny::

    expr := cmp ('AND' cmp)*
    cmp  := ident op number
    op   := '>' | '>=' | '<' | '<='

``AND`` is case-insensitive and whitespace is free-form. There is no OR,
no NOT and no parenthesised grouping: those tokens are rejected loudly
(:class:`~sizerforge.errors.UnsupportedCombinator`) rather than half
supported, and a ``Comparison`` refuses any other operator when it is
made. Clauses with ``>``/``>=`` name metrics to be maximized; ``<``/``<=``
name metrics to be minimized. The threshold of each clause is that
metric's specification target.

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

What every design of a run shares is computed once, where it is fixed.
A spec keeps one table of its clauses (``SpecExpr.table``): a (metric,
``operator`` comparison, threshold, side) row per clause, where the side
places the clause in the objective: +1 in the numerator, -1 in the
denominator, 0 for the ``fom`` clause. It also keeps whether a ``fom``
clause is present (``SpecExpr.has_fom``). A config parses its spec once
(``BenchmarkConfig.spec``), so every design of a run shares them.
``assess`` scores a design in one walk of that table and reads the
engine's value for a ``fom`` clause without copying the design's
metrics. A design's id is ``design_id`` of its ``name=repr(value)``
fragments in name order; ``design_from`` formats them per assignment,
and ``optim.base.materialize`` joins the fragments its space formatted
once (``SearchSpace.id_table``).

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
import re
from dataclasses import dataclass, asdict
from functools import cached_property
from itertools import groupby
from operator import attrgetter, ge, gt, le, lt
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import SpecParseError, UnsupportedCombinator


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


# ---------------------------------------------------------------- the spec

MAXIMIZE_OPS = (">", ">=")
# each operator's comparison and its clause's side in the objective: the
# numerator maximizes, the denominator minimizes
_OPERATORS = {">": (gt, 1), ">=": (ge, 1), "<": (lt, -1), "<=": (le, -1)}

# Metric name reserved for the engine-computed objective. Excluded from
# the objective's own products to prevent self-reference.
FOM_METRIC = "fom"

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>>=|<=|>|<)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_REJECTED_COMBINATORS = {"or", "not", "xor"}


@dataclass(frozen=True)
class Comparison:
    """A single clause ``metric op threshold``; an operator outside the
    language is a ValueError."""

    metric: str
    op: str
    threshold: float

    def __post_init__(self):
        if self.op not in _OPERATORS:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class SpecExpr:
    clauses: Tuple[Comparison, ...]

    @cached_property
    def table(self) -> Tuple[Tuple[str, Callable[[float, float], bool], float, int], ...]:
        """(metric, comparison, threshold, side) per clause, in declaration
        order; ``comparison(value, threshold)`` is the clause operator's
        ``operator`` function. Computed on first use and kept."""
        return tuple((c.metric, _OPERATORS[c.op][0], c.threshold,
                      0 if c.metric == FOM_METRIC else _OPERATORS[c.op][1])
                     for c in self.clauses)

    @cached_property
    def has_fom(self) -> bool:
        """Whether a clause names ``fom``, the engine's own objective."""
        return any(c.metric == FOM_METRIC for c in self.clauses)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            ch = m.group()
            if ch in "()":
                raise UnsupportedCombinator(m.start(), ch)
            raise SpecParseError(m.start(), f"unexpected character {ch!r}")
        tokens.append((kind, m.group(), m.start()))
    return tokens


def parse_spec(text: str) -> SpecExpr:
    """Parse ``text`` into a :class:`SpecExpr`.

    Raises SpecParseError with the offending position, or
    UnsupportedCombinator for OR/NOT/parentheses.
    """
    tokens = _tokenize(text)
    pos = 0
    clauses: List[Comparison] = []
    seen = set()

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(kind, what):
        nonlocal pos
        tok = peek()
        if tok is None:
            raise SpecParseError(len(text), f"expected {what}, found end of input")
        if tok[0] != kind:
            raise SpecParseError(tok[2], f"expected {what}, found {tok[1]!r}")
        pos += 1
        return tok

    while True:
        ident = take("ident", "metric name")
        name = ident[1]
        if name.lower() in _REJECTED_COMBINATORS:
            raise UnsupportedCombinator(ident[2], name)
        if name.lower() == "and":
            raise SpecParseError(ident[2], f"expected metric name, found {name!r}")
        op = take("op", "comparison operator")
        num = take("number", "number")
        if name in seen:
            raise SpecParseError(ident[2], f"duplicate metric {name!r}")
        seen.add(name)
        threshold = float(num[1])
        clauses.append(Comparison(name, op[1], threshold))

        tok = peek()
        if tok is None:
            break
        if tok[0] == "ident" and tok[1].lower() == "and":
            pos += 1
            continue
        if tok[0] == "ident" and tok[1].lower() in _REJECTED_COMBINATORS:
            raise UnsupportedCombinator(tok[2], tok[1])
        raise SpecParseError(tok[2], f"expected 'AND' or end of input, found {tok[1]!r}")

    if not clauses:
        raise SpecParseError(0, "empty expression")
    return SpecExpr(tuple(clauses))


def assess(
    spec: SpecExpr, raw_metrics: Mapping[str, float]
) -> Tuple[Optional[float], bool, Dict[str, float]]:
    """(fom, feasible, normalized) of one design's raw metrics: each
    clause's metric over its nonzero threshold, and the objective's
    products in clause order. A failed FoM, a missing metric included,
    gives ``(None, False, {})``; otherwise the clauses are compared,
    exactly and in declaration order up to the first that fails.
    """
    numerator = denominator = 1.0
    normalized = {}
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
        elif threshold != 0:  # the fom clause: its threshold divides the FoM below
            normalized[metric] = threshold
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
    for metric, holds, threshold, _ in spec.table:
        if not holds(fom if metric == FOM_METRIC else raw_metrics[metric], threshold):
            return fom, False, normalized
    return fom, True, normalized


def pct_change(ago: Optional[float], now: Optional[float]) -> Optional[float]:
    """Relative change from ``ago`` to ``now``, in percent.

    An undefined ``now`` gives None: there is no trend before a valid
    FoM. With a zero (or undefined) reference the value degenerates to
    +inf when ``now`` is positive, else 0.
    """
    if now is None:
        return None
    if ago is None or ago == 0:
        return math.inf if now > 0 else 0.0
    return 100.0 * (now - ago) / abs(ago)

