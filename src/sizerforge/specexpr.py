"""Parser and evaluator for the specification-metric expression language.

The language is deliberately tiny::

    expr := cmp ('AND' cmp)*
    cmp  := ident op number
    op   := '>' | '>=' | '<' | '<='

``AND`` is case-insensitive and whitespace is free-form. There is no OR,
no NOT and no parenthesised grouping: those tokens are rejected loudly
(:class:`~sizerforge.errors.UnsupportedCombinator`) rather than half
supported.

Clauses with ``>``/``>=`` name metrics to be maximized; ``<``/``<=``
name metrics to be minimized. The threshold of each clause is that
metric's specification target.

A spec keeps one table of its clauses (``SpecExpr.table``): a (metric,
``operator`` comparison, threshold, side) row per clause, where the side
places the clause in the objective: +1 in the numerator, -1 in the
denominator, 0 for a ``fom`` clause or an unknown operator. It also keeps
whether a ``fom`` clause is present (``SpecExpr.has_fom``). ``core.assess``
scores every design from these two. A config parses its spec once
(``BenchmarkConfig.spec``), so every design of a run shares them.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Tuple

from .errors import SpecParseError, UnsupportedCombinator

MAXIMIZE_OPS = (">", ">=")
_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
# a clause's side in the objective: the numerator maximizes, the denominator minimizes
_SIDES = {">": 1, ">=": 1, "<": -1, "<=": -1}

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
    """A single clause ``metric op threshold``."""

    metric: str
    op: str
    threshold: float


def _unknown(op: str) -> Callable[[float, float], bool]:
    """The comparison of an operator the language does not have: it
    raises when a clause using it is checked."""
    def compare(value: float, threshold: float) -> bool:
        raise ValueError(f"unknown operator {op!r}")
    return compare


@dataclass(frozen=True)
class SpecExpr:
    clauses: Tuple[Comparison, ...]

    @cached_property
    def table(self) -> Tuple[Tuple[str, Callable[[float, float], bool], float, int], ...]:
        """(metric, comparison, threshold, side) per clause, in declaration
        order; ``comparison(value, threshold)`` is the clause operator's
        ``operator`` function. Computed on first use and kept."""
        return tuple((c.metric, _COMPARISONS.get(c.op) or _unknown(c.op), c.threshold,
                      0 if c.metric == FOM_METRIC else _SIDES.get(c.op, 0))
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
