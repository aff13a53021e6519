"""Metric arithmetic and per-trial correctness checks.

Everything here is a pure function of finished trials or of the
stand-in simulator, so the tests in ``tests/`` can pin it down on
hand-built histories.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import itertools
import json
import statistics
import time
from typing import Iterable, List, Optional, Sequence, Tuple

from sizerforge.config import render_deck
from sizerforge.evaluation import surrogate_eval


def reported_design(history, best):
    """The design a trial hands back, by the harness rule.

    The best satisfying design (highest FoM, earliest on ties) when one
    exists, else the run's best by FoM. A record's ``feasible`` flag is
    ``core.assess``'s spec check on its raw metrics.
    """
    feasible = [r for r in history.valid_records() if r.feasible]
    if feasible:
        return max(feasible, key=lambda r: (r.fom, -r.eval_index))
    return best


def evals_to_feasible(history, budget: int) -> int:
    """Fresh simulations up to and including the first feasible record.

    A trial that never becomes feasible is censored at ``budget + 1``.
    """
    fresh = 0
    for record in history.records:
        if not record.cached:
            fresh += 1
        if record.feasible:
            return fresh
    return budget + 1


def gap_pct(oracle_fom: float, fom: Optional[float]) -> float:
    """Percent shortfall of a reported FoM against the oracle; 100 for none."""
    if fom is None:
        return 100.0
    return 100.0 * (oracle_fom - fom) / abs(oracle_fom)


def useful_frac(fresh_evals: int, proposed: int) -> float:
    """Share of proposed designs that became fresh simulations."""
    return fresh_evals / proposed if proposed else 0.0


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(start, end, children)


REFERENCE_KEYS = 500


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python work unit, a gauge of host speed."""
    start = time.perf_counter()
    table = {}
    for k in range(REFERENCE_KEYS):
        key = f"key{k}"
        table[key] = hashlib.sha1(key.encode()).hexdigest()
    sorted(table.items(), key=lambda item: item[1])
    return time.perf_counter() - start


def ms_per_eval(passes: Sequence[Sequence[Sequence[Tuple[float, int]]]]) -> float:
    """Milliseconds per fresh simulation of a typical block.

    ``passes[k][i][c]`` is the (wall seconds, fresh simulations) of cell
    ``c`` in block ``i`` on pass ``k``; every pass runs the same blocks.
    Each trial keeps its fastest pass. Per cell, the median over blocks
    of wall time and of fresh simulations are summed over cells, and the
    ratio of the two sums is returned.
    """
    blocks = range(len(passes[0]))
    cells = range(len(passes[0][0]))
    wall = sum(statistics.median(min(p[i][c][0] for p in passes) for i in blocks) for c in cells)
    fresh = sum(statistics.median(passes[0][i][c][1] for i in blocks) for c in cells)
    return 1000.0 * wall / fresh if fresh else 0.0


def digest(decisions: Sequence[dict], history) -> str:
    """Hash of the decision log and the (design id, FoM) sequence."""
    h = hashlib.sha256()
    for entry in decisions:
        h.update(json.dumps(entry, sort_keys=True, default=float).encode())
        h.update(b"\n")
    for record in history.records:
        h.update(f"{record.design.id} {record.fom!r}\n".encode())
    return h.hexdigest()


def check_trial(result, config, budget: int, reported, oracle_fom: Optional[float]) -> List[str]:
    """Invariant violations of one finished trial; empty when it is sound."""
    problems = []
    records = result.history.records
    fresh = sum(1 for r in records if not r.cached)
    if result.evals_used > budget or fresh > budget:
        problems.append(f"budget overrun: {result.evals_used} charged, {fresh} fresh, budget {budget}")
    if fresh != result.evals_used:
        problems.append(f"charged {result.evals_used} evals but ran {fresh} fresh")
    if [r.eval_index for r in records] != list(range(1, len(records) + 1)):
        problems.append("eval_index is not dense")
    grid = set(config.w_values)
    variables = set(config.variables)
    for r in records:
        assignment = r.design.assignment
        if set(assignment) != variables or any(v not in grid for v in assignment.values()):
            problems.append(f"design {r.design.id} is off the config grid: {dict(assignment)}")
            break
    if oracle_fom is not None and reported is not None and reported.fom is not None:
        if reported.fom > oracle_fom:
            problems.append(f"reported FoM {reported.fom!r} exceeds the oracle {oracle_fom!r}")
    return problems


def load_standin(path):
    """The stand-in simulator script, loaded as a module."""
    loader = importlib.machinery.SourceFileLoader("standin_ngspice", str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


def check_standin(path, configs) -> List[str]:
    """The stand-in must equal ``surrogate_eval`` on every grid point."""
    standin = load_standin(path)
    problems = []
    for config in configs:
        for values in itertools.product(config.w_values, repeat=len(config.variables)):
            assignment = dict(zip(config.variables, values))
            deck = render_deck(config, assignment).testbench_text
            if standin.metrics_for_deck(deck) != surrogate_eval(config.name, assignment):
                problems.append(f"stand-in differs from surrogate_eval on {config.name} at {assignment}")
                break
    return problems
