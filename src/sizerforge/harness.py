"""Trial orchestration and scoring: circuits x methods x seeded trials.

A matrix file names circuits (config paths) and methods, and each cell
runs trials_per_cell seeded trials through ``controller.run_method``. A
method is spelled as ``sizerforge run --method`` takes it: a baseline
name or ``autosizer[:BACKEND][+ABLATION]``, so the paper's ablation
rows are matrix methods like any other.

Each trial reports the design its run hands back (``RunResult.best``,
which is ``History.reported()``): the best design that meets the spec,
else the best by figure of merit. A trial succeeds when that design
meets the spec, which is the record's own ``feasible`` flag from
``core.assess``. Its first feasible is the count of fresh evaluations
up to and including its first record that meets the spec.

A cell is scored by the paper's measures (``CellSummary``): FoM,
evaluations and wall time as mean +/- std over the trials that produced
a result; over all trials, the successes with their 95% Wilson interval,
the median first feasible, the outcome histogram, the methods that
proposed, and per seed the first feasible against that of the matrix's
first method on the same circuit. A crashed trial fails, never finds a
feasible design and has the outcome ``error``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .config import load_config, parse_yaml_mapping, read_list, read_number
from .controller import RunBudget, RunResult, at_least_one, parse_method, run_method
from .core import is_valid, report_key
from .errors import ConfigError

DEFAULT_TRIALS = 3
Z95 = 1.959963984540054


@dataclass(frozen=True)
class TrialMatrix:
    circuits: List[str]
    methods: List[str]
    trials_per_cell: int = DEFAULT_TRIALS
    seeds: Optional[List[int]] = None  # explicit; else base_seed + index
    base_seed: int = 0
    budget: RunBudget = field(default_factory=RunBudget)

    def seed_list(self) -> List[int]:
        if self.seeds is not None:
            return list(self.seeds)
        return [self.base_seed + i for i in range(self.trials_per_cell)]


@dataclass
class CellSummary:
    """One cell's scores. ``first_feasible`` is the median, None when the
    median trial found no feasible design; ``never`` counts such trials.
    ``paired`` holds, in seed order, each trial's first feasible minus the
    first method's: ``inf`` or ``-inf`` when only one of the two found
    one, ``nan`` when neither did. ``paired_split`` counts the seeds on
    which the cell was earlier, tied and later. Both are None in the
    first method's own cells."""

    fom_mean: Optional[float]
    fom_std: Optional[float]
    evals_mean: Optional[float]
    evals_std: Optional[float]
    time_mean_s: Optional[float]
    time_std_s: Optional[float]
    n_trials: int
    n_valid: int
    successes: int
    success_interval: Tuple[float, float]
    first_feasible: Optional[float]
    never: int
    outcomes: Dict[str, int]
    proposers: Dict[str, int]  # method: the trials it proposed in
    paired: Optional[List[float]]
    paired_split: Optional[Tuple[int, int, int]]


def _refuse_unknown(what: str, mapping: dict, known) -> None:
    unknown = set(mapping) - {f.name for f in fields(known)}
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(map(str, unknown))}")


def parse_matrix(source: str) -> TrialMatrix:
    """Matrix files share the config document format: one YAML mapping."""
    doc = parse_yaml_mapping(source, "matrix file")
    _refuse_unknown("matrix", doc, TrialMatrix)

    circuits = doc.get("circuits")
    methods = doc.get("methods")
    if not circuits or not isinstance(circuits, list):
        raise ConfigError("matrix needs a non-empty 'circuits' list")
    if not methods or not isinstance(methods, list):
        raise ConfigError("matrix needs a non-empty 'methods' list")
    for m in methods:
        parse_method(str(m))

    trials = read_number("trials_per_cell", doc.get("trials_per_cell", DEFAULT_TRIALS), int)
    at_least_one("trials_per_cell", trials)
    seeds = doc.get("seeds")
    if seeds is not None:
        seeds = [read_number("seeds", s, int) for s in read_list("seeds", seeds)]
        if len(seeds) != trials:
            raise ConfigError(
                f"seeds length {len(seeds)} must equal trials_per_cell {trials}"
            )
    raw_budget = doc.get("budget", {})
    if not isinstance(raw_budget, dict):
        raise ConfigError("'budget' must be a mapping")
    _refuse_unknown("budget", raw_budget, RunBudget)
    budget = RunBudget(**{k: read_number(f"budget.{k}", v, int) for k, v in raw_budget.items()})
    return TrialMatrix(
        circuits=[str(c) for c in circuits],
        methods=[str(m) for m in methods],
        trials_per_cell=trials,
        seeds=seeds,
        base_seed=read_number("base_seed", doc.get("base_seed", 0), int),
        budget=budget,
    )


def load_matrix(path: str) -> TrialMatrix:
    return parse_matrix(Path(path).read_text())


def _trajectory(result: RunResult) -> List[tuple]:
    """Best FoM so far at each evaluation, by the rule of
    ``History.reported()``: the best feasible FoM once one exists, else
    the best FoM."""
    rows = []
    best = None
    for record in result.history.records:
        if is_valid(record) and (best is None or report_key(record) > report_key(best)):
            best = record
        rows.append((record.eval_index, None if best is None else best.fom))
    return rows


def _space_ranges(result: RunResult) -> List[tuple]:
    rows = []
    for space in result.space_generations:
        for var in space.full_grid:
            if var in space.active:
                values = space.active[var]
                rows.append((space.generation, var, min(values), max(values), False))
            else:
                pinned = space.fixed[var]
                rows.append((space.generation, var, pinned, pinned, True))
    return rows


def wilson(successes: int, n: int, z: float = Z95) -> Tuple[float, float]:
    """The Wilson score interval of a binomial proportion."""
    p = successes / n
    scale = 1 + z * z / n
    center = (p + z * z / (2 * n)) / scale
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / scale
    return max(0.0, center - half), min(1.0, center + half)


def _firsts(trials: List[dict]) -> List[float]:
    """Each trial's first feasible, inf when it found none."""
    return [math.inf if t["first_feasible"] is None else t["first_feasible"] for t in trials]


def _summarize(trials: List[dict], reference: Optional[List[dict]]) -> CellSummary:
    """Score a cell's trials against ``reference``, the first method's
    trials at the same seeds (None: this is that cell)."""
    valid = [t for t in trials if t["ok"] and t["fom"] is not None]

    def stats(key):  # mean and std over the valid trials
        xs = [t[key] for t in valid]
        return (statistics.fmean(xs), statistics.pstdev(xs)) if xs else (None, None)

    successes = sum(1 for t in trials if t["feasible"])
    firsts = _firsts(trials)
    median = statistics.median(firsts)
    paired = split = None
    if reference is not None:
        paired = [mine - theirs for mine, theirs in zip(firsts, _firsts(reference))]
        split = (sum(d < 0 for d in paired), sum(d == 0 for d in paired),
                 sum(d > 0 for d in paired))
    return CellSummary(
        *stats("fom"),
        *stats("evals"),
        *stats("time_s"),
        n_trials=len(trials),
        n_valid=len(valid),
        successes=successes,
        success_interval=wilson(successes, len(trials)),
        first_feasible=None if median == math.inf else median,
        never=firsts.count(math.inf),
        outcomes=dict(Counter(t["outcome"] for t in trials)),
        proposers=dict(Counter(m for t in trials for m in t["proposers"])),
        paired=paired,
        paired_split=split,
    )


def _method_slug(method: str) -> str:
    """One path component per method spelling, whatever it spells (a
    replay DIR): a spelling with other characters than ``[A-Za-z0-9_.+-]``
    has them replaced by ``-`` and a digest of the spelling appended, so
    ``replay:X/a/b`` and ``replay:X/a-b`` stay apart."""
    slug = re.sub(r"[^A-Za-z0-9_.+-]", "-", method)
    if slug == method:
        return slug
    return f"{slug}-{hashlib.sha256(method.encode()).hexdigest()[:16]}"


def run_matrix(
    matrix: TrialMatrix,
    *,
    out_dir: Optional[str] = None,
    workers: int = 1,
) -> dict:
    """Execute every cell x trial. Per-trial failures are recorded, never raised."""
    at_least_one("workers", workers)
    seeds = matrix.seed_list()
    cells = []
    for circuit_path in matrix.circuits:
        config = load_config(circuit_path)
        reference = None
        for method in matrix.methods:
            trials = []
            for seed in seeds:
                trial = {
                    "circuit": config.name,
                    "config": circuit_path,
                    "method": method,
                    "seed": seed,
                    "ok": False,
                    "error": None,
                    "fom": None,
                    "evals": 0,
                    "time_s": 0.0,
                    "feasible": False,
                    "outcome": "error",
                    "first_feasible": None,
                    "proposers": [],
                    "best_assignment": None,
                    "best_raw_metrics": None,
                    "trajectory": [],
                    "space_ranges": [],
                }
                trial_dir = None
                if out_dir:
                    slug = f"{config.name}__{_method_slug(method)}__s{seed}"
                    trial_dir = str(Path(out_dir) / "trials" / slug)
                try:
                    result = run_method(config, method, matrix.budget, seed,
                                        workers=workers, results_dir=trial_dir)
                except Exception as exc:  # a broken cell must not sink the matrix
                    trial["error"] = f"{type(exc).__name__}: {exc}"
                    trials.append(trial)
                    continue
                trial["ok"] = True
                trial["evals"] = result.evals_used
                trial["time_s"] = result.wall_time
                trial["outcome"] = result.outcome
                trial["trajectory"] = _trajectory(result)
                trial["space_ranges"] = _space_ranges(result)
                first = next((r for r in result.history.records if r.feasible), None)
                if first is not None:
                    trial["first_feasible"] = result.history.fresh_through(first.eval_index)
                trial["proposers"] = sorted({r.method for r in result.history.records})
                if result.best is not None:
                    trial["fom"] = result.best.fom
                    trial["best_assignment"] = dict(result.best.design.assignment)
                    trial["best_raw_metrics"] = dict(result.best.raw_metrics)
                    trial["feasible"] = result.best.feasible
                trials.append(trial)
            cells.append({"circuit": config.name, "config": circuit_path, "method": method,
                          "summary": asdict(_summarize(trials, reference)), "trials": trials})
            if reference is None:
                reference = trials
    report = {
        "matrix": {
            "circuits": list(matrix.circuits),
            "methods": list(matrix.methods),
            "trials_per_cell": matrix.trials_per_cell,
            "seeds": seeds,
            "budget": asdict(matrix.budget),
        },
        "cells": cells,
    }
    if out_dir:
        emit_reports(report, out_dir)
    return report


def _fmt_pm(mean: Optional[float], std: Optional[float], digits: int) -> str:
    if mean is None:
        return "n/a"
    return f"{mean:.{digits}f} ± {std:.{digits}f}"


def _fmt_counts(counts: Dict[str, int]) -> str:
    return ", ".join(f"{k} {v}" for k, v in sorted(counts.items())) or "-"


def render_table(report: dict) -> str:
    """Text table, one row per cell: FoM, Evals and Time as mean ± std,
    then the scores of ``CellSummary``, the paired ones as earlier/tied/
    later. Under it, one line per cell that is not the first method's,
    with its paired difference at each seed."""
    headers = ["circuit", "method", "FoM", "Evals", "Time (s)", "Success",
               "First feasible", "Never", "Outcomes", "Proposers", "Paired e/t/l"]
    rows = []
    paired = []
    for cell in report["cells"]:
        s = cell["summary"]
        low, high = s["success_interval"]
        rows.append(
            [
                cell["circuit"],
                cell["method"],
                _fmt_pm(s["fom_mean"], s["fom_std"], 4),
                _fmt_pm(s["evals_mean"], s["evals_std"], 1),
                _fmt_pm(s["time_mean_s"], s["time_std_s"], 2),
                f"{s['successes']}/{s['n_trials']} [{low:.4f}, {high:.4f}]",
                "never" if s["first_feasible"] is None else f"{s['first_feasible']:g}",
                str(s["never"]),
                _fmt_counts(s["outcomes"]),
                _fmt_counts(s["proposers"]),
                "-" if s["paired"] is None else "/".join(map(str, s["paired_split"])),
            ]
        )
        if s["paired"] is not None:
            paired.append(f"{cell['circuit']} {cell['method']}  " + " ".join(
                f"{seed}:{d:g}" for seed, d in zip(report["matrix"]["seeds"], s["paired"])))
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
             for r in [headers, ["-" * w for w in widths], *rows]]
    if paired:
        lines += ["", f"first feasible minus {report['matrix']['methods'][0]}'s, per seed:",
                  *paired]
    return "\n".join(lines) + "\n"


def emit_reports(report: dict, out_dir: str) -> None:
    """Write the structured document, the text table, and plot data files."""
    root = Path(out_dir) / "reports"
    root.mkdir(parents=True, exist_ok=True)
    (root / "matrix_results.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=float) + "\n")
    (root / "matrix_table.txt").write_text(render_table(report))
    # each plot file: its columns after the trial's, and a trial's rows
    plots = {
        "trajectories.csv": (
            ["eval_index", "best_fom_so_far"],
            lambda trial: ([i, "" if best is None else repr(best)]
                           for i, best in trial["trajectory"])),
        "space_ranges.csv": (
            ["generation", "variable", "min", "max", "fixed"],
            lambda trial: ([generation, var, repr(lo), repr(hi), fixed]
                           for generation, var, lo, hi, fixed in trial["space_ranges"])),
    }
    for name, (columns, rows) in plots.items():
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["circuit", "method", "seed", *columns])
        for cell in report["cells"]:
            for trial in cell["trials"]:
                writer.writerows([trial["circuit"], trial["method"], trial["seed"], *row]
                                 for row in rows(trial))
        (root / name).write_text(text.getvalue())
