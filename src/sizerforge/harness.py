"""Trial orchestration: circuits x methods x seeded trials.

A matrix file names circuits (config paths) and methods, and each cell
runs trials_per_cell seeded trials through ``controller.run_method``. A
method is spelled as ``sizerforge run --method`` takes it: a baseline
name or ``autosizer[:BACKEND][+ABLATION]``, so the paper's ablation
rows are matrix methods like any other. Summaries
follow the usual benchmark table shape: FoM, evaluations and wall time
as mean +/- std over the trials that produced a result, and a success
rate over all trials, where a crashed trial counts as a failure.

Each trial reports the design its run hands back (``RunResult.best``,
which is ``History.reported()``): the best design that meets the spec,
else the best by figure of merit. A trial succeeds when that design
meets the spec, which is the record's own ``feasible`` flag from
``core.assess``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import statistics
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import List, Optional

import yaml

from .config import load_config, read_list, read_number
from .controller import RunBudget, RunResult, parse_method, run_method
from .core import is_valid, report_key
from .errors import ConfigError

DEFAULT_TRIALS = 3


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
    fom_mean: Optional[float]
    fom_std: Optional[float]
    evals_mean: Optional[float]
    evals_std: Optional[float]
    time_mean_s: Optional[float]
    time_std_s: Optional[float]
    sr_pct: float
    n_trials: int
    n_valid: int


def parse_matrix(source: str) -> TrialMatrix:
    """Matrix files share the config document format: one YAML mapping."""
    try:
        doc = yaml.safe_load(source)
    except yaml.YAMLError as exc:
        raise ConfigError(f"matrix file is not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("matrix file must be a YAML mapping")

    circuits = doc.get("circuits")
    methods = doc.get("methods")
    if not circuits or not isinstance(circuits, list):
        raise ConfigError("matrix needs a non-empty 'circuits' list")
    if not methods or not isinstance(methods, list):
        raise ConfigError("matrix needs a non-empty 'methods' list")
    for m in methods:
        parse_method(str(m))

    trials = read_number("trials_per_cell", doc.get("trials_per_cell", DEFAULT_TRIALS), int)
    if trials < 1:
        raise ConfigError("trials_per_cell must be at least 1")
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
    unknown = set(raw_budget) - {f.name for f in fields(RunBudget)}
    if unknown:
        raise ConfigError(f"unknown budget keys {sorted(unknown)}")
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


def _summarize(trials: List[dict]) -> CellSummary:
    valid = [t for t in trials if t["ok"] and t["fom"] is not None]

    def stats(key):
        xs = [t[key] for t in valid]
        if not xs:
            return None, None
        return statistics.fmean(xs), statistics.pstdev(xs)

    fom_mean, fom_std = stats("fom")
    evals_mean, evals_std = stats("evals")
    time_mean, time_std = stats("time_s")
    feasible = sum(1 for t in trials if t["feasible"])
    return CellSummary(
        fom_mean=fom_mean,
        fom_std=fom_std,
        evals_mean=evals_mean,
        evals_std=evals_std,
        time_mean_s=time_mean,
        time_std_s=time_std,
        sr_pct=100.0 * feasible / len(trials),
        n_trials=len(trials),
        n_valid=len(valid),
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
    seeds = matrix.seed_list()
    cells = []
    for circuit_path in matrix.circuits:
        config = load_config(circuit_path)
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
                    "outcome": None,
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
                if result.best is not None:
                    trial["fom"] = result.best.fom
                    trial["best_assignment"] = dict(result.best.design.assignment)
                    trial["best_raw_metrics"] = dict(result.best.raw_metrics)
                    trial["feasible"] = result.best.feasible
                trials.append(trial)
            cells.append(
                {
                    "circuit": config.name,
                    "config": circuit_path,
                    "method": method,
                    "summary": asdict(_summarize(trials)),
                    "trials": trials,
                }
            )
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


def render_table(report: dict) -> str:
    """Text table in the usual benchmark layout: FoM, Evals, Time, SR%."""
    headers = ["circuit", "method", "FOM", "Evals", "Time (s)", "SR%"]
    rows = []
    for cell in report["cells"]:
        s = cell["summary"]
        rows.append(
            [
                cell["circuit"],
                cell["method"],
                _fmt_pm(s["fom_mean"], s["fom_std"], 4),
                _fmt_pm(s["evals_mean"], s["evals_std"], 1),
                _fmt_pm(s["time_mean_s"], s["time_std_s"], 2),
                f"{s['sr_pct']:.1f}",
            ]
        )
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
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
