"""Pluggable circuit evaluation with a content-addressed result cache.

Two evaluator kinds sit behind one interface: a SPICE subprocess runner
(batch-mode ngspice against rendered decks) and the analytic surrogate
bench. ``evaluate_batch`` assesses each fresh design against the spec
its config parsed (``BenchmarkConfig.spec``), and takes the run's result
cache. Results are cached in memory for the length of one run, keyed by
design identity (one run has one config and one evaluator), so a design
proposed again within the run is not simulated again. Cache hits cost zero
budget; failed simulations count against it (they cost real simulator
time).

Surrogate evaluations record a wall time of 0.0: they are effectively
free, and a fixed value keeps batch results field-for-field identical
whatever the worker count.

Only the SPICE path imports what it runs with: ``shutil`` (the
executable check), ``tempfile`` (the deck) and ``subprocess`` load on a
process's first SPICE batch. The thread pool loads on the first batch
that has more than one worker and more than one design to evaluate. A
surrogate run with one worker loads none of them.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .config import BenchmarkConfig, render_deck
from .core import (
    Design,
    EvaluatedDesign,
    FOM_METRIC,
    METRIC_MISSING,
    SIM_FAILED,
    SIM_OK,
    assess,
)
from .errors import ConfigError, SizerForgeError
from .surrogates import get_model

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# print-style and meas-style lines share one shape: name, optional index
# decoration, '=', number. Case-insensitive, last occurrence wins.
_METRIC_LINE = re.compile(
    rf"^\s*([A-Za-z_][A-Za-z0-9_]*)(?:\[\d+\])?\s*=\s*({_NUMBER})\s*$",
    re.MULTILINE,
)


@dataclass(frozen=True)
class EvaluatorSpec:
    kind: str  # "spice" | "surrogate"
    executable: str = "ngspice"
    timeout_s: float = 60.0
    workdir: Optional[str] = None
    model_id: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("spice", "surrogate"):
            raise ValueError(f"unknown evaluator kind {self.kind!r}")
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if self.kind == "surrogate" and not self.model_id:
            raise SizerForgeError("surrogate evaluator needs a model id")


def evaluator_from_config(config: BenchmarkConfig, kind: Optional[str] = None) -> EvaluatorSpec:
    """The evaluator of a config: ``surrogate`` in the passthrough
    `evaluator` key selects the surrogate bench, else SPICE. ``kind``,
    when given, stands in for that key."""
    if (kind or config.passthrough.get("evaluator")) == "surrogate":
        model_id = config.passthrough.get("surrogate_model")
        if model_id is None:
            raise ConfigError("evaluator: surrogate needs a surrogate_model key in the config")
        return EvaluatorSpec(kind="surrogate", model_id=str(model_id))
    return EvaluatorSpec(kind="spice")


@dataclass(frozen=True)
class MetricScrape:
    values: Dict[str, float]
    missing: List[str]


def scrape_metrics(log: str, expected: Sequence[str]) -> MetricScrape:
    """Pull `name = number` metric lines out of a simulator log.

    Metric names match case-insensitively and the last occurrence wins;
    numbers are plain-exponent form (ngspice batch output), engineering
    suffixes are not parsed. Absent metrics land in ``missing``, never
    raise.
    """
    found: Dict[str, float] = {}
    wanted = {name.lower(): name for name in expected}
    for match in _METRIC_LINE.finditer(log):
        name = match.group(1).lower()
        if name in wanted:
            found[wanted[name]] = float(match.group(2))
    missing = [name for name in expected if name not in found]
    return MetricScrape(values=found, missing=missing)


def surrogate_eval(model_id: str, assignment: Mapping[str, float]) -> Dict[str, float]:
    """Closed-form metrics for one assignment; pure and deterministic."""
    return get_model(model_id).metrics(assignment)


class ResultCache:
    """In-memory, content-addressed store of scrape outcomes for one run.

    One cache serves one run, and so one spec: an entry keeps the
    ``assess`` outcome of its metrics, ``(fom, feasible, normalized)``,
    from the batch that simulated it, for every record of the design.
    """

    def __init__(self):
        self._memory: Dict[str, dict] = {}

    @staticmethod
    def key_for(design: Design) -> str:
        # one run has one config and one evaluator, so the design is the key
        return design.id

    def get(self, key: str) -> Optional[dict]:
        return self._memory.get(key)

    def put(self, key: str, entry: dict) -> None:
        self._memory[key] = entry


def _core_metric_names(config: BenchmarkConfig) -> List[str]:
    return [m for m in config.metrics if m != FOM_METRIC]


def _simulate(evaluator: EvaluatorSpec, deck_path: str) -> Tuple[str, str, str]:
    """Run the simulator on a deck: (log, status, reason). An executable
    that cannot be started, a non-zero exit and a timeout each fail the
    simulation, not the run."""
    import subprocess

    try:
        # bytes that are not UTF-8 become U+FFFD, in the scraped text and the kept log
        proc = subprocess.run(
            [evaluator.executable, "-b", deck_path],
            capture_output=True,
            encoding="utf-8",
            errors="replace",
            timeout=evaluator.timeout_s,
        )
    except subprocess.TimeoutExpired as exc:
        # the output read before the timeout is bytes, whatever the
        # encoding; it is joined as on exit, stdout then stderr
        raw_log = (exc.stdout or b"") + b"\n" + (exc.stderr or b"")
        return raw_log.decode("utf-8", "replace"), SIM_FAILED, "timeout"
    except OSError as exc:
        return "", SIM_FAILED, f"simulator did not start: {exc.strerror or exc}"
    raw_log = proc.stdout + "\n" + proc.stderr
    if proc.returncode:
        return raw_log, SIM_FAILED, f"exit status {proc.returncode}"
    return raw_log, SIM_OK, ""


def _run_spice(config: BenchmarkConfig, design: Design,
               evaluator: EvaluatorSpec, keep_log_dir: Optional[Path]) -> Tuple[dict, float]:
    """One simulator invocation; returns (cache entry, wall seconds)."""
    import tempfile

    deck = render_deck(config, design.assignment)
    started = time.perf_counter()
    workdir = evaluator.workdir or tempfile.gettempdir()
    deck_path = None
    try:
        fd, deck_path = tempfile.mkstemp(
            prefix=f"deck_{design.id}_", suffix=".sp", dir=workdir
        )
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(deck.testbench_text)
        raw_log, status, reason = _simulate(evaluator, deck_path)
    finally:
        if deck_path and os.path.exists(deck_path):
            os.unlink(deck_path)
    elapsed = time.perf_counter() - started

    values: Dict[str, float] = {}
    if status == SIM_OK:
        scrape = scrape_metrics(raw_log, config.metrics)
        values = scrape.values
        if any(m in scrape.missing for m in _core_metric_names(config)):
            status = METRIC_MISSING
            reason = f"missing metrics: {[m for m in scrape.missing if m != FOM_METRIC]}"
    if keep_log_dir:
        (keep_log_dir / f"{design.id}.log").write_text(raw_log, encoding="utf-8")
    return {"raw_metrics": values, "sim_status": status, "reason": reason}, elapsed


def _evaluator(config, evaluator, keep_log_dir):
    """A function of one design that gives its (cache entry, wall
    seconds); a surrogate's model is looked up once, here."""
    if evaluator.kind == "surrogate":
        metrics = get_model(evaluator.model_id).metrics
        return lambda design: ({"raw_metrics": metrics(design.assignment),
                                "sim_status": SIM_OK, "reason": ""}, 0.0)
    return lambda design: _run_spice(config, design, evaluator, keep_log_dir)


def evaluate_batch(
    config: BenchmarkConfig,
    designs: Sequence[Design],
    evaluator: EvaluatorSpec,
    *,
    cache: ResultCache,
    start_eval_index: int = 1,
    iteration: int = 0,
    method: str = "",
    workers: int = 1,
    keep_logs: bool = False,
    results_dir: Optional[str] = None,
) -> List[EvaluatedDesign]:
    """Evaluate a batch of designs, preserving input order in the output.

    Cache hits (including a duplicate design later in the same batch)
    are marked ``cached`` and carry zero wall time; only the first
    occurrence runs. Individual failures become ``sim_failed`` or
    ``metric_missing`` records, with the failure's ``reason``, and never
    abort the batch. A missing SPICE executable aborts up
    front with a SizerForgeError.
    """
    if evaluator.kind == "spice":
        import shutil

        if shutil.which(evaluator.executable) is None:
            raise SizerForgeError(
                f"spice executable {evaluator.executable!r} not found on PATH; "
                "install it or select the surrogate evaluator"
            )
    keep_log_dir = Path(results_dir) / "logs" if (keep_logs and results_dir) else None

    keys = [ResultCache.key_for(d) for d in designs]
    # the first occurrence of each key the cache lacks runs; every other
    # record, a later repeat in this batch included, is a cache hit
    entries = {key: cache.get(key) for key in keys}
    first: Dict[str, int] = {}
    for i, key in enumerate(keys):
        if entries[key] is None:
            first.setdefault(key, i)
    if keep_log_dir and first and evaluator.kind == "spice":
        keep_log_dir.mkdir(parents=True, exist_ok=True)  # once per batch, for ``_run_spice``

    evaluate = _evaluator(config, evaluator, keep_log_dir) if first else None
    if workers > 1 and len(first) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {key: pool.submit(evaluate, designs[i]) for key, i in first.items()}
            fresh = {key: future.result() for key, future in futures.items()}
    else:
        fresh = {key: evaluate(designs[i]) for key, i in first.items()}
    spec = config.spec
    for key, (entry, _) in fresh.items():
        # each design is assessed once, when it is simulated
        entry["assessed"] = (assess(spec, entry["raw_metrics"]) if entry["sim_status"] == SIM_OK
                             else (None, False, {}))
        cache.put(key, entry)
        entries[key] = entry

    # the records of a key share its entry's mappings: nothing writes them;
    # built positionally, in ``EvaluatedDesign``'s field order
    records: List[EvaluatedDesign] = []
    for i, (design, key) in enumerate(zip(designs, keys)):
        entry = entries[key]
        hit = first.get(key) != i
        fom, feasible, normalized = entry["assessed"]
        records.append(EvaluatedDesign(
            design, entry["raw_metrics"], normalized, fom, feasible, entry["sim_status"],
            iteration, method, start_eval_index + i, 0.0 if hit else fresh[key][1], hit,
            entry["reason"]))
    return records
