#!/usr/bin/env python3
"""sizerforge benchmark: one workload per invocation, from the repo root.

    python3 perfbench/run.py --workload paper_matrix --seed 0 --seconds 10 --trace 0

Trials run in blocks: one trial per cell of the workload, all cells of a
block sharing one trial seed drawn from ``--seed``. A fixed number of
blocks gives the quality metrics. With ``--trace 0`` the blocks are
re-run until ``--seconds`` have passed, and ``ms_per_eval`` comes from
each trial's fastest pass (``metrics.ms_per_eval``). With
``--trace 1`` the quality blocks run untraced and traced, twice each, and
the first traced pass gives the per-layer metrics. Every trial is
checked (``metrics.check_trial``, repeat digests, the SPICE twin); a
failed check makes the run exit 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
SRC = ROOT / "src"

if not (SRC / "sizerforge" / "__init__.py").is_file():
    sys.exit(f"perfbench: no sizerforge package under {SRC}; run from the repo root")
sys.path.insert(0, str(SRC))

from sizerforge import (  # noqa: E402
    EvaluatorSpec,
    RuleBackend,
    RunBudget,
    enumerate_oracle,
    get_model,
    load_config,
    run,
    run_baseline,
)

import metrics as m  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5
MAX_REPORTED = 20  # failure lines printed per run
# metrics.reference_seconds() on a quiet host (Intel Xeon, 2 vCPUs); the
# same host ran it up to twice as slow while other tenants were busy
REFERENCE_QUIET_S = 0.00045
GAUGE_SAMPLES = 3  # reference runs on each side of a timed trial
# Interpreter start-up slows less than pure-Python work on a busy host,
# so set-up is gauged by a fixed import in a fresh interpreter instead;
# its time on the quiet host above:
REFERENCE_IMPORT_QUIET_S = 0.85
METHODS = ("lhs", "genetic", "bayesian", "adaptive", "annealing", "multistart",
           "ga_baseline", "bo_baseline", "turbo_baseline")
STANDIN = HERE / "bin" / "ngspice"


@dataclass(frozen=True)
class Workload:
    cells: Tuple[Tuple[str, str], ...]  # (config path from the repo root, method)
    budget: int
    blocks: int  # behind the quality metrics, and re-run for ms_per_eval
    workers: int = 1
    spice: bool = False


def _cells(paths, methods):
    return tuple((p, meth) for p in paths for meth in methods)


WORKLOADS: Dict[str, Workload] = {
    "paper_matrix": Workload(
        cells=_cells([f"configs/{c}.yaml" for c in ("sota_easy", "sota_med", "sota_hard")],
                     ("autosizer", "lhs", "ga_baseline", "turbo_baseline")),
        budget=300,
        blocks=20,
    ),
    "bo_grid": Workload(
        cells=_cells(["configs/sota_med.yaml", "configs/sota_hard.yaml"], ("bo_baseline",)),
        budget=40,
        blocks=6,
    ),
    "spice_standin": Workload(
        cells=_cells([f"perfbench/configs/{c}_spice.yaml" for c in ("sota_med", "sota_hard")],
                     ("autosizer", "lhs")),
        budget=30,
        blocks=6,
        workers=2,
        spice=True,
    ),
}

# names, units and directions of every metric live in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
# end-to-end quantities whose spread across seeds, or zero value, rules
# out a bound: every run prints them, and the traced run reports them
UNBOUNDED = ("success_rate", "oracle_gap_pct", "evals_to_feasible_p50",
             "failed_trial_frac", "sim_failed_frac")


@dataclass
class Trial:
    cell: Tuple[str, str]
    seed: int
    wall: float = 0.0
    gauge: float = REFERENCE_QUIET_S  # median reference time just before and after it
    fresh: int = 0
    passed: bool = False
    gap: float = 100.0
    etf: int = 0
    sim_failed: int = 0
    fallbacks: int = 0
    stalls: int = 0
    digest: str = ""
    problems: List[str] = field(default_factory=list)


class Bench:
    def __init__(self, workload: Workload, name: str):
        self.workload = workload
        self.name = name
        self.budget = RunBudget(total_evals=workload.budget)
        self.configs = {path: load_config(str(ROOT / path)) for path, _ in workload.cells}
        self.models = {p: c.passthrough.get("surrogate_model", c.name) for p, c in self.configs.items()}
        self.oracle = {p: enumerate_oracle(get_model(self.models[p])).best_fom for p in self.configs}
        self.spice: Optional[EvaluatorSpec] = None
        self.problems: List[str] = []
        self.twins: Dict[Tuple[int, Tuple[str, str]], str] = {}  # surrogate twin digests
        self.runs = 0
        if workload.spice:
            self.spice = self._spice_evaluator()
            self.problems += m.check_standin(STANDIN, self.configs.values())

    def _spice_evaluator(self) -> EvaluatorSpec:
        """The stand-in, launched by this interpreter without site imports."""
        (WORK / "bin").mkdir(parents=True, exist_ok=True)
        (WORK / "decks").mkdir(parents=True, exist_ok=True)
        body = STANDIN.read_text(encoding="utf-8").split("\n", 1)[1]
        launcher = WORK / "bin" / "ngspice"
        launcher.write_text(f"#!{sys.executable} -IS\n{body}", encoding="utf-8")
        launcher.chmod(0o755)
        return EvaluatorSpec(kind="spice", executable=str(launcher), workdir=str(WORK / "decks"))

    def _call(self, path: str, method: str, seed: int, evaluator=None, results_dir=None):
        config = self.configs[path]
        kwargs = dict(workers=self.workload.workers)
        if evaluator is not None:
            kwargs["evaluator"] = evaluator
        if results_dir is not None:
            kwargs.update(keep_logs=True, results_dir=results_dir)
        if method == "autosizer":
            backend = RuleBackend()
            return backend, lambda: run(config, self.budget, backend, seed, **kwargs)
        return None, lambda: run_baseline(config, method, self.budget, seed, **kwargs)

    def trial(self, cell: Tuple[str, str], seed: int, tracer: Optional[Tracer] = None) -> Trial:
        path, method = cell
        out = Trial(cell, seed)
        self.runs += 1
        results_dir = str(WORK / self.name / f"t{self.runs:05d}") if self.spice else None
        try:
            backend, call = self._call(path, method, seed, self.spice, results_dir)
            before = gauge_samples()
            start = time.perf_counter()
            result = tracer.trial(call) if tracer else call()
            out.wall = time.perf_counter() - start
            out.gauge = statistics.median(before + gauge_samples())
            self._assess(out, result, backend)
            if self.spice and tracer is None and (seed, cell) not in self.twins:
                # the first untraced pass checks the twin; repeats must match that pass
                surrogate = EvaluatorSpec(kind="surrogate", model_id=self.models[path])
                twin = self._call(path, method, seed, surrogate)[1]()
                self.twins[(seed, cell)] = m.digest(twin.decisions, twin.history)
                if self.twins[(seed, cell)] != out.digest:
                    out.problems.append("SPICE trial differs from its surrogate twin")
        except Exception as exc:  # a broken trial is reported, not fatal
            out.problems.append(f"{type(exc).__name__}: {exc}")
        return out

    def _assess(self, out: Trial, result, backend) -> None:
        path, _ = out.cell
        reported = m.reported_design(result.history, result.best)
        out.fresh = result.evals_used
        out.passed = reported is not None and reported.feasible
        out.gap = m.gap_pct(self.oracle[path], reported.fom if reported else None)
        out.etf = m.evals_to_feasible(result.history, self.workload.budget)
        out.sim_failed = sum(1 for r in result.history.records
                             if not r.cached and r.sim_status != "ok")
        out.fallbacks = len(backend.fallbacks) if backend else 0
        out.stalls = sum(1 for d in result.decisions if d.get("event") == "method_stalled")
        out.digest = m.digest(result.decisions, result.history)
        out.problems += m.check_trial(result, self.configs[path], self.workload.budget,
                                      reported, self.oracle[path])


SETUP_CODE = """
import sys, time, json
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sizerforge
imported = time.perf_counter()
for path in sys.argv[2:]:
    sizerforge.load_config(path)
print(json.dumps([imported - start, time.perf_counter() - imported]))
"""


# scipy.stats dominates the package's own import today, so it slows the
# same way on a busy host; it imports nothing of sizerforge, so no change
# to the package moves it
REFERENCE_IMPORT_CODE = """
import time, json
start = time.perf_counter()
import scipy.stats
print(json.dumps([time.perf_counter() - start]))
"""


def gauge_samples() -> List[float]:
    return [m.reference_seconds() for _ in range(GAUGE_SAMPLES)]


def child_seconds(*args: str) -> List[float]:
    """The times a fresh interpreter prints as its last line."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(paths: List[str]) -> Tuple[float, float, float, float]:
    """Median (total, import, config, reference) seconds over fresh interpreters.

    Each child's times are scaled to a quiet host by the reference
    import, run in a fresh interpreter just before it; the reference
    time itself is returned unscaled.
    """
    samples, references = [], []
    for _ in range(SETUP_REPEATS):
        [reference] = child_seconds("-c", REFERENCE_IMPORT_CODE)
        scale = REFERENCE_IMPORT_QUIET_S / reference
        times = child_seconds("-c", SETUP_CODE, str(SRC), *(str(ROOT / p) for p in paths))
        samples.append([t * scale for t in times])
        references.append(reference)
    total = statistics.median(a + b for a, b in samples)
    return (total, statistics.median(a for a, _ in samples),
            statistics.median(b for _, b in samples), statistics.median(references))


def quality(trials: List[Trial]) -> Dict[str, float]:
    fresh = sum(t.fresh for t in trials)
    return {
        "success_rate": sum(t.passed for t in trials) / len(trials),
        "oracle_gap_pct": statistics.fmean(t.gap for t in trials),
        "evals_to_feasible_p50": statistics.median(t.etf for t in trials),
        "sim_failed_frac": sum(t.sim_failed for t in trials) / max(1, fresh),
    }


def layer_metrics(tracer: Tracer, trials: List[Trial]) -> Dict[str, float]:
    sec, cnt = tracer.seconds, tracer.counts
    unknown = {k for k in cnt if k.startswith("optim.propose.")} - {
        f"optim.propose.{meth}" for meth in METHODS}
    if unknown:
        raise RuntimeError(f"propose called for methods with no metric: {sorted(unknown)}")
    out: Dict[str, float] = {}
    for meth in METHODS:
        out[f"optim.propose.{meth}.s"] = sec[f"optim.propose.{meth}"]
        out[f"optim.propose.{meth}.calls"] = int(cnt[f"optim.propose.{meth}"])
    out.update({
        "optim.gp.fit.s": sec["optim.gp.fit"],
        "optim.gp.fit.calls": int(cnt["optim.gp.fit"]),
        "optim.gp.predict.s": sec["optim.gp.predict"],
        "optim.gp.predict.rows": int(cnt["optim.gp.predict.rows"]),
        "optim.proposed": int(cnt["optim.proposed"]),
        "optim.useful_frac": m.useful_frac(int(cnt["controller.fresh_evals"]), int(cnt["optim.proposed"])),
        "optim.empty_proposals": int(cnt["optim.empty_proposals"]),
        "optim.insufficient_history_fallbacks": int(cnt["optim.insufficient_history_fallbacks"]),
        "evaluation.batch.s": sec["evaluation.batch"],
        "evaluation.key.s": sec["evaluation.key"],
        "evaluation.cache_hit_frac": cnt["evaluation.cached"] / max(1, cnt["evaluation.records"]),
        "evaluation.sim.s": sec["evaluation.sim"],
        "evaluation.parallel_eff": sec["evaluation.sim"] / sec["evaluation.batch_worker"]
        if sec["evaluation.batch_worker"] else 0.0,
        "evaluation.sim_failed": int(cnt["evaluation.sim_failed"]),
        "diagnostics.analyze.s": sec["diagnostics.analyze"],
        "diagnostics.analyze.calls": int(cnt["diagnostics.analyze"]),
        "diagnostics.render.s": sec["diagnostics.render"],
    })
    for op in ("understand", "plan", "decide_inner", "decide_outer"):
        out[f"agents.{op}.s"] = sec[f"agents.{op}"]
    out.update({
        "agents.fallbacks": sum(t.fallbacks for t in trials),
        "controller.self_s": sec["controller.self"],
        "controller.batches": int(cnt["evaluation.batch"]),
        "controller.fresh_evals": int(cnt["controller.fresh_evals"]),
        "controller.stall_stops": sum(t.stalls for t in trials),
    })
    return out


Blocks = List[List[Trial]]


def run_blocks(bench: Bench, seeds: List[int], tracer: Optional[Tracer] = None) -> Blocks:
    return [[bench.trial(cell, seed, tracer) for cell in bench.workload.cells] for seed in seeds]


def scaled_wall(t: Trial) -> float:
    """Trial wall time on a quiet host: scaled by REFERENCE_QUIET_S over its gauge."""
    return t.wall * REFERENCE_QUIET_S / t.gauge


def ms_per_eval(passes: List[Blocks], scaled: bool = True) -> float:
    wall = scaled_wall if scaled else (lambda t: t.wall)
    return m.ms_per_eval([[[(wall(t), t.fresh) for t in b] for b in p] for p in passes])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        return measure(args, workload)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def measure(args, workload: Workload) -> int:
    paths = sorted({p for p, _ in workload.cells})
    setup_s, import_s, config_s, reference_s = measure_setup(paths)
    bench = Bench(workload, args.workload)

    rng = random.Random(args.seed)
    warmup = run_blocks(bench, [rng.randrange(2**31)])  # caches and lazy imports; not timed
    seeds = [rng.randrange(2**31) for _ in range(workload.blocks)]

    start = time.perf_counter()
    first = run_blocks(bench, seeds)
    if args.trace:
        # untraced and traced passes alternate, twice, so that drift in
        # machine speed falls on both sides of the overhead
        tracer = Tracer()
        with tracer.installed():
            traced = [run_blocks(bench, seeds, tracer)]
        untraced = [first, run_blocks(bench, seeds)]
        second = Tracer()
        with second.installed():
            traced.append(run_blocks(bench, seeds, second))
        repeats = untraced[1:] + traced
    else:
        # re-run the blocks until --seconds have passed; each trial keeps
        # its fastest pass, which discounts spells of a slow machine
        untraced = [first]
        while True:
            untraced.append(run_blocks(bench, seeds))
            if time.perf_counter() - start >= args.seconds:
                break
        repeats = untraced[1:]

    digests = {(t.seed, t.cell): t.digest for block in first for t in block}
    for again in repeats:
        for t in (t for block in again for t in block):
            if t.digest != digests[(t.seed, t.cell)]:
                t.problems.append("a repeat gave another decision/history digest")

    trials = [t for blocks in [warmup, first, *repeats] for block in blocks for t in block]
    failed = [t for t in trials if t.problems]
    lines = [f"{t.cell[1]} on {t.cell[0]} seed {t.seed}: {p}" for t in failed for p in t.problems]
    for line in (bench.problems + lines)[:MAX_REPORTED]:
        print(f"FAILED {line}", file=sys.stderr)
    if len(bench.problems + lines) > MAX_REPORTED:
        print(f"FAILED ... {len(bench.problems + lines) - MAX_REPORTED} more", file=sys.stderr)

    values = {
        "setup_s": setup_s,
        "ms_per_eval": ms_per_eval(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_trial_frac": len(failed) / len(trials),
        **quality([t for block in first for t in block]),
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(workload.cells)} cells x {workload.blocks} blocks, "
          f"{len(untraced)} untraced passes")
    for name in (*END_TO_END, *UNBOUNDED):
        unit = END_TO_END.get(name) or PER_LAYER[name]
        print(f"  {name:<24} {values[name]:>14.6g} {unit}")
    gauge = statistics.median(t.gauge for p in untraced for b in p for t in b)
    print(f"  unscaled ms_per_eval {ms_per_eval(untraced, scaled=False):.6g} ms; gauge median "
          f"{gauge * 1e3:.4f} ms against {REFERENCE_QUIET_S * 1e3:.4f} ms on a quiet host")
    print(f"  setup reference import median {reference_s:.4f} s against "
          f"{REFERENCE_IMPORT_QUIET_S:.2f} s on a quiet host")

    if args.trace:
        def best(passes: List[Blocks]) -> float:
            return sum(min(scaled_wall(p[i][c]) for p in passes)
                       for i in range(len(seeds)) for c in range(len(workload.cells)))

        best_untraced, best_traced = best(untraced), best(traced)
        reported = layer_metrics(tracer, [t for block in traced[0] for t in block])
        reported.update({
            "setup.import.s": import_s,
            "setup.config.s": config_s,
            "trace.overhead_pct": 100.0 * (best_traced / best_untraced - 1.0),
            **{name: values[name] for name in UNBOUNDED},
        })
        wall = sum(t.wall for block in traced[0] for t in block)
        gp = reported["optim.gp.fit.s"] + reported["optim.gp.predict.s"]
        print(f"  traced pass {wall:.3f} s; share of it: optim.gp {gp / wall:.3f}, "
              f"evaluation.batch {reported['evaluation.batch.s'] / wall:.3f}, "
              f"controller.self {reported['controller.self_s'] / wall:.3f}")
        for name, value in reported.items():
            print(f"  {name:<40} {value:>14.6g}")
        units = PER_LAYER
    else:
        reported = {name: values[name] for name in END_TO_END}
        units = END_TO_END

    if set(reported) != set(units):
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {set(reported) ^ set(units)}")
    ok = not failed and not bench.problems
    print(json.dumps({
        "correct": ok,
        "attempted": len(trials),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
