"""Digest the artefacts of a fixed run matrix, to tell whether two checkouts behave the same.

    python3 tools/artefact_digests.py SRC > digests.json

SRC is the ``src`` directory of a checkout: its ``sizerforge`` is the
package that runs, and the ``configs`` directory next to SRC supplies the
configs. For each run of the matrix the tool writes the artefacts to a
temporary directory and takes one sha256 over ``decision_log.jsonl``,
``history.jsonl``, ``space_gen*.json``, ``loop*_report.txt`` and
``result.json`` without its ``wall_time``. It prints a JSON map from run
name to digest and reports the run count and the sha256 of the map, as
printed, on stderr. Two checkouts make the same picks on the matrix when
their maps are equal:

    python3 tools/artefact_digests.py parent/src > parent.json
    python3 tools/artefact_digests.py src > change.json
    cmp parent.json change.json

The matrix: the four baselines of ``controller.BASELINES`` and the
two-loop ``run`` with the rule backend (plain, ``no_oe``, ``no_ssd``,
one outer loop and ``cycle``) on sota_easy, sota_med and sota_hard, at
60 and 300 evaluations, plus bo_baseline at 150, seeds 0-2: 171 runs.
The ``cycle`` runs keep the rule policy's plan and outer loop, but their
inner decision cycles the six orchestrated methods, 12 samples each with
default parameters, and their spec asks for ``fom > 1000`` in place of
any ``fom`` clause (or besides the others, where it has none), so no run
stops on feasibility and every method proposes on a growing history. A
run that raises is recorded as ``error:`` with the exception. BLAS runs
on one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise, so the
Bayesian picks do not depend on the host's core count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

CONFIGS = ("sota_easy", "sota_med", "sota_hard")
RUNS = ("run", "run_no_oe", "run_no_ssd", "run_one_loop", "run_cycle")
CYCLE_SAMPLES = 12
BUDGETS = (60, 300)
SEEDS = (0, 1, 2)
PATTERNS = ("decision_log.jsonl", "history.jsonl", "space_gen*.json", "loop*_report.txt")


def matrix(baselines):
    """(method, config, total evaluations, seed) of every run, in print order."""
    for name in CONFIGS:
        for method in (*baselines, *RUNS):
            budgets = (60, 150, 300) if method == "bo_baseline" else BUDGETS
            for total in budgets:
                for seed in SEEDS:
                    yield method, name, total, seed


def digest(results_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted({p for pattern in PATTERNS for p in results_dir.glob(pattern)}):
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    result = json.loads((results_dir / "result.json").read_text())
    result.pop("wall_time")
    h.update(b"result.json\n" + json.dumps(result, sort_keys=True).encode())
    return h.hexdigest()


def cycle_backend(sizerforge):
    """A rule backend whose inner decision cycles the orchestrated methods."""
    methods = sizerforge.optim.pool.ORCHESTRATED

    class CycleBackend(sizerforge.agents.RuleBackend):
        def __init__(self):
            super().__init__()
            self.turns = 0

        def decide_inner(self, report, remaining, space, config):
            method = methods[self.turns % len(methods)]
            self.turns += 1
            return {"action": "search", "method": method, "n_samples": CYCLE_SAMPLES,
                    "parameters": {}, "reasoning": "cycle the orchestrated methods",
                    "confidence": "medium", "expected_improvement": "incremental",
                    "convergence_assessment": "not assessed"}

    return CycleBackend()


def unreachable_fom(config):
    """The config with its spec's ``fom`` clause, if any, replaced by ``fom > 1000``."""
    clauses = [c for c in config.user_specs_metric.split(" AND ") if not c.startswith("fom ")]
    return dataclasses.replace(config, user_specs_metric=" AND ".join(["fom > 1000"] + clauses))


def run_one(sizerforge, config, method: str, total: int, seed: int, out: Path) -> None:
    controller = sizerforge.controller
    if method in controller.BASELINES:
        controller.run_baseline(config, method, controller.RunBudget(total_evals=total), seed,
                                results_dir=str(out))
        return
    budget = controller.RunBudget(total_evals=total)
    if method == "run_one_loop":
        budget = controller.RunBudget(total_evals=total, max_outer_loops=1)
    backend = sizerforge.agents.RuleBackend()
    if method == "run_cycle":
        config, backend = unreachable_fom(config), cycle_backend(sizerforge)
    flags = {method[len("run_"):]: True} if method in ("run_no_oe", "run_no_ssd") else {}
    controller.run(config, budget, backend, seed, results_dir=str(out), **flags)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    import sizerforge.agents
    import sizerforge.config
    import sizerforge.controller
    import sizerforge.optim.pool

    configs = {name: sizerforge.config.load_config(str(src.parent / "configs" / f"{name}.yaml"))
               for name in CONFIGS}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for method, name, total, seed in matrix(sizerforge.controller.BASELINES):
            key = f"{method}/{name}/{total}/seed{seed}"
            out = Path(tmp) / key.replace("/", "_")
            try:
                run_one(sizerforge, configs[name], method, total, seed, out)
                digests[key] = digest(out)
            except Exception as exc:  # recorded, so both sides must fail alike
                digests[key] = f"error: {type(exc).__name__}: {exc}"
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    sys.stdout.write(text)
    print(f"{len(digests)} runs, sha256 {hashlib.sha256(text.encode()).hexdigest()}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
