"""Golden run artefacts: the baselines and the two-loop run, byte for byte.

``tests/data/artefact_digests.json`` is the map ``tools/artefact_digests.py``
prints for its 171-run matrix: one digest per run over
``decision_log.jsonl``, ``history.jsonl``, ``space_gen*.json``,
``loop*_report.txt`` and ``result.json`` without its ``wall_time``. The
last test runs the matrix and names every run whose digest differs, so a
change that moves any pick fails there; the tool's docstring says how to
re-record the map.

The per-case tests check single runs against their entries with the
tool's own ``digest``: each case on two workers, through ``run`` and
its ablation keywords for the two-loop run, and the two-loop run also
through its ``run_method`` spelling, as the matrix runs it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from sizerforge.agents import RuleBackend
from sizerforge.config import load_config
from sizerforge.controller import RunBudget, run, run_baseline, run_method
from sizerforge.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "data" / "artefact_digests.json"
DIGESTS = json.loads(GOLDEN.read_text())

_spec = importlib.util.spec_from_file_location("artefact_digests",
                                               ROOT / "tools" / "artefact_digests.py")
TOOL = importlib.util.module_from_spec(_spec)
with mock.patch.dict(os.environ):  # the tool pins BLAS to one thread on import
    _spec.loader.exec_module(TOOL)

# baselines at 60 evaluations, seed 0
BASELINE_CASES = sorted((algorithm, name)
                        for algorithm in ("lhs", "ga_baseline", "bo_baseline", "turbo_baseline")
                        for name in ("sota_med", "sota_hard"))

# the rule backend on sota_hard, default budget, seed 0, by ablation, and
# the matrix row of each; sota_hard reaches a second outer loop without
# ablation and the outer cap under no_oe. The single-outer-loop ablation
# (SRL) is plain autosizer under max_outer_loops=1. no_cu needs a model
# backend, see the no_cu test.
RUN_ROWS = {None: "run", "no_oe": "run_no_oe", "no_ssd": "run_no_ssd",
            "no_srl": "run_one_loop"}


def _check(result, budget, results_dir):
    assert [r.eval_index for r in result.history.records] == list(
        range(1, len(result.history.records) + 1)
    )
    assert result.evals_used <= budget.total_evals
    return TOOL.digest(results_dir)


def _baseline_run(algorithm, name, workers, tmp_path, total_evals=60):
    out = tmp_path / f"{algorithm}_{name}_{total_evals}_w{workers}"
    budget = RunBudget(total_evals=total_evals)
    config = load_config(str(CONFIGS / f"{name}.yaml"))
    result = run_baseline(config, algorithm, budget, 0, workers=workers, results_dir=str(out))
    return result, _check(result, budget, out)


def _run_digest(ablation, workers, tmp_path, spelled=False):
    """The run's digest, through ``run`` or, spelled, through ``run_method``."""
    out = tmp_path / f"run_{ablation}_w{workers}_{'spelled' if spelled else 'flags'}"
    budget = RunBudget(max_outer_loops=1) if ablation == "no_srl" else RunBudget()
    flags = {ablation: True} if ablation not in (None, "no_srl") else {}
    config = load_config(str(CONFIGS / "sota_hard.yaml"))
    if spelled:
        method = "autosizer" + "".join(f"+{flag}" for flag in flags)
        result = run_method(config, method, budget, 0, workers=workers, results_dir=str(out))
    else:
        result = run(config, budget, RuleBackend(), 0, workers=workers, results_dir=str(out),
                     **flags)
    return _check(result, budget, out)


@pytest.mark.parametrize("algorithm,name", BASELINE_CASES)
def test_baseline_artefacts_match_golden(algorithm, name, tmp_path):
    _, digest = _baseline_run(algorithm, name, 2, tmp_path)
    assert digest == DIGESTS[f"{algorithm}/{name}/60/seed0"]


def test_turbo_restart_artefacts_match_golden(tmp_path):
    # turbo_baseline on sota_hard, 300 evaluations, seed 0: its trust region
    # collapses and restarts once, which no 60-evaluation run reaches
    result, digest = _baseline_run("turbo_baseline", "sota_hard", 2, tmp_path, 300)
    restarts = [e for e in result.decisions if e.get("event") == "turbo_restart"]
    assert [(e["iteration"], e["fraction"]) for e in restarts] == [(19, 0.8)]
    assert digest == DIGESTS["turbo_baseline/sota_hard/300/seed0"]


@pytest.mark.parametrize("ablation", list(RUN_ROWS))
def test_run_artefacts_match_golden(ablation, tmp_path):
    want = DIGESTS[f"{RUN_ROWS[ablation]}/sota_hard/300/seed0"]
    assert _run_digest(ablation, 2, tmp_path) == want
    # autosizer, autosizer+no_oe and autosizer+no_ssd; no_srl is plain
    # autosizer under max_outer_loops=1
    assert _run_digest(ablation, 1, tmp_path, spelled=True) == want


def test_no_cu_with_the_rule_backend_is_rejected(tmp_path):
    # the rule backend's understanding already is the generic one, so the
    # ablation would write the plain run's artefacts under another name
    config = load_config(str(CONFIGS / "sota_hard.yaml"))
    with pytest.raises(ConfigError, match="no_cu"):
        run(config, RunBudget(), RuleBackend(), 0, results_dir=str(tmp_path), no_cu=True)
    assert not any(tmp_path.iterdir())


def test_the_run_matrix_digest_map_is_pinned():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "artefact_digests.py"),
                          str(ROOT / "src")], env=env, capture_output=True, check=True).stdout
    got = json.loads(out)
    moved = sorted(key for key in DIGESTS.keys() | got.keys() if got.get(key) != DIGESTS.get(key))
    assert not moved, f"{len(moved)} of {len(DIGESTS)} runs differ from {GOLDEN.name}: {moved}"
    assert out == GOLDEN.read_bytes()  # the map as printed, byte for byte
