"""Golden run artefacts: the baselines and the two-loop run, byte for byte.

Each case writes its artefacts and pins one digest over
``decision_log.jsonl``, ``history.jsonl``, ``space_gen*.json`` and
``loop*_report.txt``. The digests were recorded before the two run
loops shared one batch step, so any refactor of the loops must leave
every decision, evaluation, space snapshot and loop report unchanged.

The last test pins the map that ``tools/artefact_digests.py`` prints
for its 171-run matrix, so a change that moves any pick of the matrix
fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sizerforge.agents import RuleBackend
from sizerforge.config import load_config
from sizerforge.controller import RunBudget, run, run_baseline, run_method
from sizerforge.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
PATTERNS = ("decision_log.jsonl", "history.jsonl", "space_gen*.json", "loop*_report.txt")

# baselines: 60 evaluations, seed 0; bo_baseline on sota_hard re-recorded
# when the GP's jitter became relative to its amplitude
BASELINE_DIGESTS = {
    ("lhs", "sota_med"): "0a54d03750fbec19bec1cc3d34d6003739b35a56c98aebea24ffd9bf7d4b0e4a",
    ("ga_baseline", "sota_med"): "8f8b304f58418358fae0d8a7bac3a854b775a34d2c961b195fcdde1f71eca44d",
    ("bo_baseline", "sota_med"): "1224c4febb0ad3a90591ad5a488ca71676db8d64d2533e569c9af8561cccda3d",
    ("turbo_baseline", "sota_med"): "1967f05d123eff468732c481e9dbbc339f27f508a606f27d6c94a4780eb0f85c",
    ("lhs", "sota_hard"): "02875da48d5b9078c97d341ffdc92b4c4349627ff681ec040f8a69374077c684",
    ("ga_baseline", "sota_hard"): "6e46c4129af88b756fafbcd9d2b89168c59b79857f15fe5b28c5157ccbce0475",
    ("bo_baseline", "sota_hard"): "6c48c32aea66c47be05ca938cee86d2feba82b7b5ac23c2eebed4dd60886f006",
    ("turbo_baseline", "sota_hard"): "10664dbd30aba464461ae0db49ff6414768535b43e8143c1ada15e7c4ab76339",
}

# turbo_baseline on sota_hard, 300 evaluations, seed 0: its trust region
# collapses and restarts once, which no 60-evaluation run reaches
TURBO_RESTART_DIGEST = "567728317be45d3af85a12a4d3560aa2b207a123be9c4128d75f2aceccb14138"

# rule backend on sota_hard, default budget, seed 0; sota_hard reaches a
# second outer loop without ablation and the outer cap under no_oe. The
# single-outer-loop ablation (SRL) keeps its row and digest as
# max_outer_loops=1. no_cu needs a model backend, see the last test.
RUN_DIGESTS = {
    None: "4fd0995966ddc23e9739107ce7b7dd576f5db4d5cc52163504f3555fa2f2ff6c",
    "no_oe": "ca583820b32de4f97240b64842eef93cb5828a5fb0fad8915ab24d527ee223f1",
    "no_ssd": "8b7aaa0abac494a140d4eb97555dd5b23674529f1a8ac9dcc32ae3660dde53ca",
    "no_srl": "e58f9e734110c955c9e12c67db6a9f7e74b86ed7191e33e9104b86a52ce11ce8",
}

# sha256 of the map ``tools/artefact_digests.py src`` prints, BLAS on one thread
DIGEST_MAP_SHA256 = "295d67a3b8c6a3df8f40b936c04e9dc34c63d1af8dcbd80debc3a979f1758173"


def artefact_digest(results_dir: Path) -> str:
    h = hashlib.sha256()
    paths = sorted({p for pattern in PATTERNS for p in results_dir.glob(pattern)})
    assert paths, "no artefacts written"
    for path in paths:
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


def _check(result, budget, results_dir):
    assert [r.eval_index for r in result.history.records] == list(
        range(1, len(result.history.records) + 1)
    )
    assert result.evals_used <= budget.total_evals
    return artefact_digest(results_dir)


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


@pytest.mark.parametrize("algorithm,name", sorted(BASELINE_DIGESTS))
def test_baseline_artefacts_match_golden(algorithm, name, tmp_path):
    _, digest = _baseline_run(algorithm, name, 1, tmp_path)
    assert digest == BASELINE_DIGESTS[(algorithm, name)]
    assert _baseline_run(algorithm, name, 2, tmp_path)[1] == digest


def test_turbo_restart_artefacts_match_golden(tmp_path):
    result, digest = _baseline_run("turbo_baseline", "sota_hard", 1, tmp_path, 300)
    restarts = [e for e in result.decisions if e.get("event") == "turbo_restart"]
    assert [(e["iteration"], e["fraction"]) for e in restarts] == [(19, 0.8)]
    assert digest == TURBO_RESTART_DIGEST
    assert _baseline_run("turbo_baseline", "sota_hard", 2, tmp_path, 300)[1] == digest


@pytest.mark.parametrize("ablation", list(RUN_DIGESTS))
def test_run_artefacts_match_golden(ablation, tmp_path):
    digest = _run_digest(ablation, 1, tmp_path)
    assert digest == RUN_DIGESTS[ablation]
    assert _run_digest(ablation, 2, tmp_path) == digest
    # autosizer, autosizer+no_oe and autosizer+no_ssd; no_srl is plain
    # autosizer under max_outer_loops=1
    assert _run_digest(ablation, 1, tmp_path, spelled=True) == digest


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
    assert hashlib.sha256(out).hexdigest() == DIGEST_MAP_SHA256
