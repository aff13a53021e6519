"""The SPICE evaluator path against stand-in simulators.

Each stand-in written per test is a shell script invoked as
``<script> -b DECK``, like batch-mode ngspice: one prints the metrics,
one prints them after bytes that are not UTF-8, one exits non-zero, one
reports non-convergence on stderr and sleeps past the timeout, one omits
a metric and one has no interpreter line, so it cannot be started. A
failing simulation becomes a record with its status and never aborts the
batch or the run; a design repeated in the batch or in a later one is
served from the cache with zero wall time and the assessment made when
it was simulated. Whole runs go through the benchmark's stand-in
``perfbench/bin/ngspice``, which prints the surrogate's metrics for the
deck it reads, so they must pick as their surrogate twin does.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from sizerforge.config import load_config, parse_config
from sizerforge.controller import RunBudget, run_method
from sizerforge import evaluation
from sizerforge.core import METRIC_MISSING, SIM_FAILED, SIM_OK, assess, design_from
from sizerforge.errors import ConfigError, SizerForgeError
from sizerforge.evaluation import EvaluatorSpec, ResultCache, evaluate_batch, evaluator_from_config

from conftest import raises_exactly

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# sota_easy reports gain_db and power_uw; spec "gain_db > 25 AND power_uw < 60"
SH = "#!/bin/sh\n"
STANDINS = {
    "prints": SH + 'echo "gain_db = 3.0e1"\necho "power_uw[0] = 40"\necho "deck $2"\n',
    "garbles": SH + "printf '\\377\\376\\n'\n" + 'echo "gain_db = 30"\necho "power_uw = 40"\n',
    "exits": SH + 'echo "gain_db = 30"\necho "power_uw = 40"\nexit 3\n',
    "sleeps": SH + 'echo "doAnalyses: TRAN:  Timestep too small" >&2\nexec sleep 10\n',
    "omits": SH + 'echo "gain_db = 30"\n',
    # no interpreter line: exec fails with ENOEXEC
    "unstartable": 'echo "gain_db = 30"\necho "power_uw = 40"\n',
}

EXPECTED = {
    "prints": (SIM_OK, ""),
    "garbles": (SIM_OK, ""),
    "exits": (SIM_FAILED, "exit status 3"),
    "sleeps": (SIM_FAILED, "timeout"),
    "omits": (METRIC_MISSING, "missing metrics: ['power_uw']"),
    "unstartable": (SIM_FAILED, "simulator did not start: Exec format error"),
}


def _standin(directory: Path, name: str) -> str:
    path = directory / f"ngspice_{name}"
    path.write_text(STANDINS[name])
    path.chmod(0o755)
    return str(path)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(STANDINS))
def test_each_outcome_is_a_record_and_repeats_are_cached(tmp_path, monkeypatch, name, workers):
    assessed = []
    monkeypatch.setattr(evaluation, "assess",
                        lambda spec, raw: assessed.append(dict(raw)) or assess(spec, raw))
    config = load_config(str(CONFIGS / "sota_easy.yaml"))
    evaluator = EvaluatorSpec(kind="spice", executable=_standin(tmp_path, name),
                              timeout_s=0.5, workdir=str(tmp_path))
    cache = ResultCache()
    first = design_from({"a": 0.84, "b": 1.05})
    second = design_from({"a": 1.26, "b": 2.52})
    records = evaluate_batch(
        config, [first, second, first], evaluator, cache=cache,
        start_eval_index=4, iteration=2, method="lhs", workers=workers,
    )

    status, reason = EXPECTED[name]
    assert [r.sim_status for r in records] == [status] * 3
    assert [r.eval_index for r in records] == [4, 5, 6]
    assert [r.cached for r in records] == [False, False, True]
    assert records[2].wall_time == 0.0
    assert all(r.wall_time > 0.0 for r in records[:2])
    assert cache.get(ResultCache.key_for(first))["reason"] == reason
    assert [r.reason for r in records] == [reason] * 3
    if status == SIM_OK:
        assert dict(records[0].raw_metrics) == {"gain_db": 30.0, "power_uw": 40.0}
        assert records[0].fom is not None and records[0].feasible
    else:
        assert all(r.fom is None and not r.feasible for r in records)
    # a later batch of cache hits: each design was assessed once, and
    # every record of a design shares its cache entry's mappings
    again = evaluate_batch(config, [second, first], evaluator, cache=cache,
                           start_eval_index=7, iteration=3, method="lhs", workers=workers)
    assert len(assessed) == (2 if status == SIM_OK else 0)
    assert [(r.fom, r.normalized) for r in again] == [(r.fom, r.normalized) for r in records[1::-1]]
    entry = cache.get(ResultCache.key_for(first))
    for record in (records[0], records[2], again[1]):
        assert record.raw_metrics is entry["raw_metrics"]
        assert record.normalized is entry["assessed"][2]
    # decks are temporary: nothing is left in the work directory but the stand-in
    assert os.listdir(tmp_path) == [f"ngspice_{name}"]


@pytest.mark.parametrize("name", sorted(STANDINS))
def test_a_failed_simulation_keeps_its_reason_in_the_history_file(tmp_path, name):
    config = load_config(str(CONFIGS / "sota_easy.yaml"))
    evaluator = EvaluatorSpec(kind="spice", executable=_standin(tmp_path, name),
                              timeout_s=0.5, workdir=str(tmp_path))
    out = tmp_path / "out"
    run_method(config, "lhs", RunBudget(total_evals=2), 0, evaluator=evaluator,
               results_dir=str(out))
    lines = [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
    lines = [line for line in lines if line["kind"] == "evaluation"]
    status, reason = EXPECTED[name]
    assert len(lines) == 2 and all(line["sim_status"] == status for line in lines)
    # only a failed simulation's record has a reason
    assert all(line.get("reason") == (None if status == SIM_OK else reason) for line in lines)


def test_bytes_that_are_not_utf8_are_kept_as_replacement_characters(tmp_path):
    config = load_config(str(CONFIGS / "sota_easy.yaml"))
    evaluator = EvaluatorSpec(kind="spice", executable=_standin(tmp_path, "garbles"),
                              workdir=str(tmp_path))
    design = design_from({"a": 0.84, "b": 1.05})
    evaluate_batch(config, [design], evaluator, cache=ResultCache(), keep_logs=True, results_dir=str(tmp_path / "out"))
    log = (tmp_path / "out" / "logs" / f"{design.id}.log").read_text(encoding="utf-8")
    assert log == "\ufffd\ufffd\ngain_db = 30\npower_uw = 40\n\n"


def test_a_timed_out_simulation_keeps_what_it_wrote_to_stderr(tmp_path):
    config = load_config(str(CONFIGS / "sota_easy.yaml"))
    evaluator = EvaluatorSpec(kind="spice", executable=_standin(tmp_path, "sleeps"),
                              timeout_s=0.5, workdir=str(tmp_path))
    design = design_from({"a": 0.84, "b": 1.05})
    [record] = evaluate_batch(config, [design], evaluator, cache=ResultCache(), keep_logs=True,
                              results_dir=str(tmp_path / "out"))
    assert record.sim_status == SIM_FAILED
    log = (tmp_path / "out" / "logs" / f"{design.id}.log").read_text(encoding="utf-8")
    assert log == "\ndoAnalyses: TRAN:  Timestep too small\n"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["unstartable", "garbles"])
def test_a_run_finishes_when_the_simulator_cannot_start_or_garbles_its_output(
        tmp_path, name, workers):
    config = load_config(str(ROOT / "perfbench" / "configs" / "sota_med_spice.yaml"))
    evaluator = EvaluatorSpec(kind="spice", executable=_standin(tmp_path, name),
                              workdir=str(tmp_path))
    result = run_method(config, "lhs", RunBudget(total_evals=8), 0, evaluator=evaluator,
                        workers=workers)
    # sota_med scrapes metrics that neither stand-in prints
    status = SIM_FAILED if name == "unstartable" else METRIC_MISSING
    assert result.evals_used == 8
    assert {r.sim_status for r in result.history.records} == {status}


def test_a_spice_executable_missing_from_path_fails_up_front(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    config = load_config(str(CONFIGS / "sota_easy.yaml"))
    evaluator = EvaluatorSpec(kind="spice", executable="ngspice", workdir=str(tmp_path))
    with raises_exactly(SizerForgeError, "spice executable 'ngspice' not found on PATH; "
                        "install it or select the surrogate evaluator"):
        evaluate_batch(config, [design_from({"a": 0.84, "b": 1.05})], evaluator,
                       cache=ResultCache())
    assert os.listdir(tmp_path) == []


def test_a_surrogate_evaluator_needs_a_model_id():
    with raises_exactly(SizerForgeError, "surrogate evaluator needs a model id"):
        EvaluatorSpec(kind="surrogate")


def test_a_surrogate_config_without_a_model_fails_up_front():
    source = (CONFIGS / "sota_easy.yaml").read_text().replace("surrogate_model: sota_easy\n", "")
    with pytest.raises(ConfigError, match="surrogate_model"):
        evaluator_from_config(parse_config(source))


def _digest(result) -> str:
    """Hash of the decision log and the (design id, FoM) sequence."""
    h = hashlib.sha256()
    for entry in result.decisions:
        h.update(json.dumps(entry, sort_keys=True, default=float).encode() + b"\n")
    for record in result.history.records:
        h.update(f"{record.design.id} {record.fom!r}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("method", ["lhs", "autosizer"])
def test_a_spice_run_picks_as_its_surrogate_twin(tmp_path, method):
    config = load_config(str(ROOT / "perfbench" / "configs" / "sota_med_spice.yaml"))
    spice = EvaluatorSpec(kind="spice", executable=str(ROOT / "perfbench" / "bin" / "ngspice"),
                          workdir=str(tmp_path))
    twin = EvaluatorSpec(kind="surrogate", model_id=config.name)
    budget = RunBudget(total_evals=12)
    logs = tmp_path / "logs_run"
    runs = [
        run_method(config, method, budget, 0, evaluator=spice),
        run_method(config, method, budget, 0, evaluator=spice, workers=2, keep_logs=True,
                   results_dir=str(logs)),
        run_method(config, method, budget, 0, evaluator=twin),
    ]
    assert [r.evals_used for r in runs] == [12] * 3
    assert all(r.sim_status == SIM_OK for r in runs[0].history.records)
    assert len({_digest(r) for r in runs}) == 1
    kept = sorted(p.stem for p in (logs / "logs").iterdir())
    assert kept == sorted(r.design.id for r in runs[1].history.records if not r.cached)
