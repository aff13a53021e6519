"""tools/quality_matrix.py: a driver of ``harness.run_matrix`` that prints
what ``sizerforge bench`` prints for the same matrix, and refuses an
empty seed range."""

import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

from sizerforge.cli import main as sizerforge

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def quality(monkeypatch):
    # the tool pins BLAS to one thread on import and puts SRC on the path;
    # keep the test run's setting and path
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("quality_matrix",
                                                  ROOT / "tools" / "quality_matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _without_time(table: str):
    """The table's cells, row by row, less the wall-time column."""
    return [[c for i, c in enumerate(re.split(r"  +", line)) if i != 4]
            for line in table.splitlines()]


def test_the_driver_prints_the_table_of_the_equivalent_matrix(quality, capsys, tmp_path):
    assert quality.main(["quality_matrix.py", str(ROOT / "src"), "--methods", "lhs",
                         "bo_baseline", "--configs", "sota_med", "--budgets", "20",
                         "--seeds", "0-1"]) == 0
    heading, table = capsys.readouterr().out.split("\n", 1)
    assert heading == "sota_med, 20 evaluations"
    matrix = tmp_path / "matrix.yaml"
    matrix.write_text(f"circuits: [{ROOT / 'configs' / 'sota_med.yaml'}]\n"
                      "methods: [lhs, bo_baseline]\ntrials_per_cell: 2\nseeds: [0, 1]\n"
                      "budget: {total_evals: 20}\n")
    assert sizerforge(["bench", str(matrix)]) == 0
    bench = capsys.readouterr().out
    assert _without_time(table) == _without_time(bench + "\n")
    assert table.splitlines()[2].startswith("sota_med  lhs ")
    assert table.splitlines()[-2].startswith("sota_med bo_baseline  0:")


def test_an_empty_seed_range_is_a_usage_error(quality, capsys):
    with pytest.raises(SystemExit) as exited:
        quality.main(["quality_matrix.py", str(ROOT / "src"), "--methods", "lhs",
                      "--configs", "sota_med", "--budgets", "20", "--seeds", "5-3"])
    assert exited.value.code == 2
    assert "argument --seeds: empty seed range '5-3'" in capsys.readouterr().err
