"""The stand-in ngspice must reproduce ``surrogate_eval`` bit for bit.

Run from the repo root: ``python3 -m pytest perfbench/tests``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from sizerforge import load_config, render_deck  # noqa: E402
from sizerforge.evaluation import scrape_metrics, surrogate_eval  # noqa: E402

import metrics as m  # noqa: E402

STANDIN = BENCH / "bin" / "ngspice"
CONFIGS = [BENCH / "configs" / f"{name}_spice.yaml" for name in ("sota_med", "sota_hard")]


def test_metrics_equal_the_surrogate_on_every_grid_point():
    assert m.check_standin(STANDIN, [load_config(str(p)) for p in CONFIGS]) == []


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_printed_metrics_scrape_back_exactly(path, tmp_path):
    config = load_config(str(path))
    assignment = dict(zip(config.variables, (1.05, 2.52, 2.31, 0.84)))
    deck = tmp_path / "deck.sp"
    deck.write_text(render_deck(config, assignment).testbench_text)
    proc = subprocess.run([sys.executable, str(STANDIN), "-b", str(deck)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    scrape = scrape_metrics(proc.stdout, config.metrics)
    assert scrape.missing == ["fom"]
    assert scrape.values == surrogate_eval(config.name, assignment)


def test_deck_without_a_model_is_rejected(tmp_path):
    deck = tmp_path / "deck.sp"
    deck.write_text("* no model here\nxm1 a b 0 0 nfet w=1.68 l=0.15\n.end\n")
    proc = subprocess.run([sys.executable, str(STANDIN), "-b", str(deck)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode != 0
