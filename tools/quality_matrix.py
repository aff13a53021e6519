"""Score a matrix of runs by the paper's measures: success, first feasible, FoM.

    python3 tools/quality_matrix.py SRC --methods autosizer bo_baseline \\
        --configs sota_hard --budgets 150 300 --seeds 0-19

SRC is the ``src`` directory of a checkout, as for ``artefact_digests.py``,
and the ``configs`` directory next to it supplies the configs. Seeds are
numbers or ranges ``A-B``. For each config and budget the tool runs one
trial matrix through ``harness.run_matrix``, writing no artefacts, and
prints ``harness.render_table``: the table ``sizerforge bench`` prints
for a matrix file with those ``circuits``, ``methods`` and ``seeds``
and ``budget: {total_evals: BUDGET}``. BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` says otherwise, so the Bayesian picks do not
depend on the host's core count.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def seeds(text: str) -> range:
    low, _, high = text.partition("-")
    span = range(int(low), int(high or low) + 1)
    if not span:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return span


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--methods", nargs="+", required=True)
    parser.add_argument("--configs", nargs="+", required=True)
    parser.add_argument("--budgets", nargs="+", type=int, required=True)
    parser.add_argument("--seeds", nargs="+", type=seeds, required=True)
    args = parser.parse_args(argv[1:])
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from sizerforge.controller import RunBudget
    from sizerforge.harness import TrialMatrix, render_table, run_matrix

    seed_list = [s for span in args.seeds for s in span]
    for name in args.configs:
        for total in args.budgets:
            matrix = TrialMatrix(circuits=[str(src.parent / "configs" / f"{name}.yaml")],
                                 methods=args.methods, trials_per_cell=len(seed_list),
                                 seeds=seed_list, budget=RunBudget(total_evals=total))
            print(f"{name}, {total} evaluations\n{render_table(run_matrix(matrix))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
