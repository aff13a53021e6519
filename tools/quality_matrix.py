"""Score a matrix of runs by the paper's measures: success, first feasible, FoM.

    python3 tools/quality_matrix.py SRC --methods autosizer bo_baseline \\
        --configs sota_hard --budgets 150 300 --seeds 0-19

SRC is the ``src`` directory of a checkout, as for ``artefact_digests.py``,
and the ``configs`` directory next to it supplies the configs. Methods
are spelled as ``sizerforge run --method`` takes them; seeds are numbers
or ranges ``A-B``. Each run writes no artefacts and is read only through
the ``RunResult`` it returns. Per cell (config, budget, method) the tool
prints:

- success: the runs that found a feasible design, with the 95% Wilson
  interval;
- first feasible: the median count of fresh evaluations a run spent up
  to and including its first feasible record, counting a run that never
  found one as later than any; ``never`` when the median falls on such a
  run;
- the mean FoM of the reported designs;
- the outcome histogram;
- each method that proposed, with the number of runs it proposed in;
- paired: per seed, the run's first feasible minus that of the first
  method given, at the same config, budget and seed (``inf`` or ``-inf``
  when only one of the two found one, ``nan`` when neither did), and
  the seeds on which the run was earlier, tied and later.

BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise,
so the Bayesian picks do not depend on the host's core count.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
from collections import Counter
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

Z95 = 1.959963984540054


def wilson(successes: int, n: int, z: float = Z95):
    """The Wilson score interval of a binomial proportion."""
    p = successes / n
    scale = 1 + z * z / n
    center = (p + z * z / (2 * n)) / scale
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / scale
    return max(0.0, center - half), min(1.0, center + half)


def first_feasible(result) -> float:
    """The fresh evaluations a run spent up to and including its first
    feasible record, inf if it has none. A cache hit is free."""
    fresh = 0
    for record in result.history.records:
        fresh += not record.cached
        if record.feasible:
            return fresh
    return math.inf


def cell(results, reference):
    """The scores of one cell's runs, by seed, against ``reference``'s runs
    at the same seeds."""
    firsts = {seed: first_feasible(r) for seed, r in results.items()}
    successes = sum(r.feasible_found for r in results.values())
    foms = [r.best.fom for r in results.values() if r.best is not None]
    paired = {}
    for seed, first in firsts.items():
        other = first_feasible(reference[seed])
        paired[seed] = math.nan if first == other == math.inf else first - other
    return {
        "runs": len(results),
        "successes": successes,
        "interval": wilson(successes, len(results)),
        "first_feasible": statistics.median(firsts.values()),
        "mean_fom": statistics.fmean(foms) if foms else None,
        "outcomes": Counter(r.outcome for r in results.values()),
        "methods": Counter(m for r in results.values()
                           for m in {record.method for record in r.history.records}),
        "paired": paired,
    }


def render(name: str, scores) -> str:
    low, high = scores["interval"]
    first = scores["first_feasible"]
    fom = scores["mean_fom"]
    paired = scores["paired"].values()
    return "\n".join([
        name,
        f"  success         {scores['successes']}/{scores['runs']}"
        f"  [{low:.4f}, {high:.4f}]",
        f"  first feasible  {'never' if first == math.inf else f'{first:g}'}",
        f"  mean FoM        {'-' if fom is None else f'{fom:.4f}'}",
        "  outcomes        " + ", ".join(f"{k} {v}" for k, v in sorted(scores["outcomes"].items())),
        "  methods         " + ", ".join(f"{k} {v}" for k, v in sorted(scores["methods"].items())),
        "  paired          " + " ".join(f"{seed}:{d:g}" for seed, d in scores["paired"].items())
        + f"  (earlier {sum(d < 0 for d in paired)}, tied {sum(d == 0 for d in paired)},"
          f" later {sum(d > 0 for d in paired)})",
    ])


def seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


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
    from sizerforge.config import load_config
    from sizerforge.controller import RunBudget, run_method

    seed_list = [s for r in args.seeds for s in r]
    for name in args.configs:
        config = load_config(str(src.parent / "configs" / f"{name}.yaml"))
        for total in args.budgets:
            results = {method: {seed: run_method(config, method, RunBudget(total_evals=total), seed)
                                for seed in seed_list}
                       for method in args.methods}
            for method in args.methods:
                scores = cell(results[method], results[args.methods[0]])
                print(render(f"{name} {total} {method}", scores), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
