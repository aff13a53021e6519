"""Command line entry points.

Subcommands: run (one sizing run), bench (a trial matrix), report
(re-render saved results), validate (check a config renders and
parses), oracle (print a surrogate model's best feasible point).

``run --method`` takes the spelling a matrix file's ``methods`` take,
a baseline name or ``autosizer[:BACKEND][+ABLATION]``, and hands it to
``controller.run_method``. Only ``bench`` and ``report`` import the
matrix runner (``harness``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config, render_deck
from .controller import AUTOSIZER_SPELLING, BASELINES, RunBudget, run_method
from .errors import SizerForgeError
from .evaluation import evaluator_from_config
from .surrogates import enumerate_oracle, get_model


def _integer(text: str) -> int:
    """An integer flag's value. One past Python's int-to-string digit
    limit is refused by naming the limit, as ``errors.shown`` does, rather
    than by echoing its digits."""
    try:
        return int(text)
    except ValueError:
        shown = (f"an integer of more than {sys.get_int_max_str_digits()} digits"
                 if text.strip().lstrip("+-").isdecimal() else repr(text))
        raise argparse.ArgumentTypeError(f"invalid int value: {shown}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sizerforge")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one sizing optimization")
    p_run.add_argument("config")
    p_run.add_argument("--transcripts", metavar="DIR",
                       help="record each model call of autosizer:llm or autosizer:replay:DIR "
                            "here, replayable as autosizer:replay:DIR")
    p_run.add_argument("--method", default="autosizer",
                       help=f"{AUTOSIZER_SPELLING} or a baseline: {', '.join(BASELINES)}")
    p_run.add_argument("--budget", type=_integer, default=RunBudget.total_evals)
    p_run.add_argument("--inner-cap", type=_integer, default=RunBudget.per_inner_loop)
    p_run.add_argument("--outer-cap", type=_integer, default=RunBudget.max_outer_loops,
                       help="most outer loops; 1 is the single-loop ablation")
    p_run.add_argument("--seed", type=_integer, default=0)
    p_run.add_argument("--evaluator", choices=("spice", "surrogate"),
                       help="override the config's evaluator")
    p_run.add_argument("--workers", type=_integer, default=1)
    p_run.add_argument("--keep-logs", action="store_true")
    p_run.add_argument("--results-dir", help="write artifacts under this directory")

    p_bench = sub.add_parser("bench", help="run a circuits x methods trial matrix")
    p_bench.add_argument("matrix")
    p_bench.add_argument("--out", help="write reports and per-trial artifacts here")
    p_bench.add_argument("--workers", type=_integer, default=1)

    p_report = sub.add_parser("report", help="re-render reports from a results directory")
    p_report.add_argument("results_dir")

    p_val = sub.add_parser("validate", help="check a config parses and renders")
    p_val.add_argument("config")

    p_oracle = sub.add_parser("oracle", help="print a surrogate model's best feasible point")
    p_oracle.add_argument("model_id")
    return parser


def _fmt_assignment(assignment) -> str:
    return ", ".join(f"{k}={v:g}" for k, v in assignment.items())


def cmd_run(args) -> int:
    config = load_config(args.config)
    budget = RunBudget(
        total_evals=args.budget,
        per_inner_loop=args.inner_cap,
        max_outer_loops=args.outer_cap,
    )
    result = run_method(
        config, args.method, budget, args.seed, transcripts=args.transcripts,
        evaluator=evaluator_from_config(config, args.evaluator), workers=args.workers,
        keep_logs=args.keep_logs, results_dir=args.results_dir,
    )

    print(f"outcome: {result.outcome}")
    best = result.best
    if best is not None:
        where = _fmt_assignment(best.design.assignment)
        print(f"reported design: FoM {best.fom:.6f} at {where}")
        metrics = ", ".join(f"{k}={v:.6g}" for k, v in best.raw_metrics.items())
        print(f"metrics: {metrics}")
    else:
        print("no valid design found")
    print(
        f"feasible: {'yes' if result.feasible_found else 'no'} | "
        f"evals: {result.evals_used}/{budget.total_evals} | "
        f"loops: {result.outer_loops_used} | "
        f"generations: {len(result.space_generations)} | "
        f"wall: {result.wall_time:.2f}s"
    )
    if args.results_dir:
        print(f"artifacts: {args.results_dir}")
    return 0


def cmd_bench(args) -> int:
    from .harness import load_matrix, render_table, run_matrix

    matrix = load_matrix(args.matrix)
    report = run_matrix(matrix, out_dir=args.out, workers=args.workers)
    sys.stdout.write(render_table(report))
    if args.out:
        print(f"reports: {Path(args.out) / 'reports'}")
    return 0


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or undecodable bytes
        raise SizerForgeError(f"cannot read {path}: {exc}") from None


def cmd_report(args) -> int:
    from .harness import render_table

    root = Path(args.results_dir)
    for candidate in (root / "reports" / "matrix_results.json", root / "matrix_results.json"):
        if candidate.exists():
            report = _read_json(candidate)
            try:
                table = render_table(report)
            except KeyError as exc:  # a document from before a score was added
                raise SizerForgeError(f"{candidate} lacks {exc}; run the matrix again") from None
            except (TypeError, ValueError):  # JSON of another shape
                raise SizerForgeError(f"{candidate} is not a matrix results document") from None
            sys.stdout.write(table)
            return 0
    single = root / "result.json"
    if single.exists():
        record = _read_json(single)
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    raise SizerForgeError(f"no matrix_results.json or result.json under {root}")


def cmd_validate(args) -> int:
    config = load_config(args.config)
    # midpoint assignment: every template slot must resolve
    assignment = {v: config.grid_for(v)[len(config.grid_for(v)) // 2] for v in config.variables}
    render_deck(config, assignment)
    print(f"config: {config.name}")
    print(f"variables: {', '.join(config.variables)}")
    print(f"grid: {len(config.w_values)} values per variable, "
          f"{config.full_grid_cardinality()} combinations")
    print(f"metrics: {', '.join(config.metrics)}")
    print(f"spec clauses: {len(config.spec.clauses)}")
    print("templates render cleanly")
    print("OK")
    return 0


def cmd_oracle(args) -> int:
    model = get_model(args.model_id)
    result = enumerate_oracle(model)
    record = {"model": model.id, **result.to_record()}
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "run": cmd_run,
    "bench": cmd_bench,
    "report": cmd_report,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SizerForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
