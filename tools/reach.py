"""Count the package lines that the benchmark rows run, and name the rest.

    python3 tools/reach.py SRC

SRC is the ``src`` directory of a checkout, as for ``artefact_digests.py``:
its ``sizerforge`` is the package that runs, and the ``configs`` and
``perfbench`` directories next to SRC supply the configs and the
stand-in simulator. The tool traces each line of ``SRC/sizerforge`` that
three sets of rows run, the SPICE worker threads included:

- the 171-run digest matrix of ``artefact_digests.py`` (its ``matrix``
  and ``run_one``);
- the 600-run quality matrix, through ``quality_matrix.py``: autosizer
  and the four baselines on the three surrogate configs at 150 and 300
  evaluations, seeds 0-19;
- each command of ``sizerforge.cli.main``: ``run`` on a surrogate config,
  ``run`` through ``perfbench/bin/ngspice`` with ``--workers 2
  --keep-logs``, ``bench --out``, ``report`` of both results
  directories, ``validate`` and ``oracle``.

For each module it prints the executable lines (the lines of its code
objects' ``co_lines``), the lines some row reaches, the number of lines
no row reaches outside any ``raise`` statement, and those lines as
ranges; then the totals. A range runs over the executable lines between
two that are reached or raise, so ``120-131`` may span blank lines and
comments but never a line that ran. The rows take 30-45 s on a 2-vCPU
host with BLAS on one thread, which the two tools set unless
``OPENBLAS_NUM_THREADS`` says otherwise; the wall time goes to stderr.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import artefact_digests
import quality_matrix

QUALITY_ARGS = ("--methods", "autosizer", "bo_baseline", "ga_baseline", "turbo_baseline",
                "lhs", "--configs", "sota_easy", "sota_med", "sota_hard",
                "--budgets", "150", "300", "--seeds", "0-19")


class Tracer:
    """Within ``with``, records the lines run in each file under ``root``,
    in this thread and in threads started meanwhile."""

    def __init__(self, root: Path):
        self.prefix = f"{root}{os.sep}"
        self.reached = defaultdict(set)  # file name -> line numbers

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self._line

    def _line(self, frame, event, arg):
        self.reached[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def __enter__(self):
        self.previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self.previous[0])
        threading.settrace(self.previous[1])


def executable_lines(code) -> set:
    """The line numbers of ``code`` and of the code objects it holds."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def account(path: Path, reached: set):
    """(executable lines, reached lines, unreached ranges) of one file.
    A range is the list of its executable lines, and no range holds a
    line of a ``raise`` statement."""
    source = path.read_text(encoding="utf-8")
    lines = sorted(executable_lines(compile(source, str(path), "exec")))
    raised = {n for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)
              for n in range(node.lineno, node.end_lineno + 1)}
    ranges, open_range = [], False
    for line in lines:
        if line in reached or line in raised:
            open_range = False
        elif open_range:
            ranges[-1].append(line)
        else:
            ranges.append([line])
            open_range = True
    return len(lines), len(reached & set(lines)), ranges


def cli_rows(sizerforge, root: Path, tmp: Path):
    """Each CLI command, run in-process; stdout is dropped."""
    configs = root / "configs"
    matrix = tmp / "matrix.yaml"
    matrix.write_text(f"circuits: [{configs / 'sota_easy.yaml'}]\nmethods: [autosizer, lhs]\n"
                      "trials_per_cell: 2\nbudget: {total_evals: 60}\n", encoding="utf-8")
    os.environ["PATH"] = f"{root / 'perfbench' / 'bin'}{os.pathsep}{os.environ['PATH']}"
    spice = str(root / "perfbench" / "configs" / "sota_med_spice.yaml")
    for argv in (["run", str(configs / "sota_hard.yaml"), "--results-dir", str(tmp / "run")],
                 ["run", spice, "--budget", "60", "--workers", "2", "--keep-logs",
                  "--results-dir", str(tmp / "spice")],
                 ["bench", str(matrix), "--out", str(tmp / "bench")],
                 ["report", str(tmp / "bench")],
                 ["report", str(tmp / "run")],
                 ["validate", str(configs / "sota_hard.yaml")],
                 ["oracle", "sota_hard"]):
        with contextlib.redirect_stdout(io.StringIO()):
            status = sizerforge.cli.main(argv)
        if status:
            raise RuntimeError(f"sizerforge {' '.join(argv)} exited {status}")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve()
    package = src / "sizerforge"
    started = time.perf_counter()
    sys.path.insert(0, str(src))
    with Tracer(package) as tracer, tempfile.TemporaryDirectory() as tmp:
        import sizerforge.agents
        import sizerforge.cli
        import sizerforge.config
        import sizerforge.controller
        import sizerforge.optim.pool

        configs = {name: sizerforge.config.load_config(str(src.parent / "configs" / f"{name}.yaml"))
                   for name in artefact_digests.CONFIGS}
        for method, name, total, seed in artefact_digests.matrix(sizerforge.controller.BASELINES):
            out = Path(tmp) / f"{method}_{name}_{total}_seed{seed}"
            artefact_digests.run_one(sizerforge, configs[name], method, total, seed, out)
        with contextlib.redirect_stdout(io.StringIO()):
            quality_matrix.main(["quality_matrix.py", str(src), *QUALITY_ARGS])
        cli_rows(sizerforge, src.parent, Path(tmp))
    elapsed = time.perf_counter() - started

    rows = [(path.relative_to(src).as_posix(), *account(path, tracer.reached[str(path)]))
            for path in sorted(package.rglob("*.py"))]
    width = max(len(name) for name, *_ in rows)
    print(f"{'module':<{width}}  lines  reached  unreached  ranges (outside raise)")
    totals = [0, 0, 0]
    for name, lines, reached, ranges in rows:
        unreached = sum(map(len, ranges))
        spans = ", ".join(f"{r[0]}" if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in ranges)
        print(f"{name:<{width}}  {lines:5}  {reached:7}  {unreached:9}  {spans}".rstrip())
        totals = [t + n for t, n in zip(totals, (lines, reached, unreached))]
    print(f"{'total':<{width}}  {totals[0]:5}  {totals[1]:7}  {totals[2]:9}")
    print(f"rows traced in {elapsed:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
