"""Every module-level import under src/ and in tools/ is used, and every
definition there is referenced.

An import counts as used when the module reads it anywhere (a ``Name``
node, which includes the base of an attribute chain and annotations)
or re-exports it through ``__all__``. ``from __future__`` imports are
directives, not names.

A module-level function or class, or a method, counts as referenced
when its name is read, imported or taken as an attribute anywhere under
src/, perfbench/ or tools/. String constants in perfbench/ count too,
because the tracer rebinds methods such as ``predict`` by name. Dunder
methods are called by the language and are exempt.

The tracer must find every name it rebinds, and put each back.

Importing the package leaves out what only some runs need: numpy and
scipy, which only the GP stack (``optim.bayesian`` and ``optim.gp``)
uses and ``optim.pool`` loads on the first Bayesian proposal, and
``requests`` (only ``HttpTransport.complete`` talks to a model).
Checking a config or an acquisition name (``optim.base.ACQUISITIONS``),
the ``validate`` and ``oracle`` commands and a run that asks for no
Bayesian proposal load no numpy either. A Bayesian proposal loads numpy
and the top-level ``scipy`` package, and of scipy's subpackages only the
compiled modules ``optim.gp`` computes with, loaded from their files: a
UCB ``bo_baseline`` run, an EI proposal and a proposal on a space past
``ENUMERATION_LIMIT`` import none of ``scipy.linalg``, ``scipy.special``
and ``scipy.spatial``, and so none of scipy's array-API layer,
``numpy.f2py`` and ``numpy.testing``. Those modules are in no
``sys.modules``, so the probes read the shared objects mapped into the
process: the BLAS and ``ndtr``'s ufuncs, and no distance kernel.
Each probe runs in a fresh interpreter.

A process starts with only what its run uses. ``import sizerforge`` and
``load_config``, an ``lhs`` run on the surrogate, a rule-driven run and
the ``validate`` command load none of ``STARTUP_FREE``: ``subprocess``,
``tempfile``, ``shutil`` and the thread pool load on the first SPICE
batch (the pool only with ``workers`` above 1), ``logging`` when
``core`` has a FoM disagreement to log or with the model backend
(``agents.llm``), and ``csv`` with the matrix runner (``harness``).
``sizerforge`` and ``sizerforge.agents`` expose the names of those two
and load them on first use. Modules a bare interpreter already loads in the same
environment are not counted: a ``site`` may preload ``tempfile`` and
``shutil``. numpy imports ``subprocess`` itself, so these runs make no
Bayesian proposal.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"
# the modules both hygiene checks cover: the package and the tools
CHECKED = sorted(SRC.rglob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_module_level_imports():
    unused = [u for path in CHECKED for u in _unused_imports(path)]
    assert unused == []


def _definitions(tree: ast.Module):
    """(name, line) of each module-level function and class and each method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds):
                    yield member.name, member.lineno


def _references(tree: ast.Module, strings: bool):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield (node.asname or node.name).split(".")[-1]
            yield node.name.split(".")[-1]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in CHECKED + sorted(PERFBENCH.rglob("*.py"))}
    referenced = set()
    for path, tree in trees.items():
        referenced |= set(_references(tree, strings=path.is_relative_to(PERFBENCH)))
    unreferenced = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in CHECKED
        for name, line in _definitions(trees[path])
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unreferenced == []


def _fresh(code: str, *args: str):
    """The JSON a fresh interpreter prints last after running ``code``
    with ``args`` as ``sys.argv[1:]``, the package importable from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True, cwd=ROOT).stdout
    return json.loads(out.strip().splitlines()[-1])


def _probe(code: str):
    """The numpy, scipy and requests modules a fresh interpreter has loaded
    after running ``code``, and the names of the scipy shared objects it
    has mapped (``/proc/self/maps``), loaded as modules or not."""
    return _fresh(f"{code}\nimport json, os, sys\n"
                  "modules = sorted(m for m in sys.modules "
                  "if m.split('.')[0] in ('numpy', 'scipy', 'requests'))\n"
                  "with open('/proc/self/maps') as maps:\n"
                  "    paths = {line.split()[-1] for line in maps if '/scipy/' in line}\n"
                  "mapped = sorted({os.path.basename(p).split('.')[0] for p in paths})\n"
                  "print(json.dumps([modules, mapped]))")


def _loaded(code: str):
    """The numpy, scipy and requests modules a fresh interpreter has loaded
    after running ``code``."""
    return _probe(code)[0]


def test_importing_the_package_loads_neither_numpy_nor_scipy_nor_requests():
    assert _loaded("import sizerforge") == []


NUMPY_FREE = {
    "load_config": "from sizerforge import load_config\n"
                   "load_config('configs/sota_med.yaml')",
    "unknown_acquisition": "from sizerforge.errors import BadParameter\n"
                           "from sizerforge.optim import MethodConfig, validate_method_config\n"
                           "config = MethodConfig('bayesian', 4, {'acquisition_function': 'XI'})\n"
                           "try:\n"
                           "    validate_method_config(config)\n"
                           "except BadParameter:\n"
                           "    pass\n"
                           "else:\n"
                           "    raise SystemExit('XI was accepted')",
    "validate": "from sizerforge.cli import main\n"
                "assert main(['validate', 'configs/sota_hard.yaml']) == 0",
    "oracle": "from sizerforge.cli import main\n"
              "assert main(['oracle', 'sota_med']) == 0",
    "lhs_run": "from sizerforge import RunBudget, load_config, run_baseline\n"
               "result = run_baseline(load_config('configs/sota_med.yaml'), 'lhs',\n"
               "                      RunBudget(total_evals=20), 0)\n"
               "assert result.evals_used == 20",
}


@pytest.mark.parametrize("name", sorted(NUMPY_FREE))
def test_what_never_builds_a_gp_loads_no_numpy_or_scipy(name):
    assert _loaded(NUMPY_FREE[name]) == []


BAYESIAN = {
    "ucb_bo_baseline": "from sizerforge import RunBudget, load_config, run_baseline\n"
                       "run_baseline(load_config('configs/sota_med.yaml'), 'bo_baseline',\n"
                       "             RunBudget(total_evals=20), 0)",
    "ei_rule_run": "import json\n"
                   "from sizerforge import RunBudget, load_config, run\n"
                   "result = run(load_config('configs/sota_hard.yaml'),\n"
                   "             RunBudget(total_evals=100), seed=0)\n"
                   "assert '\"acquisition_function\": \"EI\"' in json.dumps(result.decisions)",
    "past_enumeration_limit": "from sizerforge.core import EvaluatedDesign, History\n"
                              "from sizerforge.optim import MethodConfig, propose\n"
                              "from sizerforge.optim.base import materialize\n"
                              "from sizerforge.optim.bayesian import ENUMERATION_LIMIT\n"
                              "from sizerforge.space import SearchSpace\n"
                              "grid = {f'W_{k}': tuple(range(1, 10)) for k in range(5)}\n"
                              "space = SearchSpace(active=grid, fixed={}, full_grid=grid)\n"
                              "assert space.cardinality() > ENUMERATION_LIMIT\n"
                              "history = History()\n"
                              "for k in range(5):\n"
                              "    history.append(EvaluatedDesign(\n"
                              "        design=materialize(space, [k] * 5), raw_metrics={},\n"
                              "        normalized={}, fom=float(k), feasible=False,\n"
                              "        sim_status='ok', iteration=1, method='lhs',\n"
                              "        eval_index=k + 1, wall_time=0.0))\n"
                              "config = MethodConfig('bayesian', 4, {'acquisition_function': 'UCB'})\n"
                              "assert len(propose(space, config, history).designs) == 4",
}


@pytest.mark.parametrize("name", sorted(BAYESIAN))
def test_a_bayesian_proposal_loads_scipy_but_none_of_its_subpackages(name):
    modules, mapped = _probe(BAYESIAN[name])
    loaded = set(modules)
    assert {"numpy", "scipy"} <= loaded
    assert not {"scipy.linalg", "scipy.special", "scipy.spatial", "scipy._lib._array_api",
                "numpy.f2py", "numpy.testing", "requests"} & loaded
    # a compiled module loaded from its file is in no sys.modules: the GP
    # maps the BLAS and ndtr's ufuncs, and no distance kernel
    assert {"_fblas", "_special_ufuncs"} <= set(mapped)
    assert "_distance_pybind" not in mapped


def _added(code: str, *args: str):
    """The modules a fresh interpreter has loaded after running ``code``
    with ``args`` as ``sys.argv[1:]``, beyond those a bare one loads."""
    listing = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return set(_fresh(code + listing, *args)) - set(_fresh("pass" + listing))


STARTUP_FREE = {"subprocess", "concurrent.futures", "logging", "csv", "sizerforge.harness",
                "sizerforge.agents.llm"}

STARTUP = {
    "import_and_load_config": "import sizerforge\n"
                              "for name in ('sota_easy', 'sota_med', 'sota_hard'):\n"
                              "    sizerforge.load_config(f'configs/{name}.yaml')",
    "lhs_run": NUMPY_FREE["lhs_run"],
    # two outer loops of lhs and genetic batches
    "rule_run": "from sizerforge import RunBudget, load_config, run\n"
                "result = run(load_config('configs/sota_hard.yaml'),\n"
                "             RunBudget(total_evals=20), seed=0)\n"
                "assert result.outer_loops_used == 2",
    "validate": NUMPY_FREE["validate"],
}


@pytest.mark.parametrize("name", sorted(STARTUP))
def test_a_surrogate_run_loads_no_spice_thread_pool_logging_matrix_or_model_modules(name):
    assert sorted(STARTUP_FREE & _added(STARTUP[name])) == []


def test_a_spice_run_with_two_workers_loads_the_subprocess_and_thread_pool_modules(tmp_path):
    code = ("import sys\n"
            "from sizerforge import EvaluatorSpec, RunBudget, load_config\n"
            "from sizerforge.controller import run_method\n"
            "config = load_config('perfbench/configs/sota_med_spice.yaml')\n"
            "spice = EvaluatorSpec(kind='spice', executable='perfbench/bin/ngspice',\n"
            "                      workdir=sys.argv[1])\n"
            "result = run_method(config, 'lhs', RunBudget(total_evals=8), 0,\n"
            "                    evaluator=spice, workers=2)\n"
            "assert result.evals_used == 8\n"
            "assert {r.sim_status for r in result.history.records} == {'ok'}")
    added = _added(code, str(tmp_path))
    assert {"subprocess", "concurrent.futures"} <= added
    assert not {"sizerforge.harness", "sizerforge.agents.llm"} & added


def test_a_replay_backend_and_the_lazy_names_load_their_modules(tmp_path):
    code = ("import sys\n"
            "import sizerforge\n"
            "from sizerforge import LlmBackend, run_matrix\n"
            "from sizerforge.agents import make_backend\n"
            "backend = make_backend('replay:' + sys.argv[1])\n"
            "assert type(backend) is LlmBackend is sizerforge.agents.LlmBackend\n"
            "assert run_matrix is sizerforge.harness.run_matrix")
    added = _added(code, str(tmp_path))
    assert {"sizerforge.harness", "sizerforge.agents.llm", "csv"} <= added


@pytest.mark.parametrize("module", ["sizerforge", "sizerforge.agents"])
def test_a_lazy_package_still_refuses_a_name_it_lacks(module):
    package = importlib.import_module(module)
    assert {"LlmBackend"} <= set(package.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        package.no_such_name


def test_the_tracer_rebinds_names_that_exist_and_puts_them_back(monkeypatch):
    from sizerforge import controller
    from sizerforge.agents import RuleBackend
    from sizerforge.evaluation import ResultCache
    from sizerforge.optim.gp import GaussianProcess

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    try:
        tracing = importlib.import_module("tracing")
        owners = (controller, RuleBackend, GaussianProcess, ResultCache)
        before = [dict(vars(owner)) for owner in owners]
        with tracing.Tracer().installed():
            for name in ("fit", "predict"):
                assert vars(GaussianProcess)[name] is not before[2][name]
        for owner, names in zip(owners, before):
            after = dict(vars(owner))
            assert after.keys() == names.keys()
            assert [k for k in names if after[k] is not names[k]] == []
    finally:
        for name in set(sys.modules) - loaded:
            del sys.modules[name]
