"""tools/reach.py: its line accounting on a small traced module, and its
usage message. The rows it traces take a minute and do not run here."""

import importlib.util
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "reach.py"

SOURCE = '''\
def sign(x):
    if x > 0:
        y = 1
    else:
        y = -1
    if x > 10:
        raise ValueError("one line")
    if x > 100:
        raise ValueError(
            "two lines")
    return y


def negate(x):
    return -x
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def reach(monkeypatch):
    # the tool imports the tools beside it, which pin BLAS to one thread
    # on import; keep the test run's setting and path
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", [str(TOOL.parent), *sys.path])
    return _load("reach", TOOL)


def test_a_traced_module_is_accounted_line_by_line(reach, tmp_path):
    path = tmp_path / "signs.py"
    path.write_text(SOURCE)
    with reach.Tracer(tmp_path) as tracer:
        module = _load("signs", path)
        assert module.sign(5) == 1
        thread = threading.Thread(target=module.negate, args=(2,))
        thread.start()
        thread.join()
    # executable: the two def lines, sign's 2-3, 5-11 and negate's 15;
    # reached: the def lines, the taken branch, the checks, the return and
    # negate, run in a thread. The untaken branch (5) is the one range:
    # the raises (7, and 9-10) are left out.
    assert reach.account(path, tracer.reached[str(path)]) == (12, 8, [[5]])


def test_a_module_no_row_imports_is_unreached_in_ranges_broken_only_by_raises(reach, tmp_path):
    path = tmp_path / "signs.py"
    path.write_text(SOURCE)
    # a range runs over the lines that are not executable (4, 12-13) and
    # stops only at a raise (7, and 9-10)
    assert reach.account(path, set()) == (12, 0, [[1, 2, 3, 5, 6], [8], [11, 14, 15]])


def test_a_modules_line_0_is_not_an_executable_line(reach):
    # co_lines gives every module's first instructions line 0
    empty, assignment = compile("", "m", "exec"), compile("x = 1\n", "m", "exec")
    assert {line for _, _, line in empty.co_lines()} == {0}
    assert (reach.executable_lines(empty), reach.executable_lines(assignment)) == (set(), {1})


def test_no_arguments_print_the_usage_and_exit_2():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    usage = "    python3 tools/reach.py SRC\n"
    assert (done.returncode, done.stdout, done.stderr) == (2, "", usage)
