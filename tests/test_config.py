"""Which modules a command loads: the config and `eval` need no numpy."""

from pathlib import Path

import pytest

from adaptls.cli import main

MINI_DIR = Path(__file__).parent / "data" / "mini"
MODULES = ("numpy", "multiprocessing", "concurrent.futures.process")

# `adaptls ARGV` in this interpreter, then the names of MODULES it loaded.
COMMAND = f"""
import contextlib, io, sys
from adaptls.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print(*[name for name in {MODULES!r} if name in sys.modules])
"""


def test_config_imports_no_numpy(fresh_python):
    code = "import sys, adaptls.config; print('numpy' in sys.modules)"
    assert fresh_python("-c", code).strip() == "False"


@pytest.fixture(scope="module")
def predictions(tmp_path_factory):
    out = tmp_path_factory.mktemp("pred")
    assert main(["run", "--dataset-dir", str(MINI_DIR), "--output-dir", str(out), "--method", "adprm-e"]) == 0
    return out


def test_eval_and_stats_load_no_numpy(fresh_python, predictions, tmp_path):
    evaluate = ["eval", "--pred", str(predictions), "--dataset", str(MINI_DIR), "--out", str(tmp_path / "r")]
    assert fresh_python("-c", COMMAND, *evaluate).split() == []
    assert fresh_python("-c", COMMAND, "stats", str(MINI_DIR)).split() == []


def test_serial_run_loads_no_pool(fresh_python, tmp_path):
    run = ["run", "--dataset-dir", str(MINI_DIR), "--output-dir", str(tmp_path / "out"), "--method", "adprm-e"]
    assert fresh_python("-c", COMMAND, *run, "--jobs", "1").split() == ["numpy"]
