"""Which modules a command loads: the config, `train` and `eval` need no
numpy, `train`, `eval`, `stats` and load+annotate no `dataclasses` (which
loads `inspect`), and `train` and `run` no evaluation metrics."""

from pathlib import Path

import pytest

from adaptls.cli import main
from adaptls.config import FIELD_NAMES, RunConfig, read_config

MINI_DIR = Path(__file__).parent / "data" / "mini"
MODULES = ("numpy", "multiprocessing", "concurrent.futures.process")


def _command(modules) -> str:
    """`adaptls ARGV` in this interpreter, then the names of `modules` it loaded."""
    return f"""
import contextlib, io, sys
from adaptls.cli import main
from adaptls.config import FIELD_NAMES, RunConfig, read_config
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print(*[name for name in {modules!r} if name in sys.modules])
"""


COMMAND = _command(MODULES)


def test_config_imports_no_numpy(fresh_python):
    code = "import sys, adaptls.config; print('numpy' in sys.modules)"
    assert fresh_python("-c", code).strip() == "False"


def test_temporal_imports_no_numpy(fresh_python):
    code = "import sys, adaptls.temporal; print('numpy' in sys.modules)"
    assert fresh_python("-c", code).strip() == "False"


NO_DATACLASSES = ("dataclasses", "inspect")


def test_load_and_annotate_modules_import_no_dataclasses(fresh_python):
    code = f"import sys, adaptls.corpus, adaptls.temporal; print(*[m for m in {NO_DATACLASSES!r} if m in sys.modules])"
    assert fresh_python("-c", code).split() == []


def test_run_config_is_replaced_and_dumped_in_field_order(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"alpha": 0.5, "jobs": 2}')
    config = read_config(path)
    assert config == RunConfig(alpha=0.5, jobs=2)
    assert list(config._asdict()) == list(FIELD_NAMES) and len(FIELD_NAMES) == 18
    assert config._replace(jobs=3).jobs == 3 and config.jobs == 2
    with pytest.raises(AttributeError):
        config.jobs = 3


@pytest.fixture(scope="module")
def predictions(tmp_path_factory):
    out = tmp_path_factory.mktemp("pred")
    assert main(["run", "--dataset-dir", str(MINI_DIR), "--output-dir", str(out), "--method", "adprm-e"]) == 0
    return out


def test_eval_and_stats_load_no_numpy(fresh_python, predictions, tmp_path):
    evaluate = ["eval", "--pred", str(predictions), "--dataset", str(MINI_DIR), "--out", str(tmp_path / "r")]
    assert fresh_python("-c", COMMAND, *evaluate).split() == []
    assert fresh_python("-c", COMMAND, "stats", str(MINI_DIR)).split() == []


def test_eval_and_stats_load_no_dataclasses(fresh_python, predictions, tmp_path):
    command = _command(NO_DATACLASSES)
    evaluate = ["eval", "--pred", str(predictions), "--dataset", str(MINI_DIR), "--out", str(tmp_path / "r")]
    assert fresh_python("-c", command, *evaluate).split() == []
    assert fresh_python("-c", command, "stats", str(MINI_DIR)).split() == []


def test_train_loads_no_numpy_and_no_dataclasses(fresh_python, tmp_path):
    command = _command(("numpy",) + NO_DATACLASSES)
    train = ["train", str(MINI_DIR), "--out", str(tmp_path / "reg")]
    assert fresh_python("-c", command, *train).split() == []


def test_serial_run_loads_no_pool(fresh_python, tmp_path):
    run = ["run", "--dataset-dir", str(MINI_DIR), "--output-dir", str(tmp_path / "out"), "--method", "adprm-e"]
    assert fresh_python("-c", COMMAND, *run, "--jobs", "1").split() == ["numpy"]


def test_train_and_run_load_no_evaluation(fresh_python, tmp_path):
    command = _command(("adaptls.evaluation", "csv"))
    train = ["train", str(MINI_DIR), "--out", str(tmp_path / "reg")]
    assert fresh_python("-c", command, *train).split() == []
    for method in ("adprm-d", "adprm-e"):
        run = ["run", "--dataset-dir", str(MINI_DIR), "--output-dir", str(tmp_path / method)]
        run += ["--method", method, "--regressors", str(tmp_path / "reg")]
        assert fresh_python("-c", command, *run).split() == []
