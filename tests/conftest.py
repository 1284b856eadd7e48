import os
import subprocess
import sys
from pathlib import Path

import pytest

from adaptls.corpus import load_dataset
from adaptls.temporal import annotate_topic

MINI_DIR = Path(__file__).parent / "data" / "mini"
SRC_DIR = Path(__file__).parents[1] / "src"


@pytest.fixture
def mini_dir() -> Path:
    return MINI_DIR


@pytest.fixture
def mini_dataset():
    topics = load_dataset(MINI_DIR)
    for topic in topics:
        annotate_topic(topic)
    return topics


@pytest.fixture
def fresh_python():
    """Runs `python ARGS` in a new interpreter on this checkout's sources; its stdout.

    The interpreter is this one unless `python=` names another.
    """
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")

    def run(*args, python=sys.executable) -> str:
        result = subprocess.run([python, *args], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        return result.stdout

    return run
