"""`scripts/output_digests.py` lists one digest per output, equal on two runs."""

import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "output_digests.py"


def _run(dataset: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(dataset)], capture_output=True, text=True)


def _digests(stdout: str, dataset: Path) -> dict[str, str]:
    """{file: sha256} from the script's standard output on `dataset`."""
    pairs = (line.split("  ", 1) for line in stdout.splitlines())
    return {path.removeprefix(f"{dataset}/"): digest for digest, path in pairs}


def test_two_runs_give_equal_digests(mini_dir):
    runs = [_run(mini_dir) for _ in range(2)]
    for result in runs:
        assert (result.returncode, result.stderr) == (0, "")  # every command exited 0
    first = _digests(runs[0].stdout, mini_dir)
    assert _digests(runs[1].stdout, mini_dir) == first
    expected = {"log/train.txt", "log/stats.txt", "regressors/regressor_alpha.json"}
    for method in ("adprm-d", "adprm-e", "clust", "datewise"):
        expected |= {f"log/{command}-{method}.txt" for command in ("run", "eval")}
        expected |= {f"out/{method}/{name}" for name in ("manifest.json", "report.json", "alpha__ref.json")}
    for method in ("adprm-d", "adprm-e"):  # knee-curve draws only the adaptive runs' curves
        expected |= {f"log/knee-{method}.txt", f"knee/{method}.csv"}
    assert expected <= first.keys()
    assert {name for name in first if "knee" in name} <= expected


def test_a_failing_command_exits_1(mini_dir, tmp_path):
    """With one topic `train` fails; every digest is still printed, and the script exits 1."""
    dataset = tmp_path / "one-topic"
    shutil.copytree(mini_dir / "alpha", dataset / "alpha")
    result = _run(dataset)
    assert result.returncode == 1
    assert f"{dataset}: train exited 1" in result.stderr.splitlines()
    digests = _digests(result.stdout, dataset)
    assert {"log/train.txt", "log/stats.txt", "out/adprm-e/alpha__ref.json"} <= digests.keys()
