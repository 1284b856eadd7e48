"""`scripts/output_digests.py` lists one digest per output, equal on two runs."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "output_digests.py"


def _digests(dataset: Path) -> dict[str, str]:
    """{file: sha256} from one run of the script on `dataset`."""
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(dataset)], capture_output=True, text=True, check=True
    )
    assert result.stderr == ""  # every command exited 0
    pairs = (line.split("  ", 1) for line in result.stdout.splitlines())
    return {path.removeprefix(f"{dataset}/"): digest for digest, path in pairs}


def test_two_runs_give_equal_digests(mini_dir):
    first = _digests(mini_dir)
    assert _digests(mini_dir) == first
    expected = {"log/train.txt", "log/stats.txt", "regressors/regressor_alpha.json"}
    for method in ("adprm-d", "adprm-e", "clust", "datewise"):
        expected |= {f"log/{command}-{method}.txt" for command in ("run", "eval", "knee")}
        expected.add(f"knee/{method}.csv")
        expected |= {f"out/{method}/{name}" for name in ("manifest.json", "report.json", "alpha__ref.json")}
    assert expected <= first.keys()
