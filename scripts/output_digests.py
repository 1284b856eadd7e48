#!/usr/bin/env python3
"""Print a sha256 of every output the CLI writes for each dataset.

    python3 scripts/output_digests.py [--src SRC] DATASET...

A DATASET is a dataset directory, `WORKLOAD:SEED` for a benchmark workload
generated by `bench/gen.py` (for example `events-clustered:1`), or `planted`
for the planted synthetic topics of the tests; the last two are built by
this checkout's code, whatever SRC is.  Each dataset is copied into a
scratch directory, where these commands run with relative paths, each in
its own interpreter on the sources in SRC (this checkout's `src` by
default):

- `train`;
- `run` under `adprm-d`, `adprm-e`, `clust --constraint base` and
  `datewise --constraint base --summarizer opt`, each followed by `eval`;
  the two adaptive runs are also followed by `knee-curve` on the dataset's
  first topic in sorted order (the base constraint has no knee);
- `stats --json`.

Each output line is `<sha256>  <DATASET>/<file>`, over every file written,
in path order.  `manifest.json` is hashed without its `*_dir` lines.  Each
command also gets a line for `log/<command>.txt`: its exit code, standard
output and standard error.  A command that fails is also named on standard
error, and the script then exits 1 once every line is printed.  Two source
trees write byte-identical outputs when their lines are equal:

    python3 scripts/output_digests.py tests/data/mini planted dates-raw:1 > new.txt
    python3 scripts/output_digests.py --src OLD/src tests/data/mini planted dates-raw:1 > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNS = {
    "adprm-d": ["--method", "adprm-d"],
    "adprm-e": ["--method", "adprm-e"],
    "clust": ["--method", "clust", "--constraint", "base"],
    "datewise": ["--method", "datewise", "--constraint", "base", "--summarizer", "opt"],
}
CURVES = ("adprm-d", "adprm-e")  # the runs with a knee

_DIR_LINE_RE = re.compile(rb'^\s*"\w+_dir": .*\n', re.MULTILINE)


def _import_from(*dirs: Path) -> None:
    for path in map(str, dirs):
        if path not in sys.path:
            sys.path.insert(0, path)


def _build(dataset: str, target: Path) -> None:
    """Write DATASET's topics to `target`, with this checkout's code."""
    if dataset == "planted":
        _import_from(ROOT / "src", ROOT / "tests")
        from synthdata import planted_topics, save_topic

        for topic in planted_topics():
            save_topic(topic, target / topic.name)
    elif Path(dataset).is_dir():
        shutil.copytree(dataset, target)
    else:
        workload, _, seed = dataset.partition(":")
        _import_from(ROOT / "bench")
        import gen

        if workload not in gen.SPECS or not seed.isdigit():
            raise SystemExit(f"not a directory, WORKLOAD:SEED or 'planted': {dataset}")
        with tempfile.TemporaryDirectory() as tmp:
            gen.generate(workload, int(seed), tmp)
            shutil.copytree(Path(tmp) / "dataset", target)


def _commands(first_topic: str) -> list[tuple[str, list[str]]]:
    commands = [("train", ["train", "dataset", "--out", "regressors"])]
    for name, flags in RUNS.items():
        out = f"out/{name}"
        config = ["--dataset-dir", "dataset", "--regressors", "regressors", *flags]
        commands.append((f"run-{name}", ["run", "--output-dir", out, *config]))
        commands.append((f"eval-{name}", ["eval", "--pred", out, "--dataset", "dataset"]))
        if name in CURVES:
            knee = ["knee-curve", "--topic", first_topic, "--out", f"knee/{name}.csv", *config]
            commands.append((f"knee-{name}", knee))
    commands.append(("stats", ["stats", "dataset", "--json"]))
    return commands


def digests(dataset: str, src: Path) -> tuple[list[str], bool]:
    """`<sha256>  <dataset>/<file>` lines for every output of `dataset`, and
    whether every command exited 0."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _build(dataset, work / "dataset")
        (work / "log").mkdir()
        ok = True
        topics = (path.parent.name for path in (work / "dataset").glob("*/articles.jsonl"))
        for name, argv in _commands(min(topics)):
            result = subprocess.run(
                [sys.executable, "-m", "adaptls.cli", *argv],
                cwd=work, env=env, capture_output=True,
            )
            log = b"exit %d\n--- stdout\n%s--- stderr\n%s" % (
                result.returncode, result.stdout, result.stderr,
            )
            (work / "log" / f"{name}.txt").write_bytes(log)
            if result.returncode:
                print(f"{dataset}: {name} exited {result.returncode}", file=sys.stderr)
                ok = False
        lines = []
        for path in sorted(work.rglob("*")):
            if not path.is_file() or path.parts[len(work.parts)] == "dataset":
                continue
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = _DIR_LINE_RE.sub(b"", data)
            relative = path.relative_to(work).as_posix()
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {dataset}/{relative}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("datasets", nargs="+", metavar="DATASET")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the adaptls sources to run")
    args = parser.parse_args(argv)
    failed = False
    for dataset in args.datasets:
        lines, ok = digests(dataset, args.src.resolve())
        for line in lines:
            print(line, flush=True)
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
