"""The benchmark's tracer (bench/tracing.py) against the program it patches.

`Tracer` replaces functions under the names their callers look them up by,
some of them names that `adaptls.cli` binds only on first use.  Each check
runs in a new interpreter, so no earlier test has bound those names yet.
"""

import json
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"

LOAD_TRACING = f"""
import importlib.util
spec = importlib.util.spec_from_file_location("tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
"""

# Which PATCHES names do not resolve in a new interpreter.
UNRESOLVED = LOAD_TRACING + """
import importlib
print(*[f"{module}.{name}" for module, name, *_ in tracing.PATCHES
        if not hasattr(importlib.import_module(module), name)])
"""

# train -> run -> eval twice, traced first or second (argv: DATASET WORK
# METHOD ORDER); prints the counts and both rounds' output digests.
ROUNDS = LOAD_TRACING + """
import contextlib, hashlib, io, json, shutil, sys
from pathlib import Path

from adaptls.cli import main

dataset, work, method, order = sys.argv[1:]
work = Path(work)


def pipeline():
    shutil.rmtree(work, ignore_errors=True)
    run = ["run", "--dataset-dir", dataset, "--output-dir", str(work / "out"), "--method", method]
    if method == "adprm-d":
        assert main(["train", dataset, "--out", str(work / "reg")]) == 0
        run += ["--regressors", str(work / "reg")]
    assert main(run + ["--jobs", "1"]) == 0
    assert main(["eval", "--pred", str(work / "out"), "--dataset", dataset]) == 0
    return {str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()}


digests = []
with contextlib.redirect_stdout(io.StringIO()):
    for traced in (order == "traced-first", order == "traced-second"):
        if traced:
            with tracing.Tracer() as tracer:
                digests.append(pipeline())
        else:
            digests.append(pipeline())
print(json.dumps({"counts": tracer.counts, "digests": digests}))
"""


def test_every_patch_resolves_before_any_command(fresh_python):
    assert fresh_python("-c", UNRESOLVED).split() == []


@pytest.mark.parametrize("order", ["traced-first", "traced-second"])
@pytest.mark.parametrize("method", ["adprm-d", "adprm-e"])
def test_traced_pipeline_counts_and_outputs(fresh_python, mini_dir, tmp_path, method, order):
    result = json.loads(fresh_python("-c", ROUNDS, str(mini_dir), str(tmp_path / "work"), method, order))
    topics = sorted(mini_dir.iterdir())
    pairs = sum(len((topic / "timelines.jsonl").read_text().splitlines()) for topic in topics)
    counts = result["counts"]
    assert counts["corpus.vectorizer_calls"] == len(topics)
    assert counts["evaluation.align_calls"] == pairs
    assert counts["summarizer.candidates"] > 0
    first, second = result["digests"]
    assert first == second
    assert len(first) == pairs + 3 + (len(topics) if method == "adprm-d" else 0)  # + manifest, report.*
