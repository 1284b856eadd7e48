import csv
import functools
import gc
import hashlib
import json
import math
import multiprocessing
import random
import shutil
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adaptls import corpus
from adaptls.cli import main
from adaptls.config import CONSTRAINTS, FIELD_NAMES, K_POLICIES, METHODS, SUMMARIZERS
from synthdata import planted_topics, save_topic


@pytest.fixture(scope="session")
def planted_dir(tmp_path_factory):
    """The synthetic planted-burst dataset written to disk once per session."""
    root = tmp_path_factory.mktemp("planted")
    for topic in planted_topics():
        save_topic(topic, root / topic.name)
    return root


@pytest.fixture(scope="session")
def trained_dir(planted_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("regressors")
    assert main(["train", str(planted_dir), "--out", str(out)]) == 0
    return out


class TestTrain:
    def test_writes_one_regressor_per_topic(self, trained_dir):
        files = sorted(p.name for p in trained_dir.glob("regressor_*.json"))
        assert files == [
            "regressor_synth0.json",
            "regressor_synth1.json",
            "regressor_synth2.json",
        ]

    def test_regressor_files_parse(self, trained_dir):
        for path in trained_dir.glob("regressor_*.json"):
            obj = json.loads(path.read_text())
            assert len(obj["weights"]) == 9
            assert "bias" in obj and "lambda" in obj

    def test_single_topic_dataset_rejected(self, tmp_path, capsys):
        topic = planted_topics(n_topics=1)[0]
        root = tmp_path / "ds"
        save_topic(topic, root / topic.name)
        assert main(["train", str(root), "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InsufficientTopics"

    def test_dataset_without_reference_timelines_rejected(self, tmp_path, capsys):
        for topic in planted_topics(n_topics=2):
            topic.reference_timelines = []
            save_topic(topic, tmp_path / "ds" / topic.name)
        assert main(["train", str(tmp_path / "ds"), "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "EmptyDataset"

    def test_a_failed_train_writes_no_regressor(self, mini_dir, tmp_path, capsys):
        """Every held-out regressor is trained before the first one is written."""
        root = tmp_path / "ds"
        shutil.copytree(mini_dir / "alpha", root / "a")
        (root / "a" / "timelines.jsonl").write_text("")
        shutil.copytree(mini_dir / "beta", root / "b")
        assert main(["train", str(root), "--out", str(tmp_path / "reg")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "EmptyDataset"
        assert not (tmp_path / "reg").exists()

    def test_singular_system_writes_no_regressor(self, mini_dir, tmp_path, capsys):
        # mini's training sets have 5 or 6 candidate dates for 10 coefficients
        assert main(["train", str(mini_dir), "--out", str(tmp_path / "reg"), "--lambda", "0"]) == 1
        assert _one_json_error(capsys)["error"] == "SingularSystem"
        assert not (tmp_path / "reg").exists()


def _run(planted_dir, trained_dir, out_dir, *extra):
    argv = [
        "run",
        "--dataset-dir",
        str(planted_dir),
        "--output-dir",
        str(out_dir),
        "--method",
        "adprm-d",
        "--regressors",
        str(trained_dir),
        *extra,
    ]
    return main(argv)


class TestRunAdaptive:
    def test_recovers_planted_dates(self, planted_dir, trained_dir, tmp_path):
        out = tmp_path / "out"
        assert _run(planted_dir, trained_dir, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 3
        for entry in manifest["outputs"]:
            assert entry["l"] == 5  # five planted dates per topic
            assert entry["k"] == 1
            assert entry["knee"]["fallback_used"] is False
            timeline = json.loads((out / entry["file"]).read_text())
            assert len(timeline["entries"]) == 5
            assert all(len(e["summary"]) == 1 for e in timeline["entries"])

    def test_manifest_echoes_config(self, planted_dir, trained_dir, tmp_path):
        out = tmp_path / "out"
        assert _run(planted_dir, trained_dir, out, "--alpha", "0.02") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 0.02
        assert manifest["config"]["method"] == "adprm-d"
        assert manifest["config"]["constraint"] == "adaptive"

    def test_byte_identical_reruns(self, planted_dir, trained_dir, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert _run(planted_dir, trained_dir, out1) == 0
        assert _run(planted_dir, trained_dir, out2) == 0
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2
        for name in names1:
            if name == "manifest.json":
                # manifests embed the differing output dirs; compare outputs
                m1 = json.loads((out1 / name).read_text())
                m2 = json.loads((out2 / name).read_text())
                assert m1["outputs"] == m2["outputs"]
            else:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_parallel_jobs_match_serial(self, planted_dir, trained_dir, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert _run(planted_dir, trained_dir, serial) == 0
        assert _run(planted_dir, trained_dir, parallel, "--jobs", "2") == 0
        for path in serial.iterdir():
            if path.name != "manifest.json":
                assert path.read_bytes() == (parallel / path.name).read_bytes()

    def test_event_method_runs_without_regressors(self, planted_dir, tmp_path):
        out = tmp_path / "out"
        argv = [
            "run",
            "--dataset-dir",
            str(planted_dir),
            "--output-dir",
            str(out),
            "--method",
            "adprm-e",
        ]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 3
        for entry in manifest["outputs"]:
            assert entry["l"] >= 1

    def test_missing_regressors_flag_errors(self, planted_dir, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [
            "run",
            "--dataset-dir",
            str(planted_dir),
            "--output-dir",
            str(out),
            "--method",
            "adprm-d",
        ]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert "regressors" in err["message"]


# `adaptls ARGV` with the given pool start method (argv: START ARGV...).
START_METHOD_MAIN = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from adaptls.cli import main
sys.exit(main(sys.argv[2:]))
"""


# Writes a benchmark dataset (argv: WORKLOAD SEED OUT_DIR) with bench/gen.py,
# which imports its sibling modules by plain name.
GENERATE = f"""
import sys
sys.path.insert(0, {str(Path(__file__).parents[1] / "bench")!r})
import gen
gen.generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
"""


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the tasks, maps in-process."""

    sizes: list[int] = []
    tasks: list[tuple] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        tasks = list(zip(*iterables))
        self.tasks.extend(tasks)
        return (fn(*task) for task in tasks)


class TestJobs:
    @pytest.mark.parametrize("jobs, topics, workers", [("64", 3, [3]), ("2", 3, [2]), ("4", 1, [])])
    def test_pool_never_larger_than_the_topics(self, mini_dir, tmp_path, monkeypatch, jobs, topics, workers):
        monkeypatch.setattr("adaptls.cli.ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        root = tmp_path / "ds"
        for topic in sorted(mini_dir.iterdir())[:topics]:
            shutil.copytree(topic, root / topic.name)
        argv = ["run", "--dataset-dir", str(root), "--method", "adprm-e"]
        assert main(argv + ["--output-dir", str(tmp_path / "pool"), "--jobs", jobs]) == 0
        assert _RecordingPool.sizes == workers  # [] = served in this process
        assert main(argv + ["--output-dir", str(tmp_path / "serial")]) == 0
        for path in (tmp_path / "serial").iterdir():
            if path.name != "manifest.json":
                assert path.read_bytes() == (tmp_path / "pool" / path.name).read_bytes()

    @pytest.mark.parametrize("start", ["fork", "forkserver"])
    @pytest.mark.parametrize("method", ["adprm-d", "adprm-e"])
    def test_real_pool_matches_serial(self, mini_dir, tmp_path, fresh_python, method, start):
        """`adaptls run --jobs 2` in a new process starts a real pool of either kind."""
        out = tmp_path / "out"
        argv = ["-c", START_METHOD_MAIN, start, "run", "--dataset-dir", str(mini_dir)]
        argv += ["--output-dir", str(out), "--method", method]
        if method == "adprm-d":
            assert main(["train", str(mini_dir), "--out", str(tmp_path / "reg")]) == 0
            argv += ["--regressors", str(tmp_path / "reg")]
        outputs = []
        for jobs in ("1", "2"):
            shutil.rmtree(out, ignore_errors=True)
            fresh_python(*argv, "--jobs", jobs)
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        serial, pool = outputs
        manifest = json.loads(serial.pop("manifest.json"))
        manifest["config"]["jobs"] = 2  # the one difference
        assert pool.pop("manifest.json").decode() == json.dumps(manifest, ensure_ascii=False, indent=2) + "\n"
        assert pool == serial and len(serial) == 4

    def test_real_pool_matches_serial_on_bench_corpus(self, tmp_path, fresh_python):
        """`--jobs 2` on the benchmark's events-clustered corpus, seed 1, as generated there."""
        self._check_bench_corpus(tmp_path, fresh_python, "events-clustered", "adprm-e")

    def test_real_pool_matches_serial_on_raw_bench_corpus(self, tmp_path, fresh_python):
        """The same on dates-raw, whose raw sentences are tokenized in the workers."""
        self._check_bench_corpus(tmp_path, fresh_python, "dates-raw", "adprm-d")

    @staticmethod
    def _check_bench_corpus(tmp_path, fresh_python, workload, method):
        fresh_python("-c", GENERATE, workload, "1", str(tmp_path))
        out = tmp_path / "out"
        argv = ["-c", START_METHOD_MAIN, "fork", "run", "--dataset-dir", str(tmp_path / "dataset")]
        argv += ["--output-dir", str(out), "--method", method, "--constraint", "adaptive"]
        if method == "adprm-d":
            assert main(["train", str(tmp_path / "dataset"), "--out", str(tmp_path / "reg")]) == 0
            argv += ["--regressors", str(tmp_path / "reg")]
        outputs = []
        for jobs in ("1", "2"):
            shutil.rmtree(out, ignore_errors=True)
            fresh_python(*argv, "--jobs", jobs)
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        serial, pool = outputs
        manifest = json.loads(serial.pop("manifest.json"))
        assert manifest["config"]["jobs"] == 1
        manifest["config"]["jobs"] = 2  # the one difference
        assert pool.pop("manifest.json").decode() == json.dumps(manifest, ensure_ascii=False, indent=2) + "\n"
        references = [p.read_text().splitlines() for p in tmp_path.glob("dataset/*/timelines.jsonl")]
        assert pool == serial and len(serial) == sum(map(len, references))


class TestOneTopicAtATime:
    """`run` and `train` load each topic on its turn and drop it before the next."""

    @pytest.mark.parametrize("method", ["adprm-d", "adprm-e"])
    def test_run_holds_one_topic(self, mini_dir, tmp_path, monkeypatch, method):
        from adaptls import cli
        from adaptls.tfidf import build_vectorizer

        def topics_alive() -> int:
            gc.collect()
            return sum(isinstance(obj, corpus.Topic) for obj in gc.get_objects())

        def counting(topic):
            alive.append(topics_alive())
            return build_vectorizer(topic)

        def no_dataset(root):
            raise AssertionError(f"the whole dataset {root} was loaded")

        monkeypatch.setattr(cli, "load_dataset", no_dataset)
        argv = ["run", "--dataset-dir", str(mini_dir), "--output-dir", str(tmp_path / "out"), "--method", method]
        if method == "adprm-d":
            assert main(["train", str(mini_dir), "--out", str(tmp_path / "reg")]) == 0
            argv += ["--regressors", str(tmp_path / "reg")]
        monkeypatch.setattr(cli, "build_vectorizer", counting)
        alive = []
        before = topics_alive()
        assert main(argv) == 0
        assert alive == [before + 1] * 3  # one build per mini topic, with only that topic alive

    def test_workers_receive_directories(self, mini_dir, tmp_path, monkeypatch):
        monkeypatch.setattr("adaptls.cli.ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(_RecordingPool, "tasks", [])
        argv = ["run", "--dataset-dir", str(mini_dir), "--output-dir", str(tmp_path / "out")]
        assert main(argv + ["--method", "adprm-e", "--jobs", "2"]) == 0
        topic_dirs = [topic_dir for topic_dir, _ in _RecordingPool.tasks]
        assert all(isinstance(topic_dir, Path) for topic_dir in topic_dirs)
        assert topic_dirs == sorted(mini_dir.iterdir())

    @pytest.mark.parametrize("command", ["run", "run --jobs 2", "train"])
    def test_malformed_last_topic_writes_nothing(self, mini_dir, tmp_path, monkeypatch, capsys, command):
        """A bad topic fails the command when its turn comes, before its output directory is made."""
        root = tmp_path / "ds"
        shutil.copytree(mini_dir, root)
        bad = root / "gamma" / "articles.jsonl"
        bad.write_text('{"id": "g1"\n')
        fork_pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
        monkeypatch.setattr("adaptls.cli.ProcessPoolExecutor", fork_pool)
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", str(root), "--out", str(out)]
        else:
            argv = ["run", "--dataset-dir", str(root), "--output-dir", str(out), "--method", "adprm-e"]
            argv += command.split()[1:]
        assert main(argv) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ParseError" and err["message"].startswith(f"{bad}:1: ")
        assert not out.exists()


def _shuffled_copy(src: Path, dst: Path, seed: int) -> Path:
    """`src` with the lines of every articles.jsonl in a seeded random order."""
    shutil.copytree(src, dst)
    rng = random.Random(seed)
    for path in sorted(dst.glob("*/articles.jsonl")):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(lines)
        path.write_text("".join(lines), encoding="utf-8")
    return dst


class TestArticleOrder:
    def test_shuffled_articles_give_identical_outputs(self, planted_dir, tmp_path):
        datasets = {
            "sorted": planted_dir,
            "shuffled": _shuffled_copy(planted_dir, tmp_path / "shuffled", seed=3),
        }
        assert (datasets["shuffled"] / "synth0" / "articles.jsonl").read_bytes() != (
            planted_dir / "synth0" / "articles.jsonl"
        ).read_bytes()
        files = {}
        for name, root in datasets.items():
            out = tmp_path / name
            assert main(["train", str(root), "--out", str(out / "reg")]) == 0
            for method in ("adprm-d", "adprm-e"):
                run = out / method
                argv = ["run", "--dataset-dir", str(root), "--output-dir", str(run), "--method", method]
                assert main(argv + ["--regressors", str(out / "reg")]) == 0
                assert main(["eval", "--pred", str(run), "--dataset", str(root)]) == 0
            files[name] = {
                str(path.relative_to(out)): path.read_bytes()
                for path in sorted(out.rglob("*.json"))
                if path.name != "manifest.json"
            }
        assert len(files["sorted"]) == 3 + 2 * (3 + 1)  # regressors; timelines and report
        assert files["sorted"] == files["shuffled"]

    def test_tied_events_do_not_follow_the_file_order(self, tmp_path):
        """a1 and b2 are singleton events that tie on score, date and size.

        The event ranking keeps the first of them; that must be a1, the
        first by id, whichever comes first in articles.jsonl.
        """
        articles = {
            "a1": ("2021-03-01", "Crews pumped water all night."),
            "b2": ("2021-03-01", "Stocks climbed sharply on strong earnings."),
            "c3": ("2021-03-04", "The river fell back below its banks."),
        }
        reference = {
            "name": "ref",
            "entries": [
                {"date": "2021-03-01", "summary": ["Water was pumped."]},
                {"date": "2021-03-04", "summary": ["The river fell."]},
            ],
        }
        runs = {"clust": ["--method", "clust", "--constraint", "base"], "adprm-e": ["--method", "adprm-e"]}
        timelines = {name: [] for name in runs}
        for order in (["a1", "b2", "c3"], ["b2", "a1", "c3"]):
            root = tmp_path / "".join(order)
            (root / "t").mkdir(parents=True)
            lines = [
                json.dumps({"id": aid, "publish_date": articles[aid][0], "title": "", "text": articles[aid][1]})
                for aid in order
            ]
            (root / "t" / "articles.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
            (root / "t" / "timelines.jsonl").write_text(json.dumps(reference) + "\n", encoding="utf-8")
            for name, flags in runs.items():
                out = root / name
                assert main(["run", "--dataset-dir", str(root), "--output-dir", str(out), *flags]) == 0
                timelines[name].append(json.loads((out / "t__ref.json").read_text(encoding="utf-8")))
        for first, second in timelines.values():
            assert first == second
            assert first["entries"][0] == {"date": "2021-03-01", "summary": [articles["a1"][1]]}


class TestRunBase:
    def test_length_matches_each_reference(self, planted_dir, trained_dir, tmp_path):
        out = tmp_path / "out"
        assert (
            _run(planted_dir, trained_dir, out, "--constraint", "base") == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            assert entry["l"] == 5  # reference timelines list the 5 planted dates
            assert entry["knee"] is None
            timeline = json.loads((out / entry["file"]).read_text())
            assert len(timeline["entries"]) == 5

    def test_k_is_each_reference_own_rounded_mean(self, tmp_path):
        from adaptls.corpus import Timeline

        topic = planted_topics(n_topics=1)[0]
        days = topic.reference_timelines[0].dates()[:4]
        # mean daily lengths 2.5, 2.25 and 2.75; the topic-wide mean is 2.5
        sizes = {"r1": (2, 3, 2, 3), "r2": (2, 2, 2, 3), "r3": (3, 3, 2, 3)}
        topic.reference_timelines = [
            Timeline(name, [(day, ["Line."] * n) for day, n in zip(days, counts)])
            for name, counts in sizes.items()
        ]
        save_topic(topic, tmp_path / "ds" / topic.name)
        out = tmp_path / "out"
        argv = ["run", "--dataset-dir", str(tmp_path / "ds"), "--output-dir", str(out)]
        assert main(argv + ["--method", "clust", "--constraint", "base"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(e["reference"], e["k"]) for e in manifest["outputs"]] == [
            ("r1", 3),
            ("r2", 2),
            ("r3", 3),
        ]

    def test_one_event_per_planted_date(self, tmp_path):
        """Where each planted date has words of its own, adprm-e finds every
        planted date at the reference's length."""
        for topic in planted_topics(disjoint=True):
            save_topic(topic, tmp_path / "ds" / topic.name)
        out = tmp_path / "out"
        argv = ["run", "--dataset-dir", str(tmp_path / "ds"), "--output-dir", str(out)]
        assert main(argv + ["--method", "adprm-e", "--constraint", "base"]) == 0
        assert main(["eval", "--pred", str(out), "--dataset", str(tmp_path / "ds")]) == 0
        pairs = json.loads((out / "report.json").read_text())["pairs"]
        assert len(pairs) == 3 and all(pair["date_f1"]["f1"] == 1.0 for pair in pairs)

    @pytest.mark.parametrize("method", METHODS)
    def test_each_distinct_l_and_k_built_once(self, mini_dir, tmp_path, monkeypatch, method):
        """gamma's third reference asks for ref1's (l, k): its timeline is
        ref1's, built once, and no other output changes."""
        from adaptls import cli

        root = tmp_path / "dataset"
        shutil.copytree(mini_dir, root)
        ref3 = {"name": "ref3", "entries": [
            {"date": "2021-06-01", "summary": ["Storm at sea."]},
            {"date": "2021-06-03", "summary": ["Landfall."]},
        ]}
        with (root / "gamma" / "timelines.jsonl").open("a") as handle:
            handle.write(json.dumps(ref3) + "\n")
        assert main(["train", str(mini_dir), "--out", str(tmp_path / "reg")]) == 0
        built, build = [], cli.build_timeline

        def counting(topic, *args):
            built.append(topic.name)
            return build(topic, *args)

        monkeypatch.setattr(cli, "build_timeline", counting)
        flags = ["--method", method, "--constraint", "base", "--regressors", str(tmp_path / "reg")]
        outputs = {}
        for name, dataset in (("plain", mini_dir), ("ref3", root)):
            built.clear()
            argv = ["run", "--dataset-dir", str(dataset), "--output-dir", str(tmp_path / name), *flags]
            assert main(argv) == 0
            assert built.count("gamma") == 2
            outputs[name] = json.loads((tmp_path / name / "manifest.json").read_text())["outputs"]
        *entries, last = outputs["ref3"]
        assert entries == outputs["plain"]
        ref1 = next(entry for entry in entries if entry["file"] == "gamma__ref1.json")
        assert last == dict(ref1, file="gamma__ref3.json", reference="ref3")
        read = lambda name, file: (tmp_path / name / file).read_bytes()  # noqa: E731
        assert read("ref3", "gamma__ref3.json") == read("ref3", "gamma__ref1.json")
        for entry in entries:
            assert read("ref3", entry["file"]) == read("plain", entry["file"])

    def test_baseline_method_requires_base_constraint(self, planted_dir, tmp_path, capsys):
        argv = [
            "run",
            "--dataset-dir",
            str(planted_dir),
            "--output-dir",
            str(tmp_path / "out"),
            "--method",
            "datewise",
            "--constraint",
            "adaptive",
        ]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert "constraint" in err["message"]


# Method and constraint pairs that `run` accepts; baselines take only "base".
RUN_MODES = [("adprm-d", "adaptive"), ("adprm-d", "base"), ("adprm-e", "adaptive"),
             ("adprm-e", "base"), ("datewise", "base"), ("clust", "base")]


def _with_empty_articles(mini_dir: Path, root: Path, days: list[str]) -> Path:
    """Mini with 8 text-less articles on each of `days` added to topic alpha,
    and regressors that score a date ln(1 + articles published on it)."""
    shutil.copytree(mini_dir, root / "dataset")
    with (root / "dataset" / "alpha" / "articles.jsonl").open("a", encoding="utf-8") as handle:
        for day in days:
            for i in range(8):
                article = {"id": f"empty-{day}-{i}", "publish_date": day, "title": "Empty", "text": ""}
                handle.write(json.dumps(article) + "\n")
    (root / "reg").mkdir()
    for topic in ("alpha", "beta", "gamma"):
        regressor = {"weights": [0, 1, 0, 0, 0, 0, 0, 0, 0], "bias": 0, "lambda": 1}
        (root / "reg" / f"regressor_{topic}.json").write_text(json.dumps(regressor))
    return root


class TestUnsummarizableDates:
    """Dates whose articles hold no sentence are dropped before the knee, so
    each manifest `l` is the number of entries written."""

    @pytest.mark.parametrize("days", [["2021-01-03"], ["2021-01-03", "2021-01-02"]], ids=["8", "16"])
    @pytest.mark.parametrize("method, constraint", RUN_MODES)
    def test_manifest_l_equals_entries_written(self, mini_dir, tmp_path, days, method, constraint):
        root = _with_empty_articles(mini_dir, tmp_path, days)
        out = tmp_path / "out"
        argv = ["run", "--dataset-dir", str(root / "dataset"), "--output-dir", str(out)]
        argv += ["--method", method, "--constraint", constraint, "--regressors", str(root / "reg")]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 4
        for entry in manifest["outputs"]:
            entries = json.loads((out / entry["file"]).read_text())["entries"]
            assert len(entries) == entry["l"]
            assert not {e["date"] for e in entries} & set(days)

    # alpha's summarizable items: the dates 2021-01-01, -04 ("yesterday") and
    # -05; the events of its two articles with text
    @pytest.mark.parametrize("method, items", [("adprm-d", 3), ("adprm-e", 2)])
    def test_knee_curve_skips_them(self, mini_dir, tmp_path, method, items):
        root = _with_empty_articles(mini_dir, tmp_path, ["2021-01-03", "2021-01-02"])
        out = tmp_path / "curve.csv"
        argv = ["knee-curve", "--dataset-dir", str(root / "dataset"), "--topic", "alpha"]
        argv += ["--method", method, "--regressors", str(root / "reg"), "--out", str(out)]
        assert main(argv) == 0
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["c"]) for r in rows] == list(range(1, items + 1))


def _planted_with_empty_articles(planted_dir: Path, root: Path, blank, empty_days, extra) -> Path:
    """The planted topics, each with the text of its articles at indexes
    `blank` removed, 8 text-less articles on each of `empty_days` (offsets
    from its first publish date), and `extra` reference entries on dates no
    article has; regressors score a date ln(1 + articles published on it)."""
    for topic_dir in sorted(planted_dir.iterdir()):
        lines = (topic_dir / "articles.jsonl").read_text(encoding="utf-8").splitlines()
        articles = [json.loads(line) for line in lines]
        for index in blank:
            articles[index % len(articles)].update(text="", pretokenized=[])
        start = date.fromisoformat(min(a["publish_date"] for a in articles))
        for offset in empty_days:
            day = (start + timedelta(days=offset)).isoformat()
            for i in range(8):
                articles.append({"id": f"empty-{offset}-{i}", "publish_date": day, "title": "Empty", "text": ""})
        [reference] = [json.loads(line) for line in (topic_dir / "timelines.jsonl").read_text().splitlines()]
        last = date.fromisoformat(max(e["date"] for e in reference["entries"]))
        reference["entries"] += [
            {"date": (last + timedelta(days=400 + i)).isoformat(), "summary": ["Later."]} for i in range(extra)
        ]
        out = root / "dataset" / topic_dir.name
        out.mkdir(parents=True)
        (out / "articles.jsonl").write_text("".join(json.dumps(a) + "\n" for a in articles), encoding="utf-8")
        (out / "timelines.jsonl").write_text(json.dumps(reference) + "\n", encoding="utf-8")
        regressor = {"weights": [0, 1, 0, 0, 0, 0, 0, 0, 0], "bias": 0, "lambda": 1}
        (root / "reg").mkdir(exist_ok=True)
        (root / "reg" / f"regressor_{topic_dir.name}.json").write_text(json.dumps(regressor))
    return root


@settings(max_examples=4, deadline=None)
@given(
    # article 0 of each topic keeps its text, so every topic has a summarizable date
    blank=st.lists(st.integers(1, 27), max_size=27, unique=True),
    empty_days=st.lists(st.integers(-3, 62), max_size=3, unique=True),
    extra=st.integers(0, 12),
)
def test_manifest_l_is_entries_written_on_planted_topics(planted_dir, blank, empty_days, extra):
    """Under every method and constraint `run` accepts, each output's `l` is
    the number of entries written, also where text-less articles leave fewer
    summarizable dates than the knee or the reference length asks for."""
    with tempfile.TemporaryDirectory() as tmp:
        root = _planted_with_empty_articles(planted_dir, Path(tmp), blank, empty_days, extra)
        for method, constraint in RUN_MODES:
            out = root / f"out-{method}-{constraint}"
            argv = ["run", "--dataset-dir", str(root / "dataset"), "--output-dir", str(out)]
            argv += ["--method", method, "--constraint", constraint, "--regressors", str(root / "reg")]
            assert main(argv) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert len(manifest["outputs"]) == 3
            for entry in manifest["outputs"]:
                entries = json.loads((out / entry["file"]).read_text())["entries"]
                assert len(entries) == entry["l"] >= 1


class TestConfigFile:
    def test_config_file_with_flag_override(self, planted_dir, trained_dir, tmp_path):
        out = tmp_path / "out"
        config = {
            "dataset_dir": str(planted_dir),
            "output_dir": str(out),
            "method": "adprm-d",
            "regressors_dir": str(trained_dir),
            "alpha": 0.05,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path), "--alpha", "0.01"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 0.01  # flag wins

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"nonsense": 1}))
        assert main(["run", "--config", str(config_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "nonsense" in err["message"]


class TestEval:
    def _reference_predictions(self, planted_dir, tmp_path):
        """Copy each reference timeline as its own prediction."""
        from adaptls.cli import _safe_name
        from adaptls.corpus import load_dataset

        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for topic in load_dataset(planted_dir):
            for ref in topic.reference_timelines:
                path = pred_dir / f"{_safe_name(topic.name)}__{_safe_name(ref.name)}.json"
                path.write_text(json.dumps(ref.to_json_obj()))
        return pred_dir

    def test_identity_predictions_score_one(self, planted_dir, tmp_path, capsys):
        pred_dir = self._reference_predictions(planted_dir, tmp_path)
        out_prefix = tmp_path / "report"
        argv = [
            "eval",
            "--pred",
            str(pred_dir),
            "--dataset",
            str(planted_dir),
            "--out",
            str(out_prefix),
        ]
        assert main(argv) == 0
        report = json.loads(out_prefix.with_suffix(".json").read_text())
        assert report["macro"]["DATE-F1"] == pytest.approx(1.0)
        assert report["macro"]["AR1-F"] == pytest.approx(1.0)
        assert report["macro"]["AR2-F"] == pytest.approx(1.0)
        assert out_prefix.with_suffix(".txt").is_file()
        assert "DATE-F1" in capsys.readouterr().out

    def test_disjoint_predictions_score_zero(self, planted_dir, tmp_path):
        from adaptls.cli import _safe_name
        from adaptls.corpus import load_dataset

        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for topic in load_dataset(planted_dir):
            for ref in topic.reference_timelines:
                path = pred_dir / f"{_safe_name(topic.name)}__{_safe_name(ref.name)}.json"
                path.write_text(
                    json.dumps(
                        {
                            "name": "junk",
                            "entries": [
                                {"date": "1999-01-01", "summary": ["zzz qqq."]}
                            ],
                        }
                    )
                )
        out_prefix = tmp_path / "report"
        argv = [
            "eval",
            "--pred",
            str(pred_dir),
            "--dataset",
            str(planted_dir),
            "--out",
            str(out_prefix),
        ]
        assert main(argv) == 0
        report = json.loads(out_prefix.with_suffix(".json").read_text())
        assert report["macro"]["DATE-F1"] == 0.0
        assert report["macro"]["AR1-F"] == 0.0

    def test_empty_prediction_scores_zero(self, planted_dir, tmp_path):
        pred_dir = self._reference_predictions(planted_dir, tmp_path)
        empty, *scored = sorted(pred_dir.iterdir())
        empty.write_text(json.dumps({"entries": []}))
        out_prefix = tmp_path / "report"
        argv = ["eval", "--pred", str(pred_dir), "--dataset", str(planted_dir), "--out", str(out_prefix)]
        assert main(argv) == 0
        pairs = json.loads(out_prefix.with_suffix(".json").read_text())["pairs"]
        zero = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert [pair["ar1"] for pair in pairs].count(zero) == 1
        for pair in pairs:
            expected = zero if pair["ar1"] == zero else {"precision": 1.0, "recall": 1.0, "f1": 1.0}
            assert pair["date_f1"] == pair["ar1"] == pair["ar2"] == expected
        assert len(pairs) == len(scored) + 1

    def test_out_prefix_keeps_its_dots(self, planted_dir, tmp_path):
        """`--out PREFIX` appends .json and .txt: two prefixes that differ after a dot write four files."""
        pred_dir = self._reference_predictions(planted_dir, tmp_path)
        for prefix in ("a0.01", "a0.05"):
            out = str(tmp_path / "sweep" / prefix)
            assert main(["eval", "--pred", str(pred_dir), "--dataset", str(planted_dir), "--out", out]) == 0
        files = sorted(path.name for path in (tmp_path / "sweep").iterdir())
        assert files == ["a0.01.json", "a0.01.txt", "a0.05.json", "a0.05.txt"]

    def test_missing_prediction_file_errors(self, planted_dir, tmp_path, capsys):
        pred_dir = tmp_path / "empty"
        pred_dir.mkdir()
        argv = [
            "eval",
            "--pred",
            str(pred_dir),
            "--dataset",
            str(planted_dir),
        ]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingPrediction"


class TestStats:
    def test_json_output(self, mini_dir, capsys):
        assert main(["stats", str(mini_dir), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["Topics"] == 3
        assert obj["TLs"] == 4
        assert obj["AvgL"] == pytest.approx(1.75)

    def test_table_output(self, mini_dir, capsys):
        assert main(["stats", str(mini_dir)]) == 0
        out = capsys.readouterr().out
        assert "AvgSentNum" in out and "AvgDateCov" in out

    def test_output_bytes(self, mini_dir, capsys):
        """The table and the --json object on stdout, byte for byte."""
        digests = []
        for flags in ([], ["--json"]):
            assert main(["stats", str(mini_dir), *flags]) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest())
        assert digests == [
            "3bb5704a774b85c1a2e8cd7dbdf27828d1b6ca19d5d8b7bb746471d9716f19dd",
            "f74cf048a35f15f3ebcd548423f97e74dce3c307778dca8ec3c3ea5f384f1e06",
        ]

    def test_candidate_dates_once_per_topic(self, mini_dir, monkeypatch, capsys):
        """gamma has two references; its corpus figures are still computed once."""
        from adaptls import temporal

        candidate_dates = temporal.candidate_dates
        calls = []

        def counting(topic):
            calls.append(topic.name)
            return candidate_dates(topic)

        monkeypatch.setattr(temporal, "candidate_dates", counting)
        assert main(["stats", str(mini_dir), "--json"]) == 0
        assert calls == ["alpha", "beta", "gamma"]


def _other_interpreters() -> list[str]:
    """Every python3.N on PATH (N = 10-14) that starts and is not this interpreter's minor version."""
    found = []
    for minor in range(10, 15):
        path = shutil.which(f"python3.{minor}")
        if minor != sys.version_info.minor and path:
            if subprocess.run([path, "-c", "pass"], capture_output=True, timeout=60).returncode == 0:
                found.append(path)
    return found


class TestAcrossInterpreters:
    def test_eval_and_stats_bytes(self, mini_dir, tmp_path, capsys, fresh_python):
        """`eval` on mini's adprm-e predictions and `stats --json` on the benchmark's dates-raw
        corpus (seed 1) write here the bytes that every other Python found writes.  Neither
        command loads numpy; from 3.12 on `sum` of floats would round differently."""
        others = _other_interpreters()
        if not others:
            pytest.skip("no other python3.N (N = 10-14) on PATH starts")
        pred = tmp_path / "pred"
        assert main(["run", "--dataset-dir", str(mini_dir), "--output-dir", str(pred), "--method", "adprm-e"]) == 0
        fresh_python("-c", GENERATE, "dates-raw", "1", str(tmp_path / "bench"))
        capsys.readouterr()
        stats = ["stats", str(tmp_path / "bench" / "dataset"), "--json"]

        def evaluate(name):
            return ["eval", "--pred", str(pred), "--dataset", str(mini_dir), "--out", str(tmp_path / name)]

        def written(name, stdout):
            return [stdout] + [(tmp_path / f"{name}{suffix}").read_bytes() for suffix in (".json", ".txt")]

        assert main(evaluate("here")) == 0 and main(stats) == 0
        expected = written("here", capsys.readouterr().out)
        for i, python in enumerate(others):
            stdout = fresh_python("-m", "adaptls.cli", *evaluate(f"other{i}"), python=python)
            stdout += fresh_python("-m", "adaptls.cli", *stats, python=python)
            assert written(f"other{i}", stdout) == expected, python


class TestKneeCurve:
    def test_csv_shape_and_monotonic_sc(self, planted_dir, trained_dir, tmp_path):
        out = tmp_path / "curve.csv"
        argv = [
            "knee-curve",
            "--dataset-dir",
            str(planted_dir),
            "--method",
            "adprm-d",
            "--regressors",
            str(trained_dir),
            "--topic",
            "synth0",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert [int(r["c"]) for r in rows] == list(range(1, len(rows) + 1))
        scs = [float(r["sc"]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(scs, scs[1:]))
        knees = [r for r in rows if r["is_knee"] == "1"]
        assert len(knees) == 1
        assert int(knees[0]["c"]) == 5
        # at the knee every planted date is on the timeline: date F1 is 1
        assert float(knees[0]["date_f1__planted"]) == pytest.approx(1.0)

    def test_unknown_topic_errors(self, planted_dir, trained_dir, tmp_path, capsys):
        argv = [
            "knee-curve",
            "--dataset-dir",
            str(planted_dir),
            "--method",
            "adprm-d",
            "--regressors",
            str(trained_dir),
            "--topic",
            "nope",
            "--out",
            str(tmp_path / "curve.csv"),
        ]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnknownTopic"

    def test_parses_only_its_topic(self, mini_dir, tmp_path, monkeypatch):
        """The other topics' references are checked, but their articles are never parsed."""
        parsed = []

        def recording(obj, where):
            parsed.append(where)
            return article_from_obj(obj, where)

        article_from_obj = corpus._article_from_obj
        monkeypatch.setattr(corpus, "_article_from_obj", recording)
        out = tmp_path / "curve.csv"
        assert main(_knee_argv(mini_dir, out, "--method", "adprm-e")) == 0
        lines = (mini_dir / "gamma" / "articles.jsonl").read_text(encoding="utf-8").splitlines()
        assert parsed == [f"{mini_dir / 'gamma' / 'articles.jsonl'}:{i}" for i in range(1, len(lines) + 1)]


def _knee_argv(mini_dir: Path, out: Path, *extra) -> list[str]:
    return ["knee-curve", "--dataset-dir", str(mini_dir), "--topic", "gamma", "--out", str(out), *extra]


class TestKneeCurveFlags:
    """`knee-curve` takes only the flags it reads, and draws only the
    adaptive constraint's curve: under the base constraint there is no knee."""

    @pytest.mark.parametrize(
        "flag, value",
        [("--output-dir", "out"), ("--constraint", "base"), ("--k-policy", "expert"), ("--summarizer", "opt"), ("--jobs", "2")],
    )
    def test_run_only_flag_rejected(self, mini_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "curve.csv"
        assert main(_knee_argv(mini_dir, out, "--method", "adprm-e", flag, value)) == 1
        err = _one_json_error(capsys)
        assert err == {"error": "ValueError", "message": f"adaptls: unrecognized arguments: {flag} {value}"}
        assert not out.exists()

    @pytest.mark.parametrize("method", ["datewise", "clust"])
    def test_baseline_method_rejected(self, mini_dir, tmp_path, capsys, method):
        out = tmp_path / "curve.csv"
        assert main(_knee_argv(mini_dir, out, "--method", method)) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"adaptls knee-curve: argument --method: invalid choice: '{method}'")
        assert not out.exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"method": "adprm-e", "constraint": "base"},
            {"method": "clust", "constraint": "base"},
            {"method": "datewise", "constraint": "base", "summarizer": "opt"},
        ],
        ids=["adprm-e", "clust", "datewise"],
    )
    def test_base_constraint_config_rejected(self, mini_dir, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "knee" / "curve.csv"
        assert main(_knee_argv(mini_dir, out, "--config", str(path))) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ValueError" and "'base'" in err["message"]
        assert not (tmp_path / "knee").exists()

    def test_run_config_file_is_read(self, mini_dir, tmp_path):
        """A run's config file is valid for knee-curve, which ignores the run-only keys."""
        config = {"method": "adprm-e", "output_dir": "out", "constraint": "adaptive", "k_policy": "expert",
                  "summarizer": "opt", "jobs": 2}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(_knee_argv(mini_dir, tmp_path / "config.csv", "--config", str(path))) == 0
        assert main(_knee_argv(mini_dir, tmp_path / "flags.csv", "--method", "adprm-e")) == 0
        assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()


class TestPretokenizedFallback:
    def test_no_blank_summary_sentence(self, tmp_path, capsys):
        """Token lists that do not line up with the text's sentences become
        the raws; an empty list becomes no sentence, not a blank one."""
        articles = [
            dict(ARTICLE, id="a1", publish_date="2021-01-01", title="Storm", text="Storm hits the coast on 2021-01-01.",
                 pretokenized=[["storm", "hits", "the", "coast", "on", "2021", "01", "01"], []]),
            dict(ARTICLE, id="a2", publish_date="2021-01-02", title="Flood", text="Flood follows the storm. Rain again.",
                 pretokenized=[["flood", "follows", "the", "storm"], ["rain", "again"]]),
        ]
        reference = {"name": "ref", "entries": [
            {"date": "2021-01-01", "summary": ["Storm hits.", "Coast hit."]},
            {"date": "2021-01-02", "summary": ["Flood follows.", "Rain again."]},
        ]}
        root = _write_topic(tmp_path / "ds", articles=articles, timelines=[reference])
        assert main(_run_argv(tmp_path, root, "--method", "adprm-e", "--constraint", "base")) == 0
        assert capsys.readouterr().err == ""
        entries = json.loads((tmp_path / "out" / "t__ref.json").read_text())["entries"]
        assert entries == [
            {"date": "2021-01-01", "summary": ["storm hits the coast on 2021 01 01"]},
            {"date": "2021-01-02", "summary": ["Flood follows the storm.", "Rain again."]},
        ]


def _mini_with_regressors(mini_dir: Path, root: Path, regressor: str) -> Path:
    """`root` with mini's dataset and `regressor` as the file of every topic."""
    shutil.copytree(mini_dir, root / "dataset")
    (root / "reg").mkdir()
    for topic in ("alpha", "beta", "gamma"):
        (root / "reg" / f"regressor_{topic}.json").write_text(regressor)
    return root


def _finite_json(text: str):
    def reject(constant):
        raise AssertionError(f"{constant} in JSON output")

    return json.loads(text, parse_constant=reject)


class TestNoNaN:
    """No NaN reaches the knee, the manifest or the knee curve."""

    def test_finite_scores_past_half_the_float_range(self, mini_dir, tmp_path, capsys):
        # pos_first - pos_last spans the whole float range: scores from -1.79e308 to 1.79e308
        regressor = '{"weights": [0, 0, 0, 0, 0, 0, 0, 1.79e308, -1.79e308], "bias": 0, "lambda": 1}'
        root = _mini_with_regressors(mini_dir, tmp_path, regressor)
        config = ["--dataset-dir", str(root / "dataset"), "--regressors", str(root / "reg")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--output-dir", str(root / "out"), *config]) == 0
            curve = root / "curve.csv"
            assert main(["knee-curve", "--topic", "alpha", "--out", str(curve), *config]) == 0
        assert caught == [] and capsys.readouterr().err == ""
        manifest = _finite_json((root / "out" / "manifest.json").read_text())
        assert all(math.isfinite(entry["knee"]["difference"]) for entry in manifest["outputs"])
        with curve.open() as handle:
            assert all(math.isfinite(float(row["sc"])) for row in csv.DictReader(handle))

    @pytest.mark.parametrize("command", ["run", "knee-curve"])
    def test_overflowing_scores_rejected(self, mini_dir, tmp_path, capsys, command):
        regressor = json.dumps({"weights": [1e308] * 9, "bias": 0, "lambda": 1})
        root = _mini_with_regressors(mini_dir, tmp_path, regressor)
        argv = [command, "--dataset-dir", str(root / "dataset"), "--regressors", str(root / "reg")]
        if command == "run":
            argv += ["--output-dir", str(root / "out")]
        else:
            argv += ["--topic", "alpha", "--out", str(root / "c.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert caught == []
        err = _one_json_error(capsys)
        assert err["error"] == "NonFiniteScore"
        assert "regressor_alpha.json" in err["message"] and "'alpha'" in err["message"]
        assert not (root / "out" / "manifest.json").exists() and not (root / "c.csv").exists()


def _rename(path: Path, *names: str) -> None:
    """Give the reference timelines in `path` the `names`, in order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    objs = [dict(json.loads(line), name=name) for line, name in zip(lines, names, strict=True)]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")


class TestNameClash:
    """Two names that `_safe_name` maps to one file are rejected before anything is written."""

    @pytest.mark.parametrize("names", [("ref 1", "ref_1"), ("ref1", "ref1")])
    def test_references_of_a_topic(self, mini_dir, tmp_path, capsys, names):
        shutil.copytree(mini_dir, tmp_path / "ds")
        _rename(tmp_path / "ds" / "gamma" / "timelines.jsonl", *names)
        out = tmp_path / "out"
        for argv in (
            ["run", "--dataset-dir", str(tmp_path / "ds"), "--output-dir", str(out)]
            + ["--method", "adprm-e", "--constraint", "base"],
            ["eval", "--pred", str(mini_dir), "--dataset", str(tmp_path / "ds")],
            ["train", str(tmp_path / "ds"), "--out", str(out)],
        ):
            assert main(argv) == 1
            err = _one_json_error(capsys)
            assert err["error"] == "NameClash"
            assert all(repr(name) in err["message"] for name in names)
            assert not out.exists()

    def test_topics(self, mini_dir, tmp_path, capsys):
        shutil.copytree(mini_dir / "beta", tmp_path / "ds" / "a b")
        shutil.copytree(mini_dir / "gamma", tmp_path / "ds" / "a_b")
        out = tmp_path / "out"
        for argv in (
            ["train", str(tmp_path / "ds"), "--out", str(out)],
            ["run", "--dataset-dir", str(tmp_path / "ds"), "--output-dir", str(out), "--method", "adprm-e"],
            ["eval", "--pred", str(mini_dir), "--dataset", str(tmp_path / "ds")],
            ["knee-curve", "--dataset-dir", str(tmp_path / "ds"), "--method", "adprm-e", "--topic", "a b",
             "--out", str(out)],
        ):
            assert main(argv) == 1
            err = _one_json_error(capsys)
            assert err["error"] == "NameClash"
            assert "'a b'" in err["message"] and "'a_b'" in err["message"]
            assert not out.exists()


class TestPoolsBuiltOnce:
    """Each ranked item's pool of candidate sentences is built once, in
    `_score_items`, and handed to `build_timeline` with the item."""

    @pytest.mark.parametrize("method", ["adprm-d", "adprm-e"])
    def test_one_pool_per_ranked_item(self, mini_dir, tmp_path, monkeypatch, method):
        from adaptls import cli, date_ranking, event_ranking, summarizer

        ranked, pools, in_build = [], [], []

        def recording(fn, calls, size=len):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls.append(size(result))
                return result

            return wrapper

        assert main(["train", str(mini_dir), "--out", str(tmp_path / "reg")]) == 0
        monkeypatch.setattr(date_ranking, "score_dates", recording(date_ranking.score_dates, ranked))
        detect = recording(event_ranking.detect_events, ranked, lambda result: len(result[0]))
        monkeypatch.setattr(event_ranking, "detect_events", detect)
        # cli binds its own name first, so the summarizer's module name sees only build_timeline's calls
        monkeypatch.setattr(cli, "candidate_sentences", recording(cli.candidate_sentences, pools))
        pools_in_build = recording(summarizer.candidate_sentences, in_build)
        monkeypatch.setattr(summarizer, "candidate_sentences", pools_in_build)
        argv = ["run", "--dataset-dir", str(mini_dir), "--output-dir", str(tmp_path / "out")]
        assert main(argv + ["--method", method, "--regressors", str(tmp_path / "reg")]) == 0
        assert len(ranked) == 3 and sum(ranked) > 3
        assert in_build == []
        assert len(pools) == sum(ranked)


_CONFIG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 120),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(METHODS + CONSTRAINTS + K_POLICIES + SUMMARIZERS),
    st.lists(st.integers(0, 3), max_size=2),
)
# Values each field accepts.
_VALID_VALUES = {
    "method": st.sampled_from(METHODS),
    "constraint": st.sampled_from(CONSTRAINTS),
    "k_policy": st.sampled_from(K_POLICIES),
    "summarizer": st.sampled_from((None,) + SUMMARIZERS),
    "alpha": st.floats(0, 10),
    "sensitivity": st.floats(0, 5),
    "c_max": st.one_of(st.none(), st.integers(1, 20)),
    "graph_threshold": st.floats(0, 1),
    "mcl_expansion": st.integers(2, 4),
    "mcl_inflation": st.floats(1, 4, exclude_min=True),
    "mcl_max_iter": st.integers(1, 50),
    "mcl_eps": st.floats(0, 1, exclude_min=True),
    "mcl_prune": st.floats(0, 1, exclude_max=True),
    "use_query_filter": st.booleans(),
}


@st.composite
def _configs(draw, regressors_dir: str):
    """A JSON value; mostly an object of valid values, up to two of them arbitrary."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_CONFIG_VALUES)
    valid = dict(_VALID_VALUES, regressors_dir=st.just(regressors_dir))
    config = draw(st.fixed_dictionaries({}, optional=valid))
    for name in draw(st.lists(st.sampled_from(FIELD_NAMES), max_size=2)):
        config[name] = draw(_CONFIG_VALUES)
    return config


ARTICLE = {"id": "a1", "publish_date": "2021-03-01", "title": "Flood", "text": "A flood hit. Crews came."}
REFERENCE = {"name": "ref", "entries": [{"date": "2021-03-01", "summary": ["A flood hit."]}]}
REGRESSOR = {"weights": [1, 0, 0, 0, 0, 0, 0, 0, 0.5], "bias": -1, "lambda": 1}


def _write_topic(root, articles=None, timelines=None, keywords=None):
    """One topic under `root`; each file is a list of JSON lines (raw strings pass through)."""
    topic = root / "t"
    topic.mkdir(parents=True)
    lines = lambda items: "".join(  # noqa: E731
        (item if isinstance(item, str) else json.dumps(item)) + "\n" for item in items
    )
    (topic / "articles.jsonl").write_text(lines(articles or [ARTICLE, dict(ARTICLE, id="a2")]))
    (topic / "timelines.jsonl").write_text(lines(timelines or [REFERENCE]))
    if keywords is not None:
        (topic / "keywords.json").write_text(keywords)
    return root


# Each input file -> (a valid object of it, a key whose string value is unused or free).
_INPUTS = {
    "config": ({"alpha": 0.01}, "regressors_dir"),
    "articles": (dict(ARTICLE, id="a2"), "title"),
    "timelines": (dict(REFERENCE, name="r2"), "name"),
    "keywords": ({"queries": ["flood"]}, "note"),
    "prediction": ({"entries": REFERENCE["entries"]}, "name"),
    "regressor": (REGRESSOR, "note"),
}
# Unreadable contents, built from an input's valid object and free key, and
# the reason the message gives.
_PAYLOADS = {
    "nested": (lambda obj, key: b"[" * 100000, "invalid JSON"),
    "not-utf8": (lambda obj, key: json.dumps(dict(obj, **{key: "AB"})).encode().replace(b"AB", b"A\xffB"), "not UTF-8"),
    "long-int": (lambda obj, key: (json.dumps(obj)[:-1] + ', "n": 1' + "0" * 5000 + "}").encode(), "invalid JSON"),
    "surrogate": (lambda obj, key: json.dumps(dict(obj, **{key: "a\ud800"})).encode(), "lone surrogate"),
}

# Any JSON value; strings may hold lone surrogates, which `json.dumps` escapes.
_TEXT = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)


def _input_case(root, target, payload: bytes):
    """A valid topic, regressor, prediction and config under `root`, `target` replaced.

    `payload` becomes the whole file, or line 2 onwards of a ``.jsonl`` file.
    Returns the argv of a command that reads `target` and the path of `target`.
    """
    ds = _write_topic(root / "ds", articles=[ARTICLE], keywords=json.dumps({"queries": ["flood"]}))
    (root / "reg").mkdir()
    (root / "reg" / "regressor_t.json").write_text(json.dumps(REGRESSOR))
    (root / "pred").mkdir()
    (root / "pred" / "t__ref.json").write_text(json.dumps(REFERENCE))
    paths = {
        "config": root / "config.json",
        "articles": ds / "t" / "articles.jsonl",
        "timelines": ds / "t" / "timelines.jsonl",
        "keywords": ds / "t" / "keywords.json",
        "prediction": root / "pred" / "t__ref.json",
        "regressor": root / "reg" / "regressor_t.json",
    }
    path = paths[target]
    path.write_bytes((path.read_bytes() if path.suffix == ".jsonl" else b"") + payload)
    run = ["run", "--dataset-dir", str(ds), "--output-dir", str(root / "out"), "--method"]
    argv = {
        "config": run + ["adprm-e", "--config", str(path)],
        "keywords": run + ["adprm-e", "--use-query-filter"],
        "prediction": ["eval", "--pred", str(root / "pred"), "--dataset", str(ds)],
        "regressor": run + ["adprm-d", "--regressors", str(root / "reg")],
    }.get(target, run + ["adprm-e"])
    return argv, path


def _run_argv(tmp_path, root, *extra):
    return ["run", "--dataset-dir", str(root), "--output-dir", str(tmp_path / "out"), *extra]


def _one_json_error(capsys) -> dict:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    return json.loads(err)


class TestMalformedInput:
    """Malformed input exits 1 with one JSON line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "bad",
        [
            {"pretokenized": 5},
            {"text": 5},
            {"title": 5},
            {"pretokenized": [[1, 2], ["crews"]]},
            {"pretokenized": ["ab", "cd"]},
            {"pretokenized": [["a flood"], "crews"]},
            {"pretokenized": [["a", None]]},
            {"pretokenized": [{"a": "flood"}]},
            {"pretokenized": {"a": ["flood"]}},
        ],
    )
    def test_article_field_types(self, tmp_path, capsys, bad):
        root = _write_topic(tmp_path / "ds", articles=[ARTICLE, dict(ARTICLE, id="a2", **bad)])
        assert main(["stats", str(root)]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{root / 't' / 'articles.jsonl'}:2: ")

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"id title text"', "null"])
    def test_article_line_not_an_object(self, tmp_path, capsys, line):
        root = _write_topic(tmp_path / "ds", articles=[ARTICLE, line])
        assert main(["stats", str(root)]) == 1
        assert _one_json_error(capsys)["message"] == f"{root / 't' / 'articles.jsonl'}:2: expected a JSON object"

    @pytest.mark.parametrize(
        "timeline",
        [
            dict(REFERENCE, entries=5),
            dict(REFERENCE, entries=[5]),
            dict(REFERENCE, entries=[{"date": "2021-03-01", "summary": "A flood hit."}]),
            dict(REFERENCE, entries=[{"date": "2021-03-01", "summary": [1]}]),
            "[]",
        ],
    )
    def test_timeline_types(self, tmp_path, capsys, timeline):
        root = _write_topic(tmp_path / "ds", timelines=[REFERENCE, timeline])
        assert main(["stats", str(root)]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{root / 't' / 'timelines.jsonl'}:2: ")

    def test_empty_reference_timeline(self, tmp_path, capsys):
        root = _write_topic(tmp_path / "ds", timelines=[REFERENCE, dict(REFERENCE, name="r2", entries=[])])
        assert main(["stats", str(root)]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "EmptyReference"
        assert err["message"].startswith(f"{root / 't' / 'timelines.jsonl'}:2: ")

    @pytest.mark.parametrize(
        "publish_date, text",
        [("0001-01-02", "A flood hit."), ("9999-12-31", "A flood hits tomorrow.")],
    )
    def test_publish_date_at_the_ends_of_the_calendar(self, tmp_path, capsys, publish_date, text):
        # Both used to end in an OverflowError traceback: the first in the
        # mention window, the second in resolving "tomorrow".
        root = _write_topic(tmp_path / "ds", articles=[dict(ARTICLE, publish_date=publish_date, text=text)])
        assert main(["stats", str(root)]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{root / 't' / 'articles.jsonl'}:1: publish_date {publish_date} ")

    @pytest.mark.parametrize("keywords", ["[]", '{"queries": "flood"}', '{"queries": [1]}'])
    def test_keywords_types(self, tmp_path, capsys, keywords):
        root = _write_topic(tmp_path / "ds", keywords=keywords)
        assert main(["stats", str(root)]) == 1
        assert _one_json_error(capsys)["error"] == "ParseError"

    @pytest.mark.parametrize(
        "prediction, error",
        [
            ("{}", "ParseError"),
            ("[]", "ParseError"),
            ("5", "ParseError"),
            ('"entries"', "ParseError"),
            ('{"entries": 5}', "ParseError"),
            ('{"entries": [5]}', "ParseError"),
            ('{"entries": [{"date": "2021-03-01"}]}', "ParseError"),
            ('{"entries": [{"date": 5, "summary": ["A."]}]}', "DateError"),
            ('{"entries": [{"date": "2021-03-01", "summary": []}]}', "ParseError"),
            ("{", "ParseError"),
        ],
    )
    def test_prediction_file(self, tmp_path, capsys, prediction, error):
        root = _write_topic(tmp_path / "ds")
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "t__ref.json").write_text(prediction)
        assert main(["eval", "--pred", str(pred), "--dataset", str(root)]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == error
        assert "t__ref.json" in err["message"]

    def test_eval_reads_only_references(self, tmp_path, capsys):
        root = _write_topic(tmp_path / "ds", articles=[ARTICLE, "5"])
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "t__ref.json").write_text(json.dumps(REFERENCE))
        assert main(["stats", str(root)]) == 1
        assert _one_json_error(capsys)["message"] == f"{root / 't' / 'articles.jsonl'}:2: expected a JSON object"
        assert main(["eval", "--pred", str(pred), "--dataset", str(root)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "timelines, error",
        [
            ([REFERENCE, "{"], "ParseError"),
            ([REFERENCE, dict(REFERENCE, entries=5)], "ParseError"),
            ([REFERENCE, dict(REFERENCE, name="r2", entries=[])], "EmptyReference"),
            (None, "NotFound"),
        ],
    )
    def test_eval_checks_references(self, tmp_path, capsys, timelines, error):
        root = _write_topic(tmp_path / "ds", timelines=timelines)
        if timelines is None:
            (root / "t" / "timelines.jsonl").unlink()
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "t__ref.json").write_text(json.dumps(REFERENCE))
        assert main(["eval", "--pred", str(pred), "--dataset", str(root)]) == 1
        assert _one_json_error(capsys)["error"] == error

    @pytest.mark.parametrize(
        "regressor",
        [
            "{",
            "[]",
            "5",
            "{}",
            json.dumps({"weights": [0.0] * 9, "bias": 0.0}),
            json.dumps({"bias": 0.0, "lambda": 1.0}),
            json.dumps({"weights": [0.0, 1.0], "bias": 0.0, "lambda": 1.0}),
            json.dumps({"weights": [0.0] * 10, "bias": 0.0, "lambda": 1.0}),
            json.dumps({"weights": 5, "bias": 0.0, "lambda": 1.0}),
            json.dumps({"weights": [0.0] * 8 + ["1"], "bias": 0.0, "lambda": 1.0}),
            json.dumps({"weights": [0.0] * 8 + [True], "bias": 0.0, "lambda": 1.0}),
            json.dumps({"weights": [0.0] * 8 + [[1.0]], "bias": 0.0, "lambda": 1.0}),
            json.dumps({"weights": [0.0] * 9, "bias": "0", "lambda": 1.0}),
            json.dumps({"weights": [0.0] * 9, "bias": 0.0, "lambda": None}),
            '{"weights": [0, 0, 0, 0, 0, 0, 0, 0, NaN], "bias": 0, "lambda": 1}',
            '{"weights": [0, 0, 0, 0, 0, 0, 0, 0, 0], "bias": Infinity, "lambda": 1}',
            '{"weights": [0, 0, 0, 0, 0, 0, 0, 0, 0], "bias": 0, "lambda": -Infinity}',
            '{"weights": [0, 0, 0, 0, 0, 0, 0, 0, 1e999], "bias": 0, "lambda": 1}',
            '{"weights": [0, 0, 0, 0, 0, 0, 0, 0, 1%s], "bias": 0, "lambda": 1}' % ("0" * 400),
        ],
        ids=[
            "invalid-json", "array", "number", "empty-object", "no-lambda", "no-weights",
            "2-weights", "10-weights", "weights-number", "string-weight", "bool-weight",
            "list-weight", "string-bias", "null-lambda", "nan-weight", "inf-bias",
            "minus-inf-lambda", "float-overflow", "int-overflow",
        ],
    )
    def test_regressor_file(self, tmp_path, capsys, regressor):
        root = _write_topic(tmp_path / "ds")
        regressors = tmp_path / "reg"
        regressors.mkdir()
        (regressors / "regressor_t.json").write_text(regressor)
        assert main(_run_argv(tmp_path, root, "--method", "adprm-d", "--regressors", str(regressors))) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert "regressor_t.json" in err["message"]

    def test_valid_regressor_file_passes(self, tmp_path, capsys):
        root = _write_topic(tmp_path / "ds")
        regressors = tmp_path / "reg"
        regressors.mkdir()
        (regressors / "regressor_t.json").write_text(json.dumps(REGRESSOR))
        assert main(_run_argv(tmp_path, root, "--method", "adprm-d", "--regressors", str(regressors))) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--c-max", "0"], None),
            (["--c-max", "-2"], None),
            (["--jobs", "0"], None),
            (["--jobs", "-1"], None),
            ([], {"c_max": "5"}),
            ([], {"c_max": 2.5}),
            ([], {"c_max": True}),
            ([], {"jobs": None}),
            ([], {"jobs": "2"}),
        ],
    )
    def test_count_options_range_checked(self, tmp_path, capsys, flags, config):
        root = _write_topic(tmp_path / "ds")
        argv = _run_argv(tmp_path, root, "--method", "adprm-e", *flags)
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ValueError"
        assert "must be an integer >= 1" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, config, error",
        [
            ([], "[]", "ParseError"),
            ([], '{"alpha": "x"}', "ValueError"),
            ([], None, "NotFound"),
            ([], b'{"alpha": "\xff"}', "ParseError"),
            ([], '{"use_query_filter": "no"}', "ValueError"),
            ([], '{"alpha": 1e999}', "ValueError"),
            ([], '{"l2_lambda": 1}', "ValueError"),
            (["--alpha", "nan"], "", "ValueError"),
            (["--alpha", "-1"], "", "ValueError"),
            (["--sensitivity", "-5"], "", "ValueError"),
            (["--graph-threshold", "2"], "", "ValueError"),
            (["--mcl-max-iter", "0"], "", "ValueError"),
            (["--mcl-inflation", "nan"], "", "ValueError"),
            (["--mcl-eps", "-1"], "", "ValueError"),
            (["--mcl-prune", "2"], "", "ValueError"),
            # the only checks of MCL's expansion and inflation and of the summarizer's name
            (["--mcl-expansion", "1"], "", "ValueError"),
            (["--mcl-inflation", "1"], "", "ValueError"),
            ([], '{"summarizer": "best"}', "ValueError"),
        ],
        ids=[
            "config-array", "config-string-alpha", "config-missing", "config-not-utf8",
            "config-string-flag", "config-inf-alpha", "config-l2-lambda", "nan-alpha",
            "negative-alpha", "negative-sensitivity", "threshold-2", "max-iter-0",
            "nan-inflation", "negative-eps", "prune-2", "expansion-1", "inflation-1",
            "config-unknown-summarizer",
        ],
    )
    def test_run_options_checked(self, tmp_path, capsys, flags, config, error):
        root = _write_topic(tmp_path / "ds")
        argv = _run_argv(tmp_path, root, "--method", "adprm-e", *flags)
        if config != "":
            path = tmp_path / "config.json"
            if config is not None:
                path.write_bytes(config if isinstance(config, bytes) else config.encode())
            argv += ["--config", str(path)]
        assert main(argv) == 1
        assert _one_json_error(capsys)["error"] == error
        assert not (tmp_path / "out").exists()

    def test_train_lambda_checked(self, planted_dir, tmp_path, capsys):
        assert main(["train", str(planted_dir), "--out", str(tmp_path / "out"), "--lambda", "-1"]) == 1
        assert "lambda must be a finite number >= 0" in _one_json_error(capsys)["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--alpha", "x"], "adaptls run: argument --alpha: invalid float value: 'x'"),
            (["run", "--c-max", "1.5"], "adaptls run: argument --c-max: invalid int value: '1.5'"),
            (["run", "--method", "bogus"], "adaptls run: argument --method: invalid choice: 'bogus'"),
            (["run", "--bogus"], "adaptls: unrecognized arguments: --bogus"),
            (["eval", "--dataset", "ds"], "adaptls eval: the following arguments are required: --pred"),
            (["bogus"], "adaptls: argument command: invalid choice: 'bogus'"),
            ([], "adaptls: the following arguments are required: command"),
        ],
        ids=["alpha-x", "c-max-1.5", "method-bogus", "unknown-flag", "eval-no-pred", "command-bogus", "no-command"],
    )
    def test_usage_errors(self, capsys, argv, message):
        assert main(argv) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(message)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: adaptls run")

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_config_file_exits_cleanly(self, tmp_path, capsys, data):
        """Any JSON config runs (exit 0) or is refused with one JSON line (exit 1)."""
        root = tmp_path / "ds"
        regressors = tmp_path / "reg"
        if not root.exists():
            _write_topic(root)
            regressors.mkdir()
            (regressors / "regressor_t.json").write_text(json.dumps(REGRESSOR))
        config = data.draw(_configs(str(regressors)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        # --jobs 1 on the command line: no generated `jobs` starts a pool.
        code = main(_run_argv(tmp_path, root, "--config", str(path), "--jobs", "1"))
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert code == 1
            assert len(err.splitlines()) == 1
            assert set(json.loads(err)) == {"error", "message"}

    @pytest.mark.parametrize(
        "target, payload",
        [(target, payload) for payload in _PAYLOADS for target in _INPUTS],
        ids=[
            target if payload == "nested" else f"{target}-{payload}"
            for payload in _PAYLOADS
            for target in _INPUTS
        ],
    )
    def test_deeply_nested_json(self, tmp_path, capsys, target, payload):
        """Each input refuses each payload with one ParseError naming it, before any output."""
        build, reason = _PAYLOADS[payload]
        argv, path = _input_case(tmp_path, target, build(*_INPUTS[target]))
        assert main(argv) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ParseError"
        name = f"{path}:2: " if path.suffix == ".jsonl" else f"{path}: "
        assert err["message"].startswith(name + reason)
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(target=st.sampled_from(sorted(_INPUTS)), data=st.data())
    def test_any_input_file_exits_cleanly(self, tmp_path, capsys, target, data):
        """Any bytes or JSON value in any input: exit 0, or exit 1 with one JSON line and no output."""
        obj, key = _INPUTS[target]
        edited = st.builds(
            lambda name, value: dict(obj, **{name: value}), st.sampled_from(sorted(obj) + [key]), _JSON_VALUES
        )
        payload = data.draw(
            st.one_of(st.binary(), st.one_of(_JSON_VALUES, edited).map(json.dumps).map(str.encode))
        )
        case = tmp_path / "case"
        shutil.rmtree(case, ignore_errors=True)
        argv, _ = _input_case(case, target, payload)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert code == 1
            assert len(err.splitlines()) == 1
            assert set(json.loads(err)) == {"error", "message"}
            assert not (case / "out").exists() or not any((case / "out").iterdir())

    @pytest.mark.parametrize("command", ["train", "run", "eval", "knee-curve"])
    def test_output_path_under_a_file(self, planted_dir, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        eval_argv, _ = _input_case(tmp_path, "prediction", json.dumps(REFERENCE).encode())
        run_flags = ["--dataset-dir", str(tmp_path / "ds"), "--method", "adprm-e"]
        argv = {
            "train": ["train", str(planted_dir), "--out", str(blocker)],
            "run": ["run", *run_flags, "--output-dir", str(blocker)],
            "eval": [*eval_argv, "--out", str(blocker / "report")],
            "knee-curve": ["knee-curve", *run_flags, "--topic", "t", "--out", str(blocker / "x.csv")],
        }[command]
        assert main(argv) == 1
        err = _one_json_error(capsys)
        assert err["error"] in ("FileExistsError", "NotADirectoryError")
        assert str(blocker) in err["message"]

    def test_stats_on_topic_without_sentences(self, tmp_path, capsys):
        root = _write_topic(tmp_path / "ds", articles=[dict(ARTICLE, text="")])
        assert main(["stats", str(root)]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "EmptyCorpus"
        assert "'t'" in err["message"]

    def test_valid_topic_and_prediction_pass(self, tmp_path, capsys):
        root = _write_topic(tmp_path / "ds", keywords='{"queries": ["flood"]}')
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "t__ref.json").write_text(json.dumps({"entries": REFERENCE["entries"]}))
        assert main(["stats", str(root)]) == 0
        assert main(["eval", "--pred", str(pred), "--dataset", str(root)]) == 0
        assert capsys.readouterr().err == ""
