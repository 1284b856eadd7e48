import csv
import json
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


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
        ],
    )
    def test_article_field_types(self, tmp_path, capsys, bad):
        root = _write_topic(tmp_path / "ds", articles=[ARTICLE, dict(ARTICLE, id="a2", **bad)])
        assert main(["stats", str(root)]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert err["message"].startswith("articles.jsonl:2: ")

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"id title text"', "null"])
    def test_article_line_not_an_object(self, tmp_path, capsys, line):
        root = _write_topic(tmp_path / "ds", articles=[ARTICLE, line])
        assert main(["stats", str(root)]) == 1
        assert _one_json_error(capsys)["message"] == "articles.jsonl:2: expected a JSON object"

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
        assert err["message"].startswith("timelines.jsonl:2: ")

    def test_empty_reference_timeline(self, tmp_path, capsys):
        root = _write_topic(tmp_path / "ds", timelines=[REFERENCE, dict(REFERENCE, name="r2", entries=[])])
        assert main(["stats", str(root)]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "EmptyReference"
        assert err["message"].startswith("timelines.jsonl:2: ")

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
        assert _one_json_error(capsys)["message"] == "articles.jsonl:2: expected a JSON object"
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
        (regressors / "regressor_t.json").write_text(
            json.dumps({"weights": [1, 0, 0, 0, 0, 0, 0, 0, 0.5], "bias": -1, "lambda": 1})
        )
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
        ],
        ids=[
            "config-array", "config-string-alpha", "config-missing", "config-not-utf8",
            "config-string-flag", "config-inf-alpha", "config-l2-lambda", "nan-alpha",
            "negative-alpha", "negative-sensitivity", "threshold-2", "max-iter-0",
            "nan-inflation", "negative-eps", "prune-2",
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
            (regressors / "regressor_t.json").write_text(
                json.dumps({"weights": [1, 0, 0, 0, 0, 0, 0, 0, 0.5], "bias": -1, "lambda": 1})
            )
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

    @pytest.mark.parametrize("reader", ["config", "articles", "keywords", "prediction", "regressor"])
    def test_deeply_nested_json(self, tmp_path, capsys, reader):
        nested = "[" * 100000
        root = _write_topic(
            tmp_path / "ds",
            articles=[ARTICLE, nested] if reader == "articles" else None,
            keywords=nested if reader == "keywords" else None,
        )
        regressors = tmp_path / "reg"
        regressors.mkdir()
        (regressors / "regressor_t.json").write_text(nested)
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "t__ref.json").write_text(nested)
        (tmp_path / "config.json").write_text(nested)
        argv, name = {
            "config": (_run_argv(tmp_path, root, "--config", str(tmp_path / "config.json")), "config.json"),
            "articles": (["stats", str(root)], "articles.jsonl:2"),
            "keywords": (["stats", str(root)], "keywords.json"),
            "prediction": (["eval", "--pred", str(pred), "--dataset", str(root)], "t__ref.json"),
            "regressor": (
                _run_argv(tmp_path, root, "--method", "adprm-d", "--regressors", str(regressors)),
                "regressor_t.json",
            ),
        }[reader]
        assert main(argv) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert name in err["message"]

    def test_valid_topic_and_prediction_pass(self, tmp_path, capsys):
        root = _write_topic(tmp_path / "ds", keywords='{"queries": ["flood"]}')
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "t__ref.json").write_text(json.dumps({"entries": REFERENCE["entries"]}))
        assert main(["stats", str(root)]) == 0
        assert main(["eval", "--pred", str(pred), "--dataset", str(root)]) == 0
        assert capsys.readouterr().err == ""
