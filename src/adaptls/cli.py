"""Experiment runner: train, run, eval, stats and knee-curve subcommands.

Every command is deterministic: the same config on the same dataset writes
byte-identical outputs.  A run also writes a manifest echoing the full
config plus the chosen constraints, so any output file can be reproduced
from the manifest alone.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import re
import sys
from pathlib import Path

from .config import (
    ADAPTIVE_METHODS,
    CONSTRAINTS,
    DATE_METHODS,
    DEFAULT_LAMBDA,
    FIELD_NAMES,
    K_POLICIES,
    METHODS,
    SUMMARIZERS,
    RunConfig,
    check_number,
    read_config,
)
from .corpus import (
    Timeline,
    Topic,
    filter_by_queries,
    load_dataset,
    load_references,
    load_topic,
    read_json,
    timeline_from_obj,
)
from .errors import (
    AdaptlsError, InsufficientTopics, MissingPrediction, NameClash, NonFiniteScore, UnknownTopic
)

# Names bound on first use, each to (module, attribute or None for the module
# itself).  They load the date patterns, numpy (`event_ranking`, `summarizer`
# and `tfidf`) or multiprocessing, none of which `eval` needs, or the
# evaluation metrics, which `train` and `run` do not need.  Each stays an
# attribute of this module that a caller may replace (bench/tracing.py
# does), and `_bind` never overwrites one.
_LAZY = {
    "adaptive_selection": (".adaptive_selection", None),
    "date_ranking": (".date_ranking", None),
    "event_ranking": (".event_ranking", None),
    "build_timeline": (".summarizer", "build_timeline"),
    "candidate_sentences": (".summarizer", "candidate_sentences"),
    "expert_k": (".summarizer", "expert_k"),
    "build_vectorizer": (".tfidf", "build_vectorizer"),
    "annotate_topic": (".temporal", "annotate_topic"),
    "evaluation": (".evaluation", None),
    "ProcessPoolExecutor": ("concurrent.futures.process", "ProcessPoolExecutor"),
}
_PIPELINE = tuple(name for name in _LAZY if name not in ("evaluation", "ProcessPoolExecutor"))


def __getattr__(name: str):
    """Import a lazy name on first access and keep it as a global (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module_name, attribute = _LAZY[name]
    value = importlib.import_module(module_name, __package__)
    if attribute is not None:
        value = getattr(value, attribute)
    globals()[name] = value
    return value


def _bind(names) -> None:
    """Bind each of the lazy `names` not bound yet; a bound value is kept."""
    for name in names:
        if name not in globals():
            __getattr__(name)


def _load_config(args) -> RunConfig:
    """The --config file (or the defaults) overridden by the given flags, checked."""
    config = read_config(args.config) if args.config else RunConfig()
    flags = {name: value for name, value in vars(args).items() if name in FIELD_NAMES and value is not None}
    config = config._replace(**flags)
    config.validate()
    return config


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def _regressor_name(topic_name: str) -> str:
    return f"regressor_{_safe_name(topic_name)}.json"


def _prediction_name(topic_name: str, ref_name: str) -> str:
    return f"{_safe_name(topic_name)}__{_safe_name(ref_name)}.json"


def _checked_references(root) -> list[tuple[str, list[Timeline]]]:
    """(topic name, reference timelines) of every topic under `root`.

    Rejects a dataset where two topics would share a regressor file or two
    references a prediction file.  A topic's directory is `root / name`.
    """
    references = load_references(root)
    owners: dict[str, str] = {}
    for topic, timelines in references:
        for file_name, owner in [(_regressor_name(topic), f"topic {topic!r}")] + [
            (_prediction_name(topic, t.name), f"reference {t.name!r} of topic {topic!r}")
            for t in timelines
        ]:
            if file_name in owners:
                raise NameClash(f"{owners[file_name]} and {owner} share the file name {file_name}")
            owners[file_name] = owner
    return references


def _prepare(topic_dir: Path, config: RunConfig) -> Topic:
    """The topic in `topic_dir`, annotated and, if configured, filtered by its queries."""
    topic = annotate_topic(load_topic(topic_dir))
    if config.use_query_filter:
        topic = filter_by_queries(topic)
    return topic


def _score_dates(config: RunConfig, topic: Topic):
    """(date, None, score) items of the topic's trained regressor, best first."""
    if not config.regressors_dir:
        raise AdaptlsError(
            f"method {config.method!r} needs --regressors (run `adaptls train` first)"
        )
    path = Path(config.regressors_dir) / _regressor_name(topic.name)
    if not path.is_file():
        raise MissingPrediction(f"no trained regressor for topic {topic.name!r}: {path}")
    scored = date_ranking.score_dates(date_ranking.Regressor.load(path), topic)
    if not all(math.isfinite(score) for _, score in scored):
        raise NonFiniteScore(f"{path}: gives a date of topic {topic.name!r} a non-finite score")
    return [(cand.date, None, score) for cand, score in scored]


def _score_items(topic: Topic, config: RunConfig, vec):
    """Ranked (date, rows, score) items for the configured method.

    `rows` is the item's pool of candidate sentences in `vec`, the topic's
    representation, built once here.  An item is kept only if its pool is
    not empty, so the knee, l and the entries written count the same items.
    Event methods build their article graph from `vec`.
    """
    if config.method in DATE_METHODS:
        items = _score_dates(config, topic)
    else:
        scored, _ = event_ranking.detect_events(topic, config, vec)
        items = [(cluster.event_date, cluster, score) for cluster, score in scored]
    pools = ((day, candidate_sentences(vec, day, cluster), score) for day, cluster, score in items)
    return [item for item in pools if item[1]]


def _select_top(items, limit: int):
    """The (date, rows) of the best `limit` items with distinct dates (event clusters can tie)."""
    selected = {}
    for day, rows, _ in items:
        if len(selected) == limit:
            break
        selected.setdefault(day, rows)
    return list(selected.items())


def _run_topic(topic_dir: Path, config: RunConfig):
    """(manifest entry, timeline) per reference timeline of the topic in `topic_dir`.

    The adaptive constraint asks for the knee's length l, with k = 1 or the
    expert k of all the topic's references; the base constraint asks for
    each reference's length and expert k.  Each distinct (l, k) is built
    once.  A topic with fewer summarizable dates than l gets a shorter
    timeline, so each output's `l` is the number of entries written.
    """
    _bind(_PIPELINE)  # also in a worker of a spawn or forkserver pool
    topic = _prepare(topic_dir, config)
    vec = build_vectorizer(topic)
    items = _score_items(topic, config, vec)
    summarizer = config.effective_summarizer()
    adaptive = config.constraint == "adaptive"
    if adaptive:
        l, _, point = adaptive_selection.choose_length([score for *_, score in items], config)
        knee = point._asdict()
        k = expert_k(topic.reference_timelines) if config.k_policy == "expert" else 1

    outputs = []
    timelines = {}
    for reference in topic.reference_timelines:
        if not adaptive:
            l, k, knee = reference.length, expert_k([reference]), None
        if (l, k) not in timelines:
            timelines[l, k] = build_timeline(topic, _select_top(items, l), k, summarizer, vec)
        timeline = timelines[l, k]
        entry = {
            "file": _prediction_name(topic.name, reference.name),
            "topic": topic.name,
            "reference": reference.name,
            "l": timeline.length,
            "k": k,
            "knee": knee,
        }
        outputs.append((entry, timeline))
    return outputs


def cmd_train(args) -> int:
    check_number("lambda", args.l2_lambda)
    root = Path(args.dataset)
    names = [name for name, _ in _checked_references(root)]
    if len(names) < 2:
        raise InsufficientTopics(
            "leave-one-topic-out training needs at least 2 topics"
        )
    _bind(["annotate_topic", "date_ranking"])
    blocks = {}
    for name in names:
        topic = annotate_topic(load_topic(root / name))
        if topic.reference_timelines:
            blocks[name] = date_ranking.moments(*date_ranking.training_rows(topic))
        del topic  # freed before the next topic loads
    regressors = {
        held_out: date_ranking.train_regressor(
            [block for name, block in blocks.items() if name != held_out], args.l2_lambda
        )
        for held_out in names
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, regressor in regressors.items():
        regressor.save(out_dir / _regressor_name(name))
    print(f"wrote {len(regressors)} regressors to {out_dir}")
    return 0


def cmd_run(args) -> int:
    config = _load_config(args)
    if not config.dataset_dir or not config.output_dir:
        raise ValueError("run needs --dataset-dir and --output-dir")
    root = Path(config.dataset_dir)
    topic_dirs = [root / name for name, _ in _checked_references(root)]

    # Each topic is loaded on its turn, in this process or in a worker.  A
    # fork pool starts all its workers at the first task: never more than topics.
    workers = min(config.jobs, len(topic_dirs))
    if workers > 1:
        _bind(_PIPELINE + ("ProcessPoolExecutor",))  # before the fork: workers inherit them
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_topic = list(
                pool.map(_run_topic, topic_dirs, [config] * len(topic_dirs))
            )
    else:
        per_topic = [_run_topic(topic_dir, config) for topic_dir in topic_dirs]

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once every topic has run
    manifest = {"config": config._asdict(), "outputs": []}
    for outputs in per_topic:
        for entry, timeline in outputs:
            (out_dir / entry["file"]).write_text(
                json.dumps(timeline.to_json_obj(), ensure_ascii=False, indent=2) + "\n",
                encoding="utf-8",
            )
            manifest["outputs"].append(entry)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(manifest['outputs'])} timelines to {out_dir}")
    return 0


def _load_prediction(pred_dir: Path, topic_name: str, ref_name: str) -> Timeline:
    path = pred_dir / _prediction_name(topic_name, ref_name)
    if not path.is_file():
        raise MissingPrediction(f"missing prediction file {path}")
    return timeline_from_obj(read_json(path), str(path), default_name="generated")


def cmd_eval(args) -> int:
    pred_dir = Path(args.pred)
    _bind(["evaluation"])
    dataset = _checked_references(args.dataset)
    report = evaluation.EvalReport()
    for topic_name, references in dataset:
        for reference in references:
            pred = _load_prediction(pred_dir, topic_name, reference.name)
            report.pairs.append(
                evaluation.evaluate_pair(pred, reference, topic_name)
            )
    out_prefix = Path(args.out) if args.out else pred_dir / "report"
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    out_prefix.with_name(out_prefix.name + ".json").write_text(
        json.dumps(report.to_json_obj(), indent=2) + "\n", encoding="utf-8"
    )
    table = report.to_text_table(label=args.label)
    out_prefix.with_name(out_prefix.name + ".txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return 0


def cmd_stats(args) -> int:
    dataset = load_dataset(args.dataset)
    _bind(["annotate_topic", "evaluation"])
    for topic in dataset:
        annotate_topic(topic)
    stats = evaluation.dataset_stats(dataset)
    print(json.dumps(stats, indent=2) if args.json else evaluation.stats_table(stats))
    return 0


def cmd_knee_curve(args) -> int:
    config = _load_config(args)
    if config.constraint != "adaptive":
        raise ValueError(f"knee-curve needs the adaptive constraint; there is no knee under {config.constraint!r}")
    if not config.dataset_dir:
        raise ValueError("knee-curve needs --dataset-dir")
    if args.topic not in {name for name, _ in _checked_references(config.dataset_dir)}:
        raise UnknownTopic(f"topic {args.topic!r} not in dataset")
    _bind(_PIPELINE + ("evaluation",))
    topic = _prepare(Path(config.dataset_dir) / args.topic, config)
    items = _score_items(topic, config, build_vectorizer(topic))

    l, curve, knee = adaptive_selection.choose_length([score for *_, score in items], config)
    references = topic.reference_timelines
    header = ["c", "sc", "is_knee"] + [
        f"date_f1__{_safe_name(ref.name)}" for ref in references
    ]
    rows = []
    top = _select_top(items, len(curve))
    for c, sc in curve:
        pred = Timeline("top-c", [(day, ["-"]) for day, _ in top[:c]])
        row = [c, f"{sc:.6f}", int(c == l)]
        for ref in references:
            row.append(f"{evaluation.date_f1(pred, ref).f1:.6f}")
        rows.append(row)

    import csv  # only this command writes CSV

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"knee at c={l} (fallback={knee.fallback_used}); wrote {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValueError, which `main` reports as one JSON line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _add_pipeline_flags(parser: argparse.ArgumentParser, methods) -> None:
    """The 14 flags that `run` and `knee-curve` both read."""
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--dataset-dir")
    parser.add_argument("--method", choices=methods)
    parser.add_argument("--regressors", dest="regressors_dir")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--sensitivity", type=float)
    parser.add_argument("--c-max", type=int)
    parser.add_argument("--graph-threshold", type=float)
    parser.add_argument("--mcl-expansion", type=int)
    parser.add_argument("--mcl-inflation", type=float)
    parser.add_argument("--mcl-max-iter", type=int)
    parser.add_argument("--mcl-eps", type=float)
    parser.add_argument("--mcl-prune", type=float)
    parser.add_argument("--use-query-filter", action="store_const", const=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adaptls",
        description="Timeline summarization with automatic length selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train leave-one-topic-out date regressors")
    p_train.add_argument("dataset")
    p_train.add_argument("--out", required=True)
    p_train.add_argument(
        "--lambda", type=float, default=DEFAULT_LAMBDA, dest="l2_lambda"
    )
    p_train.set_defaults(func=cmd_train)

    p_run = sub.add_parser("run", help="generate timelines")
    _add_pipeline_flags(p_run, METHODS)
    p_run.add_argument("--output-dir")
    p_run.add_argument("--constraint", choices=CONSTRAINTS)
    p_run.add_argument("--k-policy", choices=K_POLICIES)
    p_run.add_argument("--summarizer", choices=SUMMARIZERS)
    p_run.add_argument("--jobs", type=int)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate generated timelines")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--out", metavar="PREFIX", help="write PREFIX.json and PREFIX.txt (default PRED/report)")
    p_eval.add_argument("--label", default="run")
    p_eval.set_defaults(func=cmd_eval)

    p_stats = sub.add_parser("stats", help="dataset statistics")
    p_stats.add_argument("dataset")
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=cmd_stats)

    p_knee = sub.add_parser(
        "knee-curve", help="dump the selection-confidence curve for one topic"
    )
    _add_pipeline_flags(p_knee, ADAPTIVE_METHODS)
    p_knee.add_argument("--topic", required=True)
    p_knee.add_argument("--out", required=True)
    p_knee.set_defaults(func=cmd_knee_curve)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (AdaptlsError, ValueError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
