"""Output checks that use no module of the program under test.

Each check returns a list of problems (empty when the output is right).  The
metrics are the benchmark's own implementation of exact-match Date F1 and
align-based ROUGE-1 F (Martschat & Markert 2017, "Improving ROUGE for
Timeline Summarization"): every generated date aligns to the reference date
maximizing ROUGE-1 F times gamma = 1 / (1 + day gap), ties to the nearest,
then earlier, reference date; precision averages the aligned scores over
generated dates and recall credits each reference date with the best score
aligned to it.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from datetime import date as Date
from pathlib import Path

TOLERANCE = 1e-9


def tokens(text: str) -> list[str]:
    return re.findall(r"[^\W_]+", text.lower())


def _f1(precision: float, recall: float) -> float:
    total = precision + recall
    return 2.0 * precision * recall / total if total else 0.0


def date_f1(pred_dates, ref_dates) -> float:
    pred, ref = set(pred_dates), set(ref_dates)
    overlap = len(pred & ref)
    return _f1(overlap / len(pred) if pred else 0.0, overlap / len(ref))


def rouge1_f(pred: list[str], ref: list[str]) -> float:
    if not pred or not ref:
        return 0.0
    overlap = sum((Counter(pred) & Counter(ref)).values())
    return _f1(overlap / len(pred), overlap / len(ref))


def align_rouge1_f(pred_entries, ref_entries) -> float:
    """Align-based ROUGE-1 F between two lists of (date, [sentences])."""
    pred = [(Date.fromisoformat(d), tokens(" ".join(s))) for d, s in pred_entries]
    ref = [(Date.fromisoformat(d), tokens(" ".join(s))) for d, s in ref_entries]
    best_per_ref: dict[Date, float] = {}
    total = 0.0
    for p_day, p_tokens in pred:
        best = None
        for r_day, r_tokens in ref:
            gap = abs((p_day - r_day).days)
            value = rouge1_f(p_tokens, r_tokens) * (1.0 / (1 + gap))
            key = (-value, gap, r_day)
            if best is None or key < best[0]:
                best = (key, r_day, value)
        _, r_day, value = best
        total += value
        best_per_ref[r_day] = max(best_per_ref.get(r_day, 0.0), value)
    return _f1(total / len(pred), sum(best_per_ref.values()) / len(ref))


def check_timeline(entries, l: int, k: int) -> list[str]:
    """Sorted distinct dates, 1..k sentences per entry, exactly l entries."""
    problems = []
    if not entries:
        problems.append("no entries")
    dates = [day for day, _ in entries]
    if dates != sorted(set(dates)):
        problems.append("dates are not sorted and distinct")
    for day, summary in entries:
        if not summary or not all(isinstance(s, str) and s for s in summary):
            problems.append(f"{day}: empty summary")
        elif len(summary) > k:
            problems.append(f"{day}: {len(summary)} sentences > k={k}")
    if len(entries) != l:
        problems.append(f"{len(entries)} entries != manifest l={l}")
    return problems


def sentence_dates(topic_truth) -> dict[str, set[str]]:
    """Sentence text -> dates it may summarize (publish date and mentions)."""
    allowed: dict[str, set[str]] = {}
    for article in topic_truth["articles"]:
        for sentence in article["sentences"]:
            dates = allowed.setdefault(sentence["text"], set())
            dates.add(article["publish_date"])
            dates.update(sentence["mentions"])
    return allowed


def check_provenance(entries, allowed: dict[str, set[str]], date_ranked: bool) -> list[str]:
    """Each sentence is verbatim from the topic; on date-ranked runs it belongs to its date."""
    problems = []
    for day, summary in entries:
        for sentence in summary:
            if sentence not in allowed:
                problems.append(f"{day}: sentence not in topic: {sentence[:60]!r}")
            elif date_ranked and day not in allowed[sentence]:
                problems.append(f"{day}: sentence neither published on nor mentions the date")
    return problems


def check_scores(entries, ref_entries, reported_f1: float, reported_ar1: float):
    """Recompute Date F1 and AR-1 F of a non-empty timeline; compare with report.json."""
    f1 = date_f1([d for d, _ in entries], [d for d, _ in ref_entries])
    ar1 = align_rouge1_f(entries, ref_entries)
    problems = []
    if abs(f1 - reported_f1) > TOLERANCE:
        problems.append(f"date F1 {reported_f1} != recomputed {f1}")
    if abs(ar1 - reported_ar1) > TOLERANCE:
        problems.append(f"AR-1 F {reported_ar1} != recomputed {ar1}")
    return problems, f1, ar1


def _entries(obj) -> list[tuple[str, list[str]]]:
    return [(entry["date"], entry["summary"]) for entry in obj["entries"]]


def read_references(dataset_dir) -> dict[tuple[str, str], list]:
    references = {}
    for topic_dir in sorted(Path(dataset_dir).iterdir()):
        with (topic_dir / "timelines.jsonl").open(encoding="utf-8") as handle:
            for line in handle:
                obj = json.loads(line)
                references[(topic_dir.name, obj["name"])] = _entries(obj)
    return references


def check_run(out_dir, references, allowed_by_topic, date_ranked: bool) -> dict:
    """Check every timeline of one `run` + `eval` output directory.

    Returns {"problems": {(topic, reference): [...]}, "date_f1": macro,
    "ar1_f": macro}, with one entry per reference timeline of the dataset.
    The macro scores are those of report.json once they agree with ours.
    """
    out_dir = Path(out_dir)
    problems = {key: [] for key in references}
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        outputs = {(o["topic"], o["reference"]): o for o in manifest["outputs"]}
        pairs = {(p["topic"], p["reference"]): p for p in report["pairs"]}
        macro = {name: float(report["macro"][name]) for name in ("DATE-F1", "AR1-F")}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        for key in problems:
            problems[key].append(f"unreadable manifest or report: {exc!r}")
        return {"problems": problems, "date_f1": None, "ar1_f": None}
    ours = []
    for key, ref_entries in references.items():
        output, pair = outputs.get(key), pairs.get(key)
        if output is None or pair is None:
            problems[key].append("missing from manifest or report")
            continue
        try:
            entries = _entries(json.loads((out_dir / output["file"]).read_text(encoding="utf-8")))
            l, k = int(output["l"]), int(output["k"])
            reported = float(pair["date_f1"]["f1"]), float(pair["ar1"]["f1"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems[key].append(f"unreadable timeline, manifest entry or report pair: {exc!r}")
            continue
        problems[key] += check_timeline(entries, l, k)
        problems[key] += check_provenance(entries, allowed_by_topic[key[0]], date_ranked)
        if not entries:  # already a problem; AR-1 precision is undefined
            continue
        score_problems, f1, ar1 = check_scores(entries, ref_entries, *reported)
        problems[key] += score_problems
        ours.append((f1, ar1))
    if len(ours) == len(references):
        for name, index in (("DATE-F1", 0), ("AR1-F", 1)):
            mine = sum(o[index] for o in ours) / len(ours)
            if abs(mine - macro[name]) > TOLERANCE:
                for key in problems:
                    problems[key].append(f"macro {name} {macro[name]} != recomputed {mine}")
    return {"problems": problems, "date_f1": macro["DATE-F1"], "ar1_f": macro["AR1-F"]}


def snapshot(*dirs) -> dict[str, bytes]:
    """Every output file's bytes, keyed by its path relative to its directory."""
    files = {}
    for directory in dirs:
        directory = Path(directory)
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                files[f"{directory.name}/{path.relative_to(directory)}"] = path.read_bytes()
    return files


def differing(first: dict[str, bytes], again: dict[str, bytes]) -> set[str]:
    """Files whose bytes differ between two repetitions (missing counts as differing)."""
    return {name for name in first.keys() | again.keys() if first.get(name) != again.get(name)}
