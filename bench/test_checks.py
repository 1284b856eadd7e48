"""Each output check fails on a deliberately wrong output.

    python3 -m pytest -q bench/test_checks.py
"""

import json

import pytest

import checks

REFERENCE = [
    ("2021-03-01", ["Rescue crews reached the flooded valley."]),
    ("2021-03-05", ["The dam was repaired by engineers."]),
]
GOOD = [
    ("2021-03-01", ["Crews reached the valley on 2021-03-01."]),
    ("2021-03-06", ["Engineers repaired the dam."]),
]
ALLOWED = {
    "Crews reached the valley on 2021-03-01.": {"2021-02-28", "2021-03-01"},
    "Engineers repaired the dam.": {"2021-03-06"},
    "Officials met the press.": {"2021-03-06"},
}


def _prf(f1):
    return {"precision": f1, "recall": f1, "f1": f1}


def _write_run(tmp_path, entries, l=2, k=1, date_f1=None, ar1=None):
    """A run + eval output directory for one topic `t` and reference `ref`."""
    date_f1 = checks.date_f1([d for d, _ in entries], [d for d, _ in REFERENCE]) if date_f1 is None else date_f1
    ar1 = checks.align_rouge1_f(entries, REFERENCE) if ar1 is None else ar1
    out = tmp_path / "out"
    out.mkdir()
    timeline = {"name": "generated", "entries": [{"date": d, "summary": s} for d, s in entries]}
    (out / "t__ref.json").write_text(json.dumps(timeline))
    manifest = {"outputs": [{"file": "t__ref.json", "topic": "t", "reference": "ref", "l": l, "k": k}]}
    (out / "manifest.json").write_text(json.dumps(manifest))
    report = {
        "pairs": [{"topic": "t", "reference": "ref", "date_f1": _prf(date_f1), "ar1": _prf(ar1), "ar2": _prf(0.0)}],
        "macro": {"DATE-F1": date_f1, "AR1-F": ar1, "AR2-F": 0.0},
    }
    (out / "report.json").write_text(json.dumps(report))
    return out


def _problems(out, date_ranked=True):
    result = checks.check_run(out, {("t", "ref"): REFERENCE}, {"t": ALLOWED}, date_ranked)
    return result["problems"][("t", "ref")]


def test_correct_output_passes(tmp_path):
    assert _problems(_write_run(tmp_path, GOOD)) == []


def test_metrics_match_hand_computation():
    # One of two dates matches: P = R = 1/2.
    assert checks.date_f1(["2021-03-01", "2021-03-06"], ["2021-03-01", "2021-03-05"]) == 0.5
    # "Engineers repaired the dam." vs "The dam was repaired by engineers.":
    # 4 shared unigrams, P = 4/4, R = 4/6, F = 0.8; one day apart gives gamma 1/2.
    assert checks.rouge1_f(checks.tokens(GOOD[1][1][0]), checks.tokens(REFERENCE[1][1][0])) == pytest.approx(0.8)
    single = checks.align_rouge1_f([GOOD[1]], REFERENCE)
    assert single == pytest.approx(2 * 0.4 * 0.2 / 0.6)


@pytest.mark.parametrize(
    "entries, l, k, expected",
    [
        (list(reversed(GOOD)), 2, 1, "sorted"),
        ([GOOD[0], (GOOD[0][0], ["Engineers repaired the dam."])], 2, 1, "sorted"),
        ([GOOD[0], ("2021-03-06", [])], 2, 1, "empty summary"),
        ([GOOD[0], ("2021-03-06", ["Engineers repaired the dam.", "Officials met the press."])], 2, 1, "> k"),
        (GOOD, 3, 1, "manifest l"),
        ([GOOD[0], ("2021-03-06", ["Invented sentence."])], 2, 1, "not in topic"),
        ([GOOD[0], ("2021-03-07", ["Engineers repaired the dam."])], 2, 1, "neither published"),
    ],
)
def test_wrong_timeline_fails(tmp_path, entries, l, k, expected):
    problems = _problems(_write_run(tmp_path, entries, l=l, k=k))
    assert any(expected in p for p in problems), problems


def test_empty_timeline_fails(tmp_path):
    problems = _problems(_write_run(tmp_path, [], l=0, date_f1=0.0, ar1=0.0))
    assert any("no entries" in p for p in problems), problems


def test_malformed_manifest_entry_fails(tmp_path):
    out = _write_run(tmp_path, GOOD)
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["outputs"][0]["l"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert any("unreadable" in p for p in _problems(out))


def test_wrong_date_passes_when_not_date_ranked(tmp_path):
    entries = [GOOD[0], ("2021-03-07", ["Engineers repaired the dam."])]
    assert _problems(_write_run(tmp_path, entries), date_ranked=False) == []


@pytest.mark.parametrize("field", ["date_f1", "ar1"])
def test_wrong_reported_score_fails(tmp_path, field):
    good = {"date_f1": checks.date_f1(["2021-03-01", "2021-03-06"], ["2021-03-01", "2021-03-05"]),
            "ar1": checks.align_rouge1_f(GOOD, REFERENCE)}
    good[field] += 0.01
    problems = _problems(_write_run(tmp_path, GOOD, **good))
    assert any("recomputed" in p for p in problems), problems


def test_missing_output_fails(tmp_path):
    out = _write_run(tmp_path, GOOD)
    (out / "t__ref.json").unlink()
    assert any("unreadable timeline" in p for p in _problems(out))


def test_differing_repetition_is_found(tmp_path):
    first = _write_run(tmp_path, GOOD)
    before = checks.snapshot(first)
    (first / "t__ref.json").write_text((first / "t__ref.json").read_text() + " ")
    assert checks.differing(before, checks.snapshot(first)) == {"out/t__ref.json"}
    assert checks.differing(before, before) == set()
