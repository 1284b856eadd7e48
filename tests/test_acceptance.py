"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each test evaluates its criterion into a boolean first, prints the verdict
outside of pytest's capture so the line is always visible, and only then
asserts.  Criterion 10 needs a full news dataset supplied by the user and is
skipped unless ADAPTLS_ENTITIES_DIR points at it.
"""

import json
import math
import os
import random
import time
from collections import Counter
from datetime import date, timedelta

import pytest

from adaptls.adaptive_selection import (
    choose_length,
    detect_knee,
    normalize_scores,
    sc_curve,
)
from adaptls.cli import main
from adaptls.config import RunConfig
from adaptls.corpus import Timeline
from adaptls.evaluation import (
    PRF,
    dataset_stats,
    date_f1,
    evaluate_pair,
)
from adaptls.event_ranking import SimilarityGraph, markov_cluster

import numpy as np

import align_oracle
from align_oracle import align_rouge_f1
from synthdata import planted_topics, save_topic


def _verdict(capsys, number, label, passed):
    with capsys.disabled():
        print(f"[acceptance] criterion {number:>2} ({label}): "
              f"{'PASS' if passed else 'FAIL'}")


def test_01_sc_monotonicity(capsys):
    rng = random.Random(101)
    start = time.perf_counter()
    passed = True
    for _ in range(1000):
        n = rng.randint(3, 200)
        scores = sorted(
            normalize_scores([rng.random() for _ in range(n)]), reverse=True
        )
        curve = sc_curve(scores, n, 0.01)
        values = [sc for _, sc in curve]
        if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
            passed = False
            break
    elapsed = time.perf_counter() - start
    passed = passed and elapsed < 1.0
    _verdict(capsys, 1, "SC monotonicity", passed)
    assert passed, f"monotonicity violated or too slow ({elapsed:.2f}s)"


def test_02_sc_point_values(capsys):
    got_a = sc_curve([1.0, 0.5], 2, 0.01)[-1][1]  # mean 0.75 + alpha
    got_b = sc_curve([1.0, 0.5, 0.3], 3, 0.01)[-1][1]  # mean 0.6 + alpha
    passed = (
        abs(got_a - (-math.log(0.76))) <= 1e-12
        and abs(got_b - (-math.log(0.61))) <= 1e-12
    )
    _verdict(capsys, 2, "SC point values", passed)
    assert passed, (got_a, got_b)


def _brute_difference(points):
    xs = [float(c) for c, _ in points]
    ys = [y for _, y in points]
    x_hat = [(x - xs[0]) / (xs[-1] - xs[0]) for x in xs]
    lo, hi = min(ys), max(ys)
    if hi == lo:
        return [-x for x in x_hat]
    y_hat = [(y - lo) / (hi - lo) for y in ys]
    return [a - b for a, b in zip(y_hat, x_hat)]


def test_03_kneedle_oracle(capsys):
    curve = [(c, 1.0 - 1.0 / c) for c in range(1, 11)]
    knee = detect_knee(curve, 1.0)
    diffs = _brute_difference(curve)
    expected_c = max(range(len(diffs)), key=lambda i: diffs[i]) + 1
    line = [(c, 0.2 * c) for c in range(1, 11)]
    passed = (
        knee is not None
        and knee.c_star == 3
        and knee.c_star == expected_c
        and abs(knee.difference - diffs[knee.c_star - 1]) <= 1e-12
        and detect_knee(line, 1.0) is None
    )
    _verdict(capsys, 3, "Kneedle oracle", passed)
    assert passed, knee


def test_04_kneedle_robustness(capsys):
    rng = random.Random(4242)
    hits = 0
    for _ in range(100):
        n = 30
        bend = rng.randint(5, 24)
        steep = rng.uniform(0.5, 1.0)
        shallow = rng.uniform(0.0, 0.05)
        level = 0.0
        ys = []
        for i in range(n):
            level += steep if i < bend else shallow
            ys.append(level + rng.gauss(0.0, 0.01))
        curve = [(i + 1, y) for i, y in enumerate(ys)]
        knee = detect_knee(curve, 1.0)
        if knee is not None and abs(knee.c_star - (bend + 1)) <= 1:
            hits += 1
    passed = hits >= 95
    _verdict(capsys, 4, f"Kneedle robustness ({hits}/100)", passed)
    assert passed, hits


def test_05_metric_oracles(capsys):
    rng = random.Random(55)
    base = date(2021, 1, 1)
    passed = True

    for _ in range(1000):
        pred_days = {rng.randint(0, 40) for _ in range(rng.randint(1, 12))}
        ref_days = {rng.randint(0, 40) for _ in range(rng.randint(1, 12))}
        pred = Timeline("p", [(base + timedelta(days=d), ["x."]) for d in sorted(pred_days)])
        ref = Timeline("r", [(base + timedelta(days=d), ["x."]) for d in sorted(ref_days)])
        got = date_f1(pred, ref)
        overlap = len(pred_days & ref_days)
        p = overlap / len(pred_days)
        r = overlap / len(ref_days)
        f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        if got.precision != p or got.recall != r or abs(got.f1 - f) > 1e-12:
            passed = False
            break

    if passed:
        # ROUGE-n: AR-n of two one-entry timelines on one date, where gamma
        # is 1, is the entries' ROUGE-n F1; the oracle's rouge_n, which
        # scores the alignment oracle's pairs, gives precision and recall.
        vocab = "abcdefg"
        for _ in range(500):
            n = rng.choice((1, 2))
            a = [rng.choice(vocab) for _ in range(rng.randint(0, 15))]
            b = [rng.choice(vocab) for _ in range(rng.randint(0, 15))]
            pair = evaluate_pair(Timeline("p", [(base, [" ".join(a)])]), Timeline("r", [(base, [" ".join(b)])]), "t")
            got = pair.ar1 if n == 1 else pair.ar2
            oracle = align_oracle.rouge_n(a, b, n)
            ga = Counter(tuple(a[i : i + n]) for i in range(len(a) - n + 1))
            gb = Counter(tuple(b[i : i + n]) for i in range(len(b) - n + 1))
            if not ga or not gb:
                expect = PRF(0.0, 0.0, 0.0)
                if got != expect or oracle != expect:
                    passed = False
                    break
                continue
            overlap = sum(min(c, gb[g]) for g, c in ga.items())
            p, r = overlap / sum(ga.values()), overlap / sum(gb.values())
            f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            if oracle.precision != p or oracle.recall != r or abs(got.f1 - f) > 1e-12:
                passed = False
                break

    if passed:
        words = "storm flood vote talks port rail quake rescue".split()
        for _ in range(100):
            days = sorted({rng.randint(0, 60) for _ in range(rng.randint(1, 6))})
            entries = [
                (
                    base + timedelta(days=d),
                    [" ".join(rng.choice(words) for _ in range(5)) + "."],
                )
                for d in days
            ]
            tl = Timeline("t", entries)
            shift = timedelta(days=rng.randint(-400, 400))
            shifted = Timeline("t", [(d + shift, s) for d, s in entries])
            same = evaluate_pair(tl, tl, "t")
            moved = evaluate_pair(shifted, shifted, "t")
            for n, got, got_moved in ((1, same.ar1, moved.ar1), (2, same.ar2, moved.ar2)):
                if abs(got.f1 - 1.0) > 1e-12 or got != got_moved:
                    passed = False
                if got != align_rouge_f1(tl, tl, n):
                    passed = False
            if not passed:
                break

    _verdict(capsys, 5, "metric oracles", passed)
    assert passed


def test_06_mcl_invariants(capsys):
    from test_event_ranking import reference_mcl  # column sums checked inside

    def block(n, w):
        m = np.full((n, n), w)
        np.fill_diagonal(m, 1.0)
        return m

    two_k4 = np.zeros((8, 8))
    two_k4[:4, :4] = block(4, 0.8)
    two_k4[4:, 4:] = block(4, 0.8)
    got_k4 = markov_cluster(SimilarityGraph(8, two_k4), RunConfig())

    barbell = two_k4.copy()
    barbell[3, 4] = barbell[4, 3] = 0.05
    got_barbell = markov_cluster(SimilarityGraph(8, barbell), RunConfig())
    oracle_barbell = reference_mcl(barbell)

    passed = (
        got_k4.clusters == [frozenset(range(4)), frozenset(range(4, 8))]
        and got_barbell.clusters == oracle_barbell
    )
    _verdict(capsys, 6, "MCL invariants", passed)
    assert passed, (got_k4.clusters, got_barbell.clusters)


def test_07_ridge_oracle(capsys):
    from adaptls.date_ranking import moments, train_regressor

    rng = np.random.default_rng(77)
    passed = True
    for _ in range(100):
        X = rng.normal(size=(20, 9))
        y = rng.normal(size=20)
        lam = float(rng.uniform(0.01, 10.0))
        regressor = train_regressor([moments(X, y)], lam)
        weights, bias = regressor.weights, regressor.bias
        A = np.hstack([X, np.ones((20, 1))])
        penalty = np.eye(10) * lam
        penalty[9, 9] = 0.0
        expected = np.linalg.inv(A.T @ A + penalty) @ (A.T @ y)
        if (
            np.abs(weights - expected[:9]).max() > 1e-8
            or abs(bias - expected[9]) > 1e-8
        ):
            passed = False
            break
    _verdict(capsys, 7, "ridge closed-form oracle", passed)
    assert passed


def test_08_end_to_end_synthetic_recovery(capsys, tmp_path):
    start = time.perf_counter()
    dataset_dir = tmp_path / "dataset"
    for topic in planted_topics():
        save_topic(topic, dataset_dir / topic.name)
    regressors = tmp_path / "regressors"
    out = tmp_path / "out"
    assert main(["train", str(dataset_dir), "--out", str(regressors)]) == 0
    assert (
        main(
            [
                "run",
                "--dataset-dir",
                str(dataset_dir),
                "--output-dir",
                str(out),
                "--method",
                "adprm-d",
                "--regressors",
                str(regressors),
            ]
        )
        == 0
    )
    manifest = json.loads((out / "manifest.json").read_text())
    passed = len(manifest["outputs"]) == 3
    topics = {t.name: t for t in planted_topics()}
    for entry in manifest["outputs"]:
        if not (3 <= entry["l"] <= 7):
            passed = False
        obj = json.loads((out / entry["file"]).read_text())
        pred = Timeline(
            obj["name"],
            [(date.fromisoformat(e["date"]), e["summary"]) for e in obj["entries"]],
        )
        ref = topics[entry["topic"]].reference_timelines[0]
        if date_f1(pred, ref).f1 < 0.8:
            passed = False
    elapsed = time.perf_counter() - start
    passed = passed and elapsed < 10.0
    _verdict(capsys, 8, f"synthetic recovery ({elapsed:.1f}s)", passed)
    assert passed, manifest["outputs"]


def test_09_stats_on_mini_dataset(capsys, mini_dataset):
    got = dataset_stats(mini_dataset)
    expected = {
        "Topics": 3,
        "TLs": 4,
        "AvgSentNum": 4.75,
        "AvgDocsNum": 2.25,
        "AvgL": 1.75,
        "AvgK": 1.125,
        "AvgDuration": 4.75,
        "AvgDurComp": 6 / 11,
        "AvgSentComp": 0.4125,
        "AvgDateComp": 17 / 24,
        "AvgDateCov": 1.0,
    }
    passed = all(got[key] == pytest.approx(value) for key, value in expected.items())
    _verdict(capsys, 9, "dataset stats", passed)
    assert passed, got


def test_10_entities_knee(capsys, tmp_path):
    dataset_dir = os.environ.get("ADAPTLS_ENTITIES_DIR")
    if not dataset_dir:
        with capsys.disabled():
            print(
                "[acceptance] criterion 10 (Berlusconi knee): SKIP "
                "(set ADAPTLS_ENTITIES_DIR to the Entities dataset to enable)"
            )
        pytest.skip("Entities dataset not available")
    regressors = tmp_path / "regressors"
    assert main(["train", dataset_dir, "--out", str(regressors)]) == 0
    curve_path = tmp_path / "curve.csv"
    assert (
        main(
            [
                "knee-curve",
                "--dataset-dir",
                dataset_dir,
                "--method",
                "adprm-d",
                "--regressors",
                str(regressors),
                "--topic",
                "berlusconi",
                "--out",
                str(curve_path),
            ]
        )
        == 0
    )
    import csv

    with curve_path.open() as handle:
        rows = list(csv.DictReader(handle))
    knee_c = next(int(r["c"]) for r in rows if r["is_knee"] == "1")
    passed = abs(knee_c - 33) <= 2
    _verdict(capsys, 10, f"Berlusconi knee (l={knee_c})", passed)
    assert passed, knee_c
