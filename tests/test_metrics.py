"""EM/F1 scoring against an independent brute-force reference."""

import csv
import io
import re
from collections import Counter

import pytest

from tsqa.metrics import (
    Metrics,
    exact_match,
    f1,
    normalize_answer,
    report,
    score_predictions,
)


def ref_normalize(text):
    """Reference normalizer written independently of the implementation."""
    out = []
    for ch in text.casefold():
        if ch not in "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~":
            out.append(ch)
    words = "".join(out).split()
    return " ".join(w for w in words if w not in ("a", "an", "the"))


def ref_em(pred, golds):
    return 1.0 if any(ref_normalize(pred) == ref_normalize(g) for g in golds) else 0.0


def ref_f1(pred, golds):
    best = 0.0
    for gold in golds:
        p = ref_normalize(pred).split()
        g = ref_normalize(gold).split()
        if not p and not g:
            best = max(best, 1.0)
            continue
        if not p or not g:
            continue
        overlap = 0
        remaining = list(g)
        for tok in p:
            if tok in remaining:
                remaining.remove(tok)
                overlap += 1
        if overlap == 0:
            continue
        prec, rec = overlap / len(p), overlap / len(g)
        best = max(best, 2 * prec * rec / (prec + rec))
    return best


# 50 handcrafted (prediction, golds) pairs spanning punctuation, case,
# articles, partial overlap, duplicates, and empty answers.
SUITE = [
    ("Gainsborough Trinity F.C.", ["Gainsborough Trinity F.C."]),
    ("Gainsborough Trinity F.C.", ["Leeds United F.C."]),
    ("Leeds United F.C.", ["Leeds United F.C."]),
    ("Leeds United", ["Leeds United F.C."]),
    ("leeds united f.c.", ["Leeds United F.C."]),
    ("Leeds United FC", ["Leeds United F.C."]),
    ("the Leeds United F.C.", ["Leeds United F.C."]),
    ("Gainsborough Trinity", ["Gainsborough Trinity F.C.", "Leeds United F.C."]),
    ("", [""]),
    ("", ["Leeds United F.C."]),
    ("Leeds United F.C.", [""]),
    ("", ["", "Leeds United F.C."]),
    ("an empty answer", [""]),
    ("A", ["a"]),
    ("the", [""]),
    ("United Leeds", ["Leeds United"]),
    ("Leeds Leeds United", ["Leeds United"]),
    ("Leeds United United", ["Leeds United United"]),
    ("St Hugh's College", ["St Hugh's College"]),
    ("St Hughs College", ["St Hugh's College"]),
    ("University of Bath", ["University of Bath"]),
    ("university of bath!", ["University of Bath"]),
    ("Bath", ["University of Bath"]),
    ("of", ["University of Bath"]),
    ("Girton College", ["Girton College, Cambridge"]),
    ("Girton College Cambridge", ["Girton College, Cambridge"]),
    ("Mill A", ["Mill A", "Mill B"]),
    ("Mill C", ["Mill A", "Mill B"]),
    ("mill a", ["Mill A"]),
    ("Mill-A", ["Mill A"]),
    ("M.I.L.L. A", ["MILL A"]),
    ("  spaced   out  ", ["spaced out"]),
    ("punctuation!!!", ["punctuation"]),
    ("1987", ["1987"]),
    ("1987", ["1988"]),
    ("July 1996", ["Jul 1996"]),
    ("the quick brown fox", ["quick brown fox"]),
    ("quick fox", ["the quick brown fox"]),
    ("brown quick fox", ["quick brown fox jumps"]),
    ("wholly different", ["nothing shared"]),
    ("overlap one token", ["token"]),
    ("token", ["overlap one token"]),
    ("a an the", ["the an a"]),
    ("x", ["x", "y", "z"]),
    ("z", ["x", "y", "z"]),
    ("w", ["x", "y", "z"]),
    ("Neil Warnock", ["Neil Warnock"]),
    ("Warnock, Neil", ["Neil Warnock"]),
    ("O'Neil", ["ONeil"]),
    ("F.C. United of Manchester", ["FC United of Manchester"]),
]


def test_suite_is_fifty_pairs():
    assert len(SUITE) == 50


def test_exact_match_against_reference():
    for pred, golds in SUITE:
        assert exact_match(pred, golds) == ref_em(pred, golds), (pred, golds)


def test_f1_against_reference():
    for pred, golds in SUITE:
        assert f1(pred, golds) == pytest.approx(ref_f1(pred, golds)), (pred, golds)


def test_normalize_answer_examples():
    assert normalize_answer("The Leeds United F.C.") == "leeds united fc"
    assert normalize_answer("  A  an THE  ") == ""
    assert normalize_answer("St Hugh's College") == "st hughs college"


def test_em_f1_bounds_random():
    import numpy as np

    rng = np.random.default_rng(4)
    words = ["mill", "bank", "united", "city", "rovers", "fc", "the", "a"]
    for _ in range(300):
        pred = " ".join(rng.choice(words, size=int(rng.integers(0, 5))))
        golds = [" ".join(rng.choice(words, size=int(rng.integers(0, 5))))]
        e, f = exact_match(pred, golds), f1(pred, golds)
        assert e in (0.0, 1.0)
        assert 0.0 <= f <= 1.0
        assert f >= e  # EM implies full token overlap
        assert e == ref_em(pred, golds)
        assert f == pytest.approx(ref_f1(pred, golds))


class _Rec:
    def __init__(self, golds, qtype):
        self.gold_answers = golds
        self.question_type = qtype


class _QType:
    def __init__(self, value):
        self.value = value


def test_score_predictions_grouping():
    records = [
        _Rec(["a b"], _QType("L2")),
        _Rec(["c"], _QType("L2")),
        _Rec([""], _QType("EASY")),
    ]
    metrics = score_predictions(["a b", "wrong", ""], records)
    assert metrics.n == 3
    assert metrics.by_type["L2"].n == 2
    assert metrics.by_type["L2"].em == pytest.approx(0.5)
    assert metrics.by_type["EASY"].em == pytest.approx(1.0)
    assert metrics.em == pytest.approx(2 / 3)


def test_report_formats_and_csv_round_trip():
    records = [_Rec(["x"], _QType("L2")), _Rec(["y"], _QType("HARD"))]
    metrics = score_predictions(["x", "n"], records)
    md = report(metrics, fmt="markdown")
    assert "| L2 |" in md and "| overall |" in md
    as_json = report(metrics, fmt="json")
    assert '"em"' in as_json
    header, *lines = report(metrics, fmt="csv").splitlines()
    assert header == "type,n,em,f1"
    parsed = {qtype: rest for qtype, *rest in (ln.split(",") for ln in lines)}
    assert int(parsed["overall"][0]) == metrics.n
    assert float(parsed["overall"][1]) == pytest.approx(metrics.em)
    assert parsed.keys() - {"overall"} == metrics.by_type.keys()
    with pytest.raises(ValueError):
        report(metrics, fmt="xml")
