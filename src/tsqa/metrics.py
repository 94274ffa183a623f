"""Answer normalization, EM/F1 scoring, and policy evaluation reports."""

from __future__ import annotations

import io
import json
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

_ARTICLES = {"a", "an", "the"}
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Casefold, drop punctuation, drop English articles, collapse spaces."""
    lowered = text.casefold()
    no_punct = lowered.translate(_PUNCT_TABLE)
    words = [w for w in no_punct.split() if w not in _ARTICLES]
    return " ".join(words)


def exact_match(prediction: str, golds: Sequence[str]) -> float:
    """1.0 iff the normalized prediction equals any normalized gold."""
    norm_pred = normalize_answer(prediction)
    return float(any(norm_pred == normalize_answer(g) for g in golds))


def _f1_single(prediction: str, gold: str) -> float:
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = Counter(pred_tokens) & Counter(gold_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1(prediction: str, golds: Sequence[str]) -> float:
    """Token-multiset F1, maximized over the gold list."""
    return max((_f1_single(prediction, g) for g in golds), default=0.0)


@dataclass
class Metrics:
    em: float
    f1: float
    n: int
    by_type: dict[str, "Metrics"] = field(default_factory=dict)


def _aggregate(rows: list[tuple[str, float, float]]) -> Metrics:
    groups: dict[str, list[tuple[float, float]]] = {}
    for qtype, em_i, f1_i in rows:
        groups.setdefault(qtype, []).append((em_i, f1_i))
    by_type = {
        qtype: Metrics(
            em=sum(e for e, _ in vals) / len(vals),
            f1=sum(f for _, f in vals) / len(vals),
            n=len(vals),
        )
        for qtype, vals in sorted(groups.items())
    }
    n = len(rows)
    overall_em = sum(e for _, e, _ in rows) / n if n else 0.0
    overall_f1 = sum(f for _, _, f in rows) / n if n else 0.0
    return Metrics(em=overall_em, f1=overall_f1, n=n, by_type=by_type)


def score_predictions(
    predictions: Sequence[str], records: Sequence
) -> Metrics:
    """EM/F1 for paired (prediction, record) lists, grouped by question type.

    Records are anything with `gold_answers` and `question_type`: raw or
    compiled.
    """
    rows = []
    for pred, rec in zip(predictions, records):
        golds = list(rec.gold_answers)
        rows.append((rec.question_type.value, exact_match(pred, golds), f1(pred, golds)))
    return _aggregate(rows)


def evaluate_compiled(compiled: Sequence, params, config) -> Metrics:
    """Greedy-decode the policy over compiled records and score it."""
    from .policy import greedy_predictions

    return score_predictions(greedy_predictions(compiled, params, config), compiled)


def evaluate(dataset: Sequence, params, index, config, vocab) -> Metrics:
    """Compile a raw dataset and score it with `evaluate_compiled`; kept as a
    name the benchmark's tracer lists."""
    from .policy import compile_dataset

    return evaluate_compiled(compile_dataset(dataset, index, vocab, config), params, config)


# ---------------------------------------------------------------------------
# Reports.


def report(metrics: Metrics, fmt: str = "markdown") -> str:
    if fmt in ("markdown", "md"):
        lines = ["| split | n | EM | F1 |", "| --- | --- | --- | --- |"]
        for qtype, m in metrics.by_type.items():
            lines.append(f"| {qtype} | {m.n} | {m.em:.4f} | {m.f1:.4f} |")
        lines.append(f"| overall | {metrics.n} | {metrics.em:.4f} | {metrics.f1:.4f} |")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("type,n,em,f1\n")
        for qtype, m in metrics.by_type.items():
            buf.write(f"{qtype},{m.n},{m.em!r},{m.f1!r}\n")
        buf.write(f"overall,{metrics.n},{metrics.em!r},{metrics.f1!r}\n")
        return buf.getvalue()
    if fmt == "json":
        payload = {
            "em": metrics.em,
            "f1": metrics.f1,
            "n": metrics.n,
            "by_type": {
                k: {"em": m.em, "f1": m.f1, "n": m.n} for k, m in metrics.by_type.items()
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
