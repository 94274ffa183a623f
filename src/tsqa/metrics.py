"""Answer normalization, EM/F1 scoring, evaluation reports, and the CSV and
markdown table writers that every report, training history and ablation
grid prints through."""

from __future__ import annotations

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
    """Greedy-decode the policy over compiled records and score it: each
    chosen candidate's EM and F1, which a record keeps for later calls."""
    from .policy import greedy_choices

    choices = greedy_choices(compiled, params, config)
    return _aggregate(
        [(comp.question_type.value, *comp.candidate_score(int(i))) for comp, i in zip(compiled, choices)]
    )


def evaluate(dataset: Sequence, params, index, config, vocab) -> Metrics:
    """Compile a raw dataset and score it with `evaluate_compiled`; kept as a
    name the benchmark's tracer lists."""
    from .policy import compile_dataset

    return evaluate_compiled(compile_dataset(dataset, index, vocab, config), params, config)


# ---------------------------------------------------------------------------
# Reports and tables.


def csv_table(rows: Sequence[dict]) -> str:
    """One CSV line per row, columns in the order of the first row's keys;
    floats as `repr`, every other cell as `str`; no rows, no text."""
    if not rows:
        return ""
    columns = list(rows[0])
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def markdown_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A `| a | b |` header, its `| --- |` rule and one line per row of cells."""
    lines = [header, ["---"] * len(header), *rows]
    return "".join("| " + " | ".join(map(str, cells)) + " |\n" for cells in lines)


def report(metrics: Metrics, fmt: str = "markdown") -> str:
    rows = [*metrics.by_type.items(), ("overall", metrics)]
    if fmt == "markdown":
        return markdown_table(["split", "n", "EM", "F1"], [[k, m.n, f"{m.em:.4f}", f"{m.f1:.4f}"] for k, m in rows])
    if fmt == "csv":
        return csv_table([{"type": k, "n": m.n, "em": m.em, "f1": m.f1} for k, m in rows])
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
