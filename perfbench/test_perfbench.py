"""Tests of the benchmark itself: its correctness gates, the traced run and
the output contract.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import tsqa.metrics  # noqa: E402
import tsqa.policy  # noqa: E402
import tsqa.trainer  # noqa: E402

TINY = dataclasses.replace(
    workloads.WORKLOADS["distractor"],
    name="tiny",
    corpus=dict(n_entities=30, n_relations=2, facts_per_pair=3, distractor_sentences_per_context=2),
    n_train=24,
    n_dev=8,
    n_test=8,
    n_eval=12,
    sft_epochs=2,
    ppo_iterations=1,
    ppo_rollouts=8,
    min_test_em=0.0,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """Run the benchmark's main() on the tiny workload; return its exit code."""
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)

    def call(*extra: str) -> int:
        return run.main(["--workload", "tiny", "--seconds", "0", *extra])

    return call


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric(bench, capsys):
    assert bench("--seed", "3") == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and value["value"] > 0


def test_traced_run_prints_every_layer_metric_and_repeats_test_em(bench, capsys, tmp_path):
    assert bench("--seed", "3", "--trace", "1") == 0
    result = _last_json(capsys)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    # train, dev and test against the shared index, then the `tsqa eval` file
    assert layer["policy.compile_records"] == TINY.n_train + TINY.n_dev + TINY.n_test + TINY.n_eval
    assert layer["trainer.adamw_steps"] > 0 and layer["reward.embed_calls"] > 0
    assert 0 < layer["reward.embed_distinct_ratio"] <= 1
    assert layer["trainer.dist_used_ratio"] == 0  # exact-match reward reads no distance
    assert layer["policy.gold_hit_ratio"] == 1
    # Both runs of seed 3 share one fingerprint, so an untraced run after
    # the traced one must reproduce its test EM exactly.
    assert bench("--seed", "3") == 0
    assert _last_json(capsys)["correct"] is True
    spans = (tmp_path / "out" / "traces" / "tiny-seed3.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["absent"] == []
    names = {json.loads(line)["name"] for line in spans[1:]}
    assert {"tagger.tokenize", "stage.sft", "cli.main", "facts.FactIndex.__init__"} <= names


def test_raising_operation_fails_the_run(bench, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(tsqa.trainer, "train_ppo_compiled", broken)
    assert bench() == 1
    result = _last_json(capsys)
    assert result["correct"] is False and result["failed"] > 0


def test_non_finite_loss_fails_the_run(bench, capsys, monkeypatch):
    original = tsqa.trainer.train_sft_compiled

    def nan_loss(*args, **kwargs):
        params, history = original(*args, **kwargs)
        history[-1]["loss"] = math.nan
        return params, history

    monkeypatch.setattr(tsqa.trainer, "train_sft_compiled", nan_loss)
    assert bench() == 1
    result = _last_json(capsys)
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_test_em_below_the_floor_fails_the_run(bench, capsys, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", dataclasses.replace(TINY, min_test_em=1.01))
    assert bench() == 1
    assert _last_json(capsys)["correct"] is False


def test_test_em_that_changes_between_runs_of_one_seed_fails(bench, capsys, monkeypatch):
    assert bench("--seed", "5") == 0
    capsys.readouterr()
    original = tsqa.metrics.evaluate_compiled

    def shifted(*args, **kwargs):
        scored = original(*args, **kwargs)
        scored.em = scored.em / 2 + 0.5 if scored.em < 1 else 0.5
        return scored

    monkeypatch.setattr(tsqa.metrics, "evaluate_compiled", shifted)
    assert bench("--seed", "5") == 1
    assert _last_json(capsys)["correct"] is False


def test_clock_times_stages_apart_from_the_reference_at_their_ends(monkeypatch):
    paces = iter([2.0, 4.0, 3.0])

    def slow_reference(*args):
        time.sleep(0.1)  # not stage time
        return next(paces)

    monkeypatch.setattr(refclock, "reference_s", slow_reference)
    clock = refclock.Clock(sample=False)
    with clock.stage("a"):
        time.sleep(0.07)  # longer than a reference stays fresh
    with clock.stage("b"):  # opens with the reference that closed "a"
        time.sleep(0.07)
    a, b = clock.stages
    assert 0.07 <= a.seconds < 0.15 and 0.07 <= b.seconds < 0.15
    assert (a.pace, b.pace) == (3.0, 3.5)
    assert a.ref_s == a.seconds / 3.0
    assert clock.overhead_s >= 3 * 0.1


def test_clock_samples_the_reference_inside_a_stage(monkeypatch):
    taken = []

    def reference(*args):
        spin = time.perf_counter() + 0.01  # busy, so that it is not stage time
        while time.perf_counter() < spin:
            pass
        taken.append(float(len(taken) + 1))
        return taken[-1]

    monkeypatch.setattr(refclock, "reference_s", reference)
    clock = refclock.Clock()
    start = time.perf_counter()
    with clock.stage("long"):
        spin = time.perf_counter() + 5.5 * refclock.SAMPLE_EVERY_S
        while time.perf_counter() < spin:
            pass
    elapsed = time.perf_counter() - start
    (stage,) = clock.stages
    assert len(taken) >= 5  # both ends and the timer samples in between
    assert stage.pace == pytest.approx(sum(taken) / len(taken))
    assert stage.seconds == pytest.approx(elapsed - clock.overhead_s, abs=0.005)


def test_tracer_reports_a_removed_name_as_absent(monkeypatch):
    monkeypatch.delattr(tsqa.policy, "backward")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "policy.backward" in tracer.absent
        # One wrapper at every module attribute that held the original.
        assert tsqa.policy.tokenize is tsqa.trainer.tokenize is tsqa.tagger.tokenize
        assert hasattr(tsqa.policy.tokenize, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(tsqa.policy.tokenize, "__wrapped__")
    assert set(tracer.layer_metrics()) >= {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bigstore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
