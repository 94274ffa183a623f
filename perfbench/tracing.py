"""Outside-in tracing of the tsqa package for the benchmark's traced run.

`Tracer.install()` replaces every public module-level function of the
traced layers, plus a few named methods, by a timing wrapper.  The wrapper
is bound at every ``tsqa`` module attribute that held the original, because
callers look functions up through their own module (``tokenize`` is bound
in ``tsqa.tagger``, ``tsqa.policy``, ``tsqa.facts`` and ``tsqa.trainer``).

Each call becomes a span (id, name, start, end, parent id, run id).  Counts,
inclusive time and self time (duration minus the time covered by child
spans) are aggregated for every call; the span list itself keeps the first
`SPANS_PER_NAME` spans of each name per run so that a million ``tokenize``
calls do not hold a million records in memory.

Observers derive waste ratios and training statistics from the arguments
and return values that the public functions already take and give.  Names
that a refactor removed are reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("corpus", "tagger", "facts", "features", "policy", "reward", "trainer", "metrics", "cli")

# Methods that matter to a per-layer metric but are not module-level
# functions: index construction and the optimizer step.
METHODS = {"facts": ("FactIndex.__init__",), "trainer": ("AdamW.step",)}

# Names the per-layer metrics read, plus names a planned cleanup deletes;
# any of them missing from the package is reported as absent.
EXPECTED = (
    "tagger.tokenize", "tagger.tag", "facts.infer_question_pair", "facts.mine_remote",
    "facts.mine_proximal", "facts.FactIndex.__init__", "facts.bulk_load",
    "corpus.load_dataset", "features.fuse", "features.embed_temporal",
    "policy.extract_candidates", "policy.compile_record", "policy.featurize_record",
    "policy.featurize", "policy.forward", "policy.loss_and_grads", "policy.backward",
    "policy.load_checkpoint", "reward.embed_answer", "trainer.build_reward_caches",
    "trainer.collect_rollouts", "trainer.ppo_update", "trainer.reference_probs",
    "trainer.AdamW.step", "trainer.train_sft_compiled", "metrics.evaluate",
    "metrics.evaluate_compiled", "metrics.score_predictions", "cli.main",
)

# The function whose every call duration is kept, for percentiles.
KEEP_DURATIONS = "policy.compile_record"

PACKAGE = "tsqa"
SPANS_PER_NAME = 2000  # spans kept per name and timed section


class _Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []


class _Observations:
    """Values captured from arguments and results during one run."""

    def __init__(self) -> None:
        self.embed_args: set = set()
        self.dist_stored = 0
        self.dist_read = 0
        self.compiled = 0
        self.gold_hits = 0
        self.candidates = 0
        self.proximal_pools: list[int] = []
        self.ppo_stats: list[dict] = []
        self.sft_final_loss: Optional[float] = None
        self.errors: list[str] = []


class Tracer:
    def __init__(self) -> None:
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span id, child time]
        self._ids = itertools.count(1)
        self.run_id = ""
        self._reset()

    def _reset(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.obs = _Observations()
        self._kept: dict[str, int] = defaultdict(int)

    # -- installation -------------------------------------------------------

    def _targets(self) -> dict[str, tuple[object, str, Callable]]:
        """Map 'layer.name' to (owner, attribute, original) for every wrapped callable."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    targets[f"{layer}.{attr}"] = (module, attr, value)
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(module, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if inspect.isfunction(fn):
                    targets[f"{layer}.{dotted}"] = (cls, meth, fn)
        return targets

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        self.absent = [name for name in EXPECTED if name not in targets]
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, (owner, attr, original) in targets.items():
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for bound_as, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound_as, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe, wanted = _OBSERVERS.get(name, (None, ()))
        positions = _positions(fn, wanted)
        keep_durations = name == KEEP_DURATIONS
        clock = time.perf_counter
        stack = self._stack

        # The body of span() inlined: a generator-based context manager
        # would cost more than the shortest wrapped calls.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._record(name, span_id, parent, start, end, frame[1], keep_durations)
            if observe is not None:
                self._observe(observe, name, positions, args, kwargs, result)
            return result

        return wrapper

    def _record(self, name, span_id, parent, start, end, child_time, keep_durations) -> None:
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        stat = self.stats[name]
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - child_time
        if keep_durations:
            stat.durations.append(duration)
        if self._kept[name] < SPANS_PER_NAME:
            self._kept[name] += 1
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    def _observe(self, observe, name, positions, args, kwargs, result) -> None:
        try:
            named = {k: args[i] if i < len(args) else kwargs[k] for k, i in positions.items()}
            observe(self.obs, named, result)
        except (AttributeError, TypeError, IndexError, KeyError) as exc:
            self.obs.errors.append(f"{name}: {type(exc).__name__}: {exc}")

    @contextmanager
    def span(self, name: str):
        """A span for a benchmark stage around calls into the package."""
        span_id = next(self._ids)
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(name, span_id, parent, start, end, frame[1], False)

    def begin_run(self, run_id: str) -> None:
        """Start counting a fresh run; spans of earlier runs are kept."""
        self._reset()
        self.run_id = run_id

    # -- results ------------------------------------------------------------

    def _calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def _total(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current run (see the benchmark README)."""
        obs = self.obs
        compile_ms = sorted(1000.0 * d for d in self.stats[KEEP_DURATIONS].durations)
        embed_calls = self._calls("reward.embed_answer")
        ppo = obs.ppo_stats

        def ppo_mean(key: str) -> float:
            values = [s[key] for s in ppo if key in s]
            return statistics.fmean(values) if values else 0.0

        metrics = {
            "tagger.tokenize_calls": self._calls("tagger.tokenize"),
            "tagger.tokenize_s": self._total("tagger.tokenize"),
            "tagger.tag_s": self._total("tagger.tag"),
            "facts.infer_question_pair_s": self._total("facts.infer_question_pair"),
            "facts.mine_s": self._total("facts.mine_remote", "facts.mine_proximal"),
            "policy.extract_candidates_s": self._total("policy.extract_candidates"),
            "policy.compile_s": self._total("policy.compile_record"),
            "policy.compile_p50_ms": percentile(compile_ms, 50),
            "policy.compile_p99_ms": percentile(compile_ms, 99),
            "policy.compile_records": self._calls("policy.compile_record"),
            "facts.index_builds": self._calls("facts.FactIndex.__init__"),
            "facts.index_build_s": self._total("facts.FactIndex.__init__"),
            "corpus.load_dataset_s": self._total("corpus.load_dataset"),
            "policy.load_checkpoint_s": self._total("policy.load_checkpoint"),
            "reward.embed_calls": embed_calls,
            "reward.embed_s": self._total("reward.embed_answer"),
            "reward.embed_distinct_ratio": len(obs.embed_args) / embed_calls if embed_calls else 0.0,
            "trainer.reward_cache_builds": self._calls("trainer.build_reward_caches"),
            "trainer.reward_cache_s": self._total("trainer.build_reward_caches"),
            "trainer.dist_used_ratio": obs.dist_read / obs.dist_stored if obs.dist_stored else 0.0,
            "facts.proximal_pool_median": statistics.median(obs.proximal_pools) if obs.proximal_pools else 0.0,
            "features.fuse_s": self._total("features.fuse"),
            "policy.featurize_calls": self._calls("policy.featurize_record"),
            "policy.featurize_s": self._total("policy.featurize_record"),
            "policy.forward_calls": self._calls("policy.forward"),
            "policy.forward_s": self._total("policy.forward"),
            "policy.loss_and_grads_calls": self._calls("policy.loss_and_grads"),
            "policy.loss_and_grads_s": self._total("policy.loss_and_grads"),
            "trainer.adamw_steps": self._calls("trainer.AdamW.step"),
            "trainer.adamw_s": self._total("trainer.AdamW.step"),
            "trainer.rollout_s": self._total("trainer.collect_rollouts"),
            "trainer.ppo_update_s": self._total("trainer.ppo_update"),
            "trainer.reference_probs_s": self._total("trainer.reference_probs"),
            "metrics.evaluate_calls": self._calls("metrics.evaluate", "metrics.evaluate_compiled"),
            "metrics.evaluate_s": self._total("metrics.evaluate", "metrics.evaluate_compiled"),
            "policy.gold_hit_ratio": obs.gold_hits / obs.compiled if obs.compiled else 0.0,
            "policy.candidates_mean": obs.candidates / obs.compiled if obs.compiled else 0.0,
            "trainer.sft_final_loss": obs.sft_final_loss if obs.sft_final_loss is not None else 0.0,
            "trainer.ppo_approx_kl": ppo_mean("approx_kl"),
            "trainer.ppo_clip_frac": ppo_mean("clip_frac"),
            "trainer.ppo_value_loss": ppo_mean("value_loss"),
            "trainer.ppo_policy_loss": ppo_mean("policy_loss"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                s.self_time for n, s in self.stats.items() if n.split(".", 1)[0] == layer
            )
        return {k: float(v) for k, v in metrics.items()}

    def call_table(self) -> dict[str, dict]:
        return {
            name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
            for name, s in sorted(self.stats.items())
        }

    def write(self, path: Path, summary: dict) -> None:
        """Spans as JSON lines, preceded by one summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": summary, "absent": self.absent}) + "\n")
            for span_id, name, start, end, parent, run_id in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run_id}
                    )
                    + "\n"
                )


def percentile(sorted_values: list[float], pct: float) -> float:
    if not sorted_values:
        return 0.0
    rank = math.ceil(pct / 100.0 * len(sorted_values)) - 1  # nearest rank
    return sorted_values[max(rank, 0)]


# ---------------------------------------------------------------------------
# Observers: (observations, the arguments they read by name, result) -> None.


def _obs_embed(obs: _Observations, args: dict, result) -> None:
    obs.embed_args.add(args["answer"])


def _obs_caches(obs: _Observations, args: dict, result) -> None:
    for comp, cache in zip(args["compiled"], result):
        obs.proximal_pools.append(len(comp.proximal_pool))
        obs.dist_stored += cache.dist_gold.size + cache.dist_remote.size + cache.dist_proximal.size


def _obs_rollouts(obs: _Observations, args: dict, result) -> None:
    config = args["config"]
    if config.reward_kind != "contrastive":
        return  # the exact-match reward reads em_sign, no distance
    for comp in result.compiled:
        n = min(config.negatives_per_side, len(comp.remote_pool), len(comp.proximal_pool))
        obs.dist_read += 1 + 2 * max(n, 0)


def _obs_compile(obs: _Observations, args: dict, result) -> None:
    obs.compiled += 1
    obs.gold_hits += result.gold_index >= 0
    obs.candidates += len(result.candidates)


def _obs_ppo(obs: _Observations, args: dict, result) -> None:
    obs.ppo_stats.append(dict(result[1]))


def _obs_sft(obs: _Observations, args: dict, result) -> None:
    history = result[1]
    if history:
        obs.sft_final_loss = float(history[-1]["loss"])


# Name -> (observer, the arguments it reads).
_OBSERVERS = {
    "reward.embed_answer": (_obs_embed, ("answer",)),
    "trainer.build_reward_caches": (_obs_caches, ("compiled",)),
    "trainer.collect_rollouts": (_obs_rollouts, ("config",)),
    "policy.compile_record": (_obs_compile, ()),
    "trainer.ppo_update": (_obs_ppo, ()),
    "trainer.train_sft_compiled": (_obs_sft, ()),
}


def _positions(fn: Callable, wanted: tuple[str, ...]) -> dict[str, int]:
    """Positional index of each wanted parameter (a large index when the
    parameter is missing, so that reading it falls back to keywords)."""
    params = list(inspect.signature(fn).parameters)
    return {k: params.index(k) if k in params else len(params) for k in wanted}
