"""Command-line entry point: generation, tagging, mining, training,
evaluation, and the fusion/reward ablation grid as subcommands.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .config import FeatureConfig, build_at, config_from_json, json_object
from .corpus import (
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    load_facts,
    save_dataset,
    save_facts,
)
from .facts import FactIndex, mine_proximal, mine_remote, sample_negatives
from .features import build_mask, dilate
from .fileio import write_atomic
from .intervals import MonthInterval, format_year_month, parse_year_month
from .metrics import csv_table, evaluate_compiled, markdown_table, report
from .policy import compile_dataset, load_checkpoint, save_checkpoint
from .reward import RewardParams, embed_answer, load_lookup_table, reward as reward_fn, triplet_score
from .tagger import parse_question_time, tag, tokenize
from .trainer import (
    PPOConfig,
    SFTConfig,
    build_vocabulary,
    train_ppo_compiled,
    train_sft_compiled,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return payload


def _where(args, name: str) -> str:
    return f"{args.config}: {name}" if args.config else name


def _block(cls, args, cfg: dict, name: str, **overrides):
    """Block `name` of the --config file as `cls`, overrides that are not None winning."""
    return config_from_json(cls, cfg.get(name, {}), _where(args, name), **overrides)


def _reward_params(args, cfg: dict) -> RewardParams:
    params = _block(RewardParams, args, cfg, "reward")
    lookup = json_object(cfg.get("reward", {}), {"lookup_path": ("", None)}, (_where(args, "reward"),))
    if lookup["lookup_path"]:
        table = load_lookup_table(lookup["lookup_path"], params.dim)
        params = replace(params, lookup_table=table)
    return params


def _interval_from_args(args) -> MonthInterval:
    start = build_at(("--start",), parse_year_month, args.start) if args.start else None
    end = build_at(("--end",), parse_year_month, args.end) if args.end else None
    return build_at(("--start/--end",), MonthInterval, start, end)


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_gen(args) -> int:
    cfg = _load_config(args.config)
    syn = _block(SyntheticConfig, args, cfg, "synthetic", seed=args.seed)
    try:
        train, dev, test, facts = generate_synthetic(syn)
    except ValueError as exc:  # a config the generator cannot lay out, e.g. a narrow year_range
        raise ValueError(f"{_where(args, 'synthetic')}: {exc}") from exc
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(train, out / "train.jsonl")
    save_dataset(dev, out / "dev.jsonl")
    save_dataset(test, out / "test.jsonl")
    save_facts(facts, out / "facts.jsonl")
    print(
        f"wrote {len(train)} train / {len(dev)} dev / {len(test)} test records "
        f"and {len(facts)} facts to {out}"
    )
    return 0


def _cmd_tag(args) -> int:
    tokens = tokenize(args.text)
    spans = tag(tokens)
    spec = parse_question_time(tokens, spans)
    payload = {
        "tokens": [t.text for t in tokens],
        "spans": [
            {
                "tok_start": s.tok_start,
                "tok_end": s.tok_end,
                "kind": s.kind,
                "start": None if s.interval is None else format_year_month(s.interval.lo),
                "end": None if s.interval is None else format_year_month(s.interval.hi),
            }
            for s in spans
        ],
        "question_time": spec.to_json_dict(),
    }
    print(json.dumps(payload, ensure_ascii=False, indent=2))
    return 0


def _cmd_mask(args) -> int:
    tokens = tokenize(args.text)
    spans = tag(tokens)
    mask = build_mask(len(tokens), spans)
    dilated = build_at(("--window",), dilate, mask, args.window)
    payload = {
        "tokens": [t.text for t in tokens],
        "mask": mask.bits.tolist(),
        "dilated": dilated.bits.tolist(),
        "window": args.window,
    }
    print(json.dumps(payload, ensure_ascii=False, indent=2))
    return 0


def _cmd_mine(args) -> int:
    index = FactIndex(load_facts(args.facts))
    interval = _interval_from_args(args)
    remote = mine_remote(args.subject, args.relation, args.gold, interval, index)
    proximal = mine_proximal(args.subject, args.relation, args.gold, interval, index)
    rng = np.random.default_rng(args.seed)
    sampled_remote, sampled_proximal = build_at(("--k",), sample_negatives, remote, proximal, args.k, rng)
    payload = {
        "remote": remote,
        "proximal": proximal,
        "sampled": {"remote": sampled_remote, "proximal": sampled_proximal},
    }
    print(json.dumps(payload, ensure_ascii=False, indent=2))
    return 0


def _cmd_reward(args) -> int:
    cfg = _load_config(args.config)
    params = _reward_params(args, cfg)
    gt = embed_answer(args.gt, params)
    pred = embed_answer(args.pred, params)
    negatives = np.array([embed_answer(n, params) for n in args.negative])
    t = triplet_score(gt, pred, negatives, params.margin, params.neg_aggregate)
    r = reward_fn(t, params)
    print(f"T = {t}")
    print(f"R = {r}")
    return 0


def _load_split(path: str, name: str) -> list:
    """The records of a training or test split, which must hold at least one."""
    records = load_dataset(path)
    if not records:
        raise ValueError(f"{path}: {name} set is empty")
    return records


def _cmd_train_sft(args) -> int:
    cfg = _load_config(args.config)
    feature_config = _block(FeatureConfig, args, cfg, "features", temporal_fusion=args.temporal_fusion)
    sft = _block(SFTConfig, args, cfg, "sft", seed=args.seed)
    splits = [_load_split(args.train, "train"), _load_split(args.dev, "dev")]
    vocab = build_vocabulary(splits)
    train, dev = (compile_dataset(split, None, vocab, feature_config, pools=False) for split in splits)
    params, history = train_sft_compiled(train, dev, sft, feature_config, len(vocab))
    save_checkpoint(args.out, params, vocab, feature_config)
    history_path = args.history or str(args.out) + ".history.csv"
    write_atomic(history_path, csv_table(history))
    final = history[-1] if history else {"dev_em": float("nan")}
    print(f"saved {args.out}; best dev EM {max((h['dev_em'] for h in history), default=0.0):.4f} "
          f"(final epoch {final['dev_em']:.4f})")
    return 0


def _cmd_train_ppo(args) -> int:
    cfg = _load_config(args.config)
    sft_params, vocab, feature_config = load_checkpoint(args.checkpoint)
    ppo = _block(
        PPOConfig, args, cfg, "ppo",
        seed=args.seed, iterations=args.iterations, reward_kind=args.reward_kind,
    )
    reward_params = _reward_params(args, cfg)
    train, dev = (
        compile_dataset(_load_split(path, name), None, vocab, feature_config, pools)
        for path, name, pools in ((args.train, "train", True), (args.dev, "dev", False))
    )
    params, history = train_ppo_compiled(train, dev, sft_params, ppo, feature_config, reward_params)
    save_checkpoint(args.out, params, vocab, feature_config)
    history_path = args.history or str(args.out) + ".history.csv"
    write_atomic(history_path, csv_table(history))
    best = max((h["dev_em"] for h in history), default=0.0)
    print(f"saved {args.out}; best dev EM {best:.4f} over {len(history)} iterations")
    return 0


def _cmd_eval(args) -> int:
    params, vocab, feature_config = load_checkpoint(args.checkpoint)
    records = load_dataset(args.data)
    if not records:
        raise ValueError(f"{args.data}: no records to evaluate")
    data = compile_dataset(records, None, vocab, feature_config, pools=False)
    metrics = evaluate_compiled(data, params, feature_config)
    text = report(metrics, args.format)
    if args.out:
        write_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_ablate(args) -> int:
    cfg = _load_config(args.config)
    sft_cfg = _block(SFTConfig, args, cfg, "sft", seed=args.seed)
    reward_params = _reward_params(args, cfg)
    splits = [_load_split(getattr(args, name), name) for name in ("train", "dev", "test")]
    vocab = build_vocabulary(splits[:2])
    # Compilation reads the window, which every arm shares, and not the
    # fusion switch: the splits are compiled once for the whole grid, and
    # only train with the negative pools that the PPO reward reads.
    compile_config = _block(FeatureConfig, args, cfg, "features")
    train, dev, test = (compile_dataset(split, None, vocab, compile_config, k == 0) for k, split in enumerate(splits))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows, md_rows = [], []
    for fusion in (True, False):
        feature_config = replace(compile_config, temporal_fusion=fusion)
        sft_params, _ = train_sft_compiled(train, dev, sft_cfg, feature_config, len(vocab))
        for kind in ("contrastive", "exact_match"):
            ppo = _block(
                PPOConfig, args, cfg, "ppo", seed=args.seed, iterations=args.iterations, reward_kind=kind
            )
            params, _ = train_ppo_compiled(
                train, dev, sft_params, ppo, feature_config, reward_params
            )
            metrics = evaluate_compiled(test, params, feature_config)
            rows.append({"temporal_fusion": fusion, "reward": kind, "test_em": metrics.em, "test_f1": metrics.f1})
            md_rows.append(["on" if fusion else "off", kind, f"{metrics.em:.4f}", f"{metrics.f1:.4f}"])
            print("fusion={} reward={}: EM {} F1 {}".format(*md_rows[-1]))

    write_atomic(out_dir / "ablation.csv", csv_table(rows))
    write_atomic(out_dir / "ablation.md", markdown_table(["temporal fusion", "reward", "test EM", "test F1"], md_rows))
    print(f"wrote {out_dir / 'ablation.csv'} and {out_dir / 'ablation.md'}")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring.


def build_parser() -> _Parser:
    parser = _Parser(prog="tsqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen", parents=[], help="generate a synthetic corpus")
    p.add_argument("--config", help="JSON config with a 'synthetic' block")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("tag", help="tag temporal expressions in a text")
    p.add_argument("--text", required=True)
    p.set_defaults(func=_cmd_tag)

    p = sub.add_parser("mask", help="temporal mask and its dilation for a text")
    p.add_argument("--text", required=True)
    p.add_argument("--window", type=int, default=10)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("mine", help="mine negative answers from a fact file")
    p.add_argument("--facts", required=True)
    p.add_argument("--subject", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--gold", default="")
    p.add_argument("--start", help="question interval start, YYYY-MM")
    p.add_argument("--end", help="question interval end, YYYY-MM")
    p.add_argument("--k", type=int, default=3, help="negatives per side")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("reward", help="score a prediction against the gold")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--negative", action="append", default=[])
    p.add_argument("--config", help="JSON config with a 'reward' block")
    p.set_defaults(func=_cmd_reward)

    p = sub.add_parser("train-sft", help="supervised selection stage")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--history", help="CSV path (default: <out>.history.csv)")
    p.add_argument(
        "--temporal-fusion",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="override the feature config's fusion switch",
    )
    p.set_defaults(func=_cmd_train_sft)

    p = sub.add_parser("train-ppo", help="PPO stage from an SFT checkpoint")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--checkpoint", required=True, help="stage-1 checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--reward-kind", choices=("contrastive", "exact_match"), default=None)
    p.add_argument("--history")
    p.set_defaults(func=_cmd_train_ppo)

    p = sub.add_parser("eval", help="EM/F1 of a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="fusion x reward grid, mirrored tables")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.error("a subcommand is required")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (`tsqa mine ... | head -1`): exit
        # quietly with the status of a process killed by SIGPIPE.  Whatever
        # is still buffered, and the interpreter's last flush, go nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except SystemExit:
        raise
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # noqa: BLE001 - single reporting point
        print(f"tsqa: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
