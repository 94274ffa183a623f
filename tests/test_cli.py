"""End-to-end command-line flows on a miniature corpus."""

import json
import math

import pytest

from tsqa.cli import main
from tsqa.corpus import load_dataset, save_facts
from tsqa.facts import TimeFact
from tsqa.intervals import year_span


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tag", "--text", "x", "--no-such-flag"])
    assert exc.value.code == 1


def test_runtime_error_is_exit_two(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "eval",
        "--data", str(tmp_path / "missing.jsonl"),
        "--checkpoint", str(tmp_path / "missing.ckpt"),
    )
    assert code == 2
    assert "tsqa: error:" in err


def test_bad_config_shape_is_exit_two(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    code, _, err = run(capsys, "gen", "--out-dir", str(tmp_path / "d"), "--config", str(cfg))
    assert code == 2
    assert "JSON object" in err


def test_reward_exact_prediction(capsys):
    code, out, _ = run(capsys, "reward", "--gt", "Leeds United F.C.", "--pred", "leeds united fc")
    assert code == 0
    assert "T = 0.0" in out
    r_line = next(line for line in out.splitlines() if line.startswith("R = "))
    assert float(r_line[4:]) == pytest.approx(1.999998000001, abs=1e-9)


def test_reward_with_negatives_moves_down(capsys):
    _, out_plain, _ = run(capsys, "reward", "--gt", "alpha", "--pred", "alpha")
    _, out_neg, _ = run(
        capsys,
        "reward", "--gt", "alpha", "--pred", "beta", "--negative", "beta",
    )
    r = lambda text: float(next(l[4:] for l in text.splitlines() if l.startswith("R = ")))
    # predicting the negative itself drives T to the margin ceiling
    assert r(out_neg) < r(out_plain)


def test_reward_with_lookup_table(capsys, tmp_path):
    table = tmp_path / "vectors.txt"
    table.write_text("alpha 1 0 0\nbeta 0 1 0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reward": {"dim": 3, "lookup_path": str(table)}}))
    code, out, err = run(
        capsys, "reward", "--gt", "alpha", "--pred", "beta", "--config", str(cfg)
    )
    assert code == 0, err
    lines = out.splitlines()
    t = float(next(line[4:] for line in lines if line.startswith("T = ")))
    assert t == pytest.approx(math.sqrt(2.0), abs=1e-12)  # the table's vectors
    assert any(line.startswith("R = ") for line in lines)


def test_tag_emits_spans_and_question_time(capsys):
    code, out, _ = run(capsys, "tag", "--text", "What happened in 1987?")
    assert code == 0
    payload = json.loads(out)
    assert payload["tokens"][-2:] == ["1987", "?"]
    span = payload["spans"][0]
    assert (span["start"], span["end"]) == ("1987-01", "1987-12")
    assert payload["question_time"]["kind"] == "point"


def test_mask_dilation_output(capsys):
    code, out, _ = run(
        capsys, "mask", "--text", "He left in 1987 and returned later.", "--window", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["mask"]) == len(payload["tokens"])
    assert sum(payload["dilated"]) >= sum(payload["mask"]) > 0
    assert payload["window"] == 1


def test_mine_subcommand(capsys, tmp_path):
    def tf(s, o, y1, y2):
        iv = year_span(y1, y2)
        return TimeFact(s, "employer", o, iv.start, iv.end)

    facts = [
        tf("Ada", "Mill A", 1950, 1955),
        tf("Ada", "Mill B", 1957, 1960),
        tf("Ada", "Mill C", 1963, 1969),
        tf("Ben", "Yard D", 1956, 1961),
    ]
    path = tmp_path / "facts.jsonl"
    save_facts(facts, path)
    code, out, _ = run(
        capsys,
        "mine",
        "--facts", str(path),
        "--subject", "Ada",
        "--relation", "employer",
        "--gold", "Mill B",
        "--start", "1958-01",
        "--end", "1958-12",
        "--k", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["remote"] == ["Mill A", "Mill C"]
    assert payload["proximal"] == ["Yard D"]
    assert set(payload["sampled"]["remote"]) <= {"Mill A", "Mill C"}


CONFIG = {
    "features": {"embed_dim": 4, "window": 2, "hidden": 8},
    "sft": {"epochs": 2, "batch_size": 8},
    "ppo": {"num_rollouts": 16, "chunk_size": 8, "ppo_epochs": 1},
    "synthetic": {
        "n_entities": 12,
        "n_relations": 1,
        "facts_per_pair": 2,
        "distractor_sentences_per_context": 1,
        "unanswerable_fraction": 0.1,
        "seed": 3,
    },
}


def test_generate_train_evaluate_pipeline(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    corpus = tmp_path / "corpus"

    code, out, _ = run(capsys, "gen", "--out-dir", str(corpus), "--config", str(cfg))
    assert code == 0
    for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "facts.jsonl"):
        assert (corpus / name).exists(), name
    assert "train" in out

    sft_ckpt = tmp_path / "sft.ckpt"
    code, out, _ = run(
        capsys,
        "train-sft",
        "--train", str(corpus / "train.jsonl"),
        "--dev", str(corpus / "dev.jsonl"),
        "--out", str(sft_ckpt),
        "--config", str(cfg),
        "--seed", "1",
    )
    assert code == 0
    assert sft_ckpt.exists()
    sidecar = json.loads((tmp_path / "sft.ckpt.json").read_text())
    assert sidecar["features"]["embed_dim"] == 4
    history = (tmp_path / "sft.ckpt.history.csv").read_text()
    assert history.splitlines()[0] == "epoch,loss,dev_em,dev_f1,skipped"
    assert len(history.splitlines()) == 3  # header + 2 epochs

    ppo_ckpt = tmp_path / "ppo.ckpt"
    code, out, _ = run(
        capsys,
        "train-ppo",
        "--train", str(corpus / "train.jsonl"),
        "--dev", str(corpus / "dev.jsonl"),
        "--checkpoint", str(sft_ckpt),
        "--out", str(ppo_ckpt),
        "--config", str(cfg),
        "--iterations", "1",
        "--seed", "1",
    )
    assert code == 0
    assert ppo_ckpt.exists()
    assert "best dev EM" in out

    code, out, _ = run(
        capsys,
        "eval",
        "--data", str(corpus / "test.jsonl"),
        "--checkpoint", str(ppo_ckpt),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["em"] <= 1.0
    assert 0.0 <= payload["f1"] <= 1.0

    report_path = tmp_path / "report.md"
    code, out, _ = run(
        capsys,
        "eval",
        "--data", str(corpus / "test.jsonl"),
        "--checkpoint", str(ppo_ckpt),
        "--out", str(report_path),
    )
    assert code == 0
    assert report_path.exists()
    assert "|" in report_path.read_text()  # markdown table


def test_ablate_grid(capsys, tmp_path):
    cfg_data = dict(CONFIG)
    cfg_data["sft"] = {"epochs": 1, "batch_size": 8}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(cfg_data))
    corpus = tmp_path / "corpus"
    run(capsys, "gen", "--out-dir", str(corpus), "--config", str(cfg))

    out_dir = tmp_path / "grid"
    code, out, _ = run(
        capsys,
        "ablate",
        "--train", str(corpus / "train.jsonl"),
        "--dev", str(corpus / "dev.jsonl"),
        "--test", str(corpus / "test.jsonl"),
        "--out-dir", str(out_dir),
        "--config", str(cfg),
        "--iterations", "0",
        "--seed", "1",
    )
    assert code == 0
    csv = (out_dir / "ablation.csv").read_text().splitlines()
    assert csv[0] == "temporal_fusion,reward,test_em,test_f1"
    assert len(csv) == 5  # header + fusion {on,off} x reward {contrastive,em}
    arms = {tuple(line.split(",")[:2]) for line in csv[1:]}
    assert arms == {
        ("True", "contrastive"),
        ("True", "exact_match"),
        ("False", "contrastive"),
        ("False", "exact_match"),
    }
    md = (out_dir / "ablation.md").read_text()
    assert md.startswith("| temporal fusion | reward |")
    assert out.count("EM") >= 4


def test_empty_split_is_exit_two(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    corpus = tmp_path / "corpus"
    run(capsys, "gen", "--out-dir", str(corpus), "--config", str(cfg))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")

    sft_ckpt = tmp_path / "sft.ckpt"
    common = ["--out", str(sft_ckpt), "--config", str(cfg)]
    code, _, err = run(
        capsys, "train-sft", "--train", str(corpus / "train.jsonl"), "--dev", str(empty), *common
    )
    assert code == 2
    assert "dev set is empty" in err
    code, _, err = run(
        capsys, "train-sft", "--train", str(corpus / "train.jsonl"),
        "--dev", str(corpus / "dev.jsonl"), *common,
    )
    assert code == 0, err
    code, _, err = run(
        capsys,
        "train-ppo",
        "--train", str(empty),
        "--dev", str(corpus / "dev.jsonl"),
        "--checkpoint", str(sft_ckpt),
        "--out", str(tmp_path / "ppo.ckpt"),
        "--config", str(cfg),
        "--iterations", "1",
    )
    assert code == 2
    assert "train set is empty" in err


def test_ablate_compiles_each_split_once(capsys, tmp_path, monkeypatch):
    import tsqa.policy

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "sft": {"epochs": 1, "batch_size": 8}}))
    corpus = tmp_path / "corpus"
    run(capsys, "gen", "--out-dir", str(corpus), "--config", str(cfg))
    calls = []
    compile_record = tsqa.policy.compile_record

    def counting(record, *args):
        calls.append(record.id)
        return compile_record(record, *args)

    monkeypatch.setattr(tsqa.policy, "compile_record", counting)
    splits = [str(corpus / f"{name}.jsonl") for name in ("train", "dev", "test")]
    code, _, err = run(
        capsys,
        "ablate",
        "--train", splits[0],
        "--dev", splits[1],
        "--test", splits[2],
        "--out-dir", str(tmp_path / "grid"),
        "--config", str(cfg),
        "--iterations", "1",
        "--seed", "1",
    )
    assert code == 0, err
    n_records = sum(len(load_dataset(p)) for p in splits)
    assert len(calls) == n_records


def _trained_checkpoint(capsys, tmp_path):
    """A one-epoch `train-sft` checkpoint on the miniature corpus; returns
    the corpus directory and the checkpoint path."""
    cfg_data = {**CONFIG, "features": {"embed_dim": 8, "window": 2, "hidden": 8}, "sft": {"epochs": 1}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(cfg_data))
    corpus = tmp_path / "corpus"
    run(capsys, "gen", "--out-dir", str(corpus), "--config", str(cfg))
    ckpt = tmp_path / "mismatch.ckpt"
    code, _, err = run(
        capsys,
        "train-sft",
        "--train", str(corpus / "train.jsonl"),
        "--dev", str(corpus / "dev.jsonl"),
        "--out", str(ckpt),
        "--config", str(cfg),
    )
    assert code == 0, err
    return corpus, ckpt


def _sidecar_fusion(sidecar):
    sidecar["features"]["fusion_mode"] = "concat"


def _sidecar_embed_dim(sidecar):
    sidecar["features"]["embed_dim"] = 4


def _sidecar_hidden(sidecar):
    sidecar["features"]["hidden"] = 16


def _sidecar_extra_ids(sidecar):
    top = len(sidecar["vocab"])
    sidecar["vocab"].update({"zzextra1": top, "zzextra2": top + 1})


@pytest.mark.parametrize(
    "edit, field",
    [
        (_sidecar_fusion, "fusion_mode"),
        (_sidecar_embed_dim, "embed_dim"),
        (_sidecar_hidden, "hidden"),
        (_sidecar_extra_ids, "vocabulary size"),
    ],
    ids=["fusion_mode", "embed_dim", "hidden", "vocab"],
)
def test_eval_rejects_sidecar_that_disagrees_with_tensors(capsys, tmp_path, edit, field):
    corpus, ckpt = _trained_checkpoint(capsys, tmp_path)
    sidecar_path = tmp_path / "mismatch.ckpt.json"
    sidecar = json.loads(sidecar_path.read_text())
    edit(sidecar)
    sidecar_path.write_text(json.dumps(sidecar))

    code, _, err = run(
        capsys, "eval", "--data", str(corpus / "test.jsonl"), "--checkpoint", str(ckpt)
    )
    assert code == 2
    assert "mismatch.ckpt" in err
    assert field in err


def _sidecar_ids_outside_the_table(sidecar):
    # Right size, but two tokens moved to ids at and above the table's rows.
    top = len(sidecar["vocab"])
    for shift, token in enumerate(sorted(sidecar["vocab"])[-2:]):
        sidecar["vocab"][token] = top + shift


def _sidecar_negative_window(sidecar):
    sidecar["features"]["window"] = -1


@pytest.mark.parametrize(
    "edit, message",
    [(_sidecar_ids_outside_the_table, "vocabulary ids"), (_sidecar_negative_window, "window")],
    ids=["vocab_ids", "window"],
)
def test_eval_names_the_sidecar_it_cannot_parse(capsys, tmp_path, edit, message):
    corpus, ckpt = _trained_checkpoint(capsys, tmp_path)
    sidecar_path = tmp_path / "mismatch.ckpt.json"
    sidecar = json.loads(sidecar_path.read_text())
    edit(sidecar)
    sidecar_path.write_text(json.dumps(sidecar))

    code, _, err = run(
        capsys, "eval", "--data", str(corpus / "test.jsonl"), "--checkpoint", str(ckpt)
    )
    assert code == 2
    assert "mismatch.ckpt.json" in err
    assert message in err


def test_eval_on_truncated_checkpoint_names_the_file(capsys, tmp_path):
    corpus, ckpt = _trained_checkpoint(capsys, tmp_path)
    ckpt.write_bytes(ckpt.read_bytes()[:100])

    code, _, err = run(
        capsys, "eval", "--data", str(corpus / "test.jsonl"), "--checkpoint", str(ckpt)
    )
    assert code == 2
    assert str(ckpt) in err
    assert "checkpoint size 100" in err
