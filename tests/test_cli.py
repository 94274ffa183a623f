"""End-to-end command-line flows on a miniature corpus."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsqa
from tsqa.cli import main
from tsqa.corpus import load_dataset, load_facts, save_facts, serialize_record
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
    assert f"{cfg}: " in err
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


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_reward_rejects_non_finite_lookup_table(capsys, tmp_path, entry):
    table = tmp_path / "vectors.txt"
    table.write_text(f"beta 0 1 0\nalpha {entry} 0 0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reward": {"dim": 3, "lookup_path": str(table)}}))
    code, out, err = run(
        capsys, "reward", "--gt", "alpha", "--pred", "beta", "--config", str(cfg)
    )
    assert code == 2
    assert out == ""
    assert f"{table}:2: non-finite" in err


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


def test_a_reader_that_closes_stdout_ends_the_run_quietly(tmp_path):
    # `tsqa mine ... | head -1`: about 190 KB of negatives, far more than a
    # pipe holds, so the writer is still writing when the reader goes.
    path = tmp_path / "facts.jsonl"
    facts = []
    for i in range(6000):
        iv = year_span(1000 + i % 900, 1001 + i % 900)
        facts.append(TimeFact("Ada", "employer", f"Mill number {i}", iv.start, iv.end))
    save_facts(facts, path)
    argv = ["mine", "--facts", str(path), "--subject", "Ada", "--relation", "employer",
            "--gold", "x", "--start", "1500-01", "--end", "1500-12", "--k", "50"]
    src = str(Path(tsqa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-c", "from tsqa.cli import entrypoint; entrypoint()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 141  # 128 + SIGPIPE
    assert err == b""


def test_mine_rejects_a_negative_sample_count(capsys, tmp_path):
    path = tmp_path / "facts.jsonl"
    iv = year_span(1950, 1955)
    save_facts([TimeFact("Ada", "employer", "Mill A", iv.start, iv.end)], path)
    code, out, err = run(
        capsys, "mine", "--facts", str(path), "--subject", "Ada", "--relation", "employer", "--k", "-2"
    )
    assert code == 2
    assert out == ""
    assert "k_per_side must be >= 0, got -2" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--start", "1999-01", "--end", "1990-01"], "--start/--end: empty interval: start 1999-01 > end 1990-01"),
        (["--start", "1990-13"], "--start: month 13 outside [1, 12]"),
        (["--end", "1990-1"], "--end: bad year-month literal '1990-1', expected YYYY-MM"),
        (["--k", "-2"], "--k: k_per_side must be >= 0, got -2"),
    ],
    ids=["empty-interval", "month-13", "bad-literal", "negative-k"],
)
def test_mine_value_errors_name_their_flag(capsys, tmp_path, flags, message):
    path = tmp_path / "facts.jsonl"
    iv = year_span(1950, 1955)
    save_facts([TimeFact("Ada", "employer", "Mill A", iv.start, iv.end)], path)
    code, out, err = run(capsys, "mine", "--facts", str(path), "--subject", "Ada", "--relation", "employer", *flags)
    assert (code, out, err) == (2, "", f"tsqa: error: {message}\n")


def test_mask_window_error_names_its_flag(capsys):
    code, out, err = run(capsys, "mask", "--text", "From 1966 to 1972.", "--window", "-1")
    assert (code, out, err) == (2, "", "tsqa: error: --window: window must be >= 0\n")


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
    csv_text = (out_dir / "ablation.csv").read_text()
    md_text = (out_dir / "ablation.md").read_text()
    assert csv_text.endswith("\n") and md_text.endswith("\n")
    csv = csv_text.splitlines()
    md = md_text.splitlines()
    assert csv[0] == "temporal_fusion,reward,test_em,test_f1"
    assert md[:2] == ["| temporal fusion | reward | test EM | test F1 |", "| --- | --- | --- | --- |"]
    # header + fusion {on,off} x reward {contrastive,em}, in the order the grid runs
    assert len(csv) == 5 and len(md) == 6
    arms = [("True", "contrastive"), ("True", "exact_match"), ("False", "contrastive"), ("False", "exact_match")]
    for (fusion, kind), csv_line, md_line in zip(arms, csv[1:], md[2:]):
        em, f1 = (float(cell) for cell in csv_line.split(",")[2:])
        assert csv_line == f"{fusion},{kind},{em!r},{f1!r}"
        assert md_line == f"| {'on' if fusion == 'True' else 'off'} | {kind} | {em:.4f} | {f1:.4f} |"
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
    assert f"{empty}: dev set is empty" in err
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
    assert f"{empty}: train set is empty" in err

    splits = {name: str(corpus / f"{name}.jsonl") for name in ("train", "dev", "test")}
    for name in splits:
        args = [f"--{split}={empty if split == name else path}" for split, path in splits.items()]
        code, _, err = run(
            capsys, "ablate", *args, "--out-dir", str(tmp_path / "grid"), "--config", str(cfg),
            "--iterations", "0",
        )
        assert code == 2
        assert f"{empty}: {name} set is empty" in err
    assert not (tmp_path / "grid").exists()


def test_eval_of_an_empty_dataset_is_exit_two(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    corpus = tmp_path / "corpus"
    run(capsys, "gen", "--out-dir", str(corpus), "--config", str(cfg))
    ckpt = tmp_path / "sft.ckpt"
    code, _, err = run(
        capsys, "train-sft", "--train", str(corpus / "train.jsonl"), "--dev", str(corpus / "dev.jsonl"),
        "--out", str(ckpt), "--config", str(cfg),
    )
    assert code == 0, err
    for name, text in (("empty.jsonl", ""), ("blank.jsonl", "\n  \n\n")):
        data = tmp_path / name
        data.write_text(text)
        code, out, err = run(capsys, "eval", "--data", str(data), "--checkpoint", str(ckpt))
        assert code == 2, name
        assert f"{data}: no records to evaluate" in err
        assert "overall" not in out


def test_eval_stdout_is_the_report_its_out_file_holds(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    corpus = tmp_path / "corpus"
    run(capsys, "gen", "--out-dir", str(corpus), "--config", str(cfg))
    ckpt = tmp_path / "sft.ckpt"
    code, _, err = run(
        capsys, "train-sft", "--train", str(corpus / "train.jsonl"), "--dev", str(corpus / "dev.jsonl"),
        "--out", str(ckpt), "--config", str(cfg),
    )
    assert code == 0, err
    common = ["eval", "--data", str(corpus / "test.jsonl"), "--checkpoint", str(ckpt)]
    for fmt in ("markdown", "csv", "json"):
        path = tmp_path / f"report.{fmt}"
        code, out, err = run(capsys, *common, "--format", fmt, "--out", str(path))
        assert code == 0, err
        assert out == f"wrote {path}\n"
        code, out, err = run(capsys, *common, "--format", fmt)
        assert code == 0, err
        assert out == path.read_text(encoding="utf-8"), fmt  # one trailing newline, no blank line


def test_too_many_unresolvable_golds_is_exit_two_naming_a_record(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    corpus = tmp_path / "corpus"
    run(capsys, "gen", "--out-dir", str(corpus), "--config", str(cfg))
    # A third of the train records get an answer no context mentions.
    rows = [json.loads(line) for line in (corpus / "train.jsonl").read_text(encoding="utf-8").splitlines()]
    for row in rows[::3]:
        row["answers"] = ["Atlantis Office"]
    train = tmp_path / "train.jsonl"
    train.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    code, _, err = run(
        capsys, "train-sft", "--train", str(train), "--dev", str(corpus / "dev.jsonl"),
        "--out", str(tmp_path / "sft.ckpt"), "--config", str(cfg),
    )
    assert code == 2
    assert "unresolvable golds" in err
    assert rows[0]["id"] in err


def test_ablate_compiles_each_split_once(capsys, tmp_path, monkeypatch):
    import tsqa.policy

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "sft": {"epochs": 1, "batch_size": 8}}))
    corpus = tmp_path / "corpus"
    run(capsys, "gen", "--out-dir", str(corpus), "--config", str(cfg))
    calls = []
    compile_record = tsqa.policy.compile_record

    def counting(record, *args):
        pools = inspect.signature(compile_record).bind(record, *args).arguments.get("pools", True)
        calls.append((record.id, pools))
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
    # Only the train split, which the PPO stage's reward reads, is mined.
    n_train = len(load_dataset(splits[0]))
    assert [pools for _, pools in calls] == [i < n_train for i in range(n_records)]


def test_only_the_ppo_train_split_infers_pairs_and_mines(capsys, tmp_path, monkeypatch):
    import tsqa.policy

    calls = dict.fromkeys(("infer_question_pair", "mine_remote", "mine_proximal"), 0)
    for name in calls:

        def counting(*args, _name=name, _original=getattr(tsqa.policy, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(tsqa.policy, name, counting)
    corpus, ckpt = _trained_checkpoint(capsys, tmp_path)
    code, _, err = run(capsys, "eval", "--data", str(corpus / "test.jsonl"), "--checkpoint", str(ckpt))
    assert code == 0, err
    assert calls == dict.fromkeys(calls, 0)  # train-sft and eval mine nothing

    code, _, err = run(
        capsys,
        "train-ppo",
        "--train", str(corpus / "train.jsonl"),
        "--dev", str(corpus / "dev.jsonl"),
        "--checkpoint", str(ckpt),
        "--out", str(tmp_path / "ppo.ckpt"),
        "--iterations", "1",
    )
    assert code == 0, err
    assert calls["infer_question_pair"] == len(load_dataset(corpus / "train.jsonl"))
    assert calls["mine_remote"] == calls["mine_proximal"] > 0


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


def _sidecar_ids_outside_the_table(text):
    # Right size, but two tokens moved to ids at and above the table's rows.
    sidecar = json.loads(text)
    top = len(sidecar["vocab"])
    for shift, token in enumerate(sorted(sidecar["vocab"])[-2:]):
        sidecar["vocab"][token] = top + shift
    return json.dumps(sidecar)


def _sidecar_negative_window(text):
    sidecar = json.loads(text)
    sidecar["features"]["window"] = -1
    return json.dumps(sidecar)


def _sidecar_corrupt(text):
    return text.replace('"vocab"', "vocab", 1)


def _sidecar_without_vocab(text):
    sidecar = json.loads(text)
    del sidecar["vocab"]
    return json.dumps(sidecar)


def _sidecar_vocab_list(text):
    sidecar = json.loads(text)
    sidecar["vocab"] = sorted(sidecar["vocab"])
    return json.dumps(sidecar)


def _sidecar_vocab_id_string(text):
    sidecar = json.loads(text)
    sidecar["vocab"]["<unk>"] = "0"
    return json.dumps(sidecar)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_sidecar_ids_outside_the_table, "vocabulary ids"),
        (_sidecar_negative_window, "window"),
        (_sidecar_corrupt, "Expecting property name"),
        (_sidecar_without_vocab, "vocab: expected a JSON object, got nothing"),
        (_sidecar_vocab_list, 'vocab: expected a JSON object, got ["'),
        (_sidecar_vocab_id_string, 'vocab.<unk>: expected an integer, got "0"'),
        (lambda text: "[]", "mismatch.ckpt.json: expected a JSON object, got []"),
    ],
    ids=["vocab_ids", "window", "corrupt", "no_vocab", "vocab_list", "vocab_id_string", "not_an_object"],
)
def test_eval_names_the_sidecar_it_cannot_parse(capsys, tmp_path, edit, message):
    corpus, ckpt = _trained_checkpoint(capsys, tmp_path)
    sidecar_path = tmp_path / "mismatch.ckpt.json"
    sidecar_path.write_text(edit(sidecar_path.read_text()))

    code, _, err = run(
        capsys, "eval", "--data", str(corpus / "test.jsonl"), "--checkpoint", str(ckpt)
    )
    assert code == 2
    assert "mismatch.ckpt.json" in err
    assert message in err
    assert len(err) < 300  # a long value is cut short, not the whole vocabulary


def test_eval_on_truncated_checkpoint_names_the_file(capsys, tmp_path):
    corpus, ckpt = _trained_checkpoint(capsys, tmp_path)
    ckpt.write_bytes(ckpt.read_bytes()[:100])

    code, _, err = run(
        capsys, "eval", "--data", str(corpus / "test.jsonl"), "--checkpoint", str(ckpt)
    )
    assert code == 2
    assert str(ckpt) in err
    assert "checkpoint size 100" in err


def _corpus(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    corpus = tmp_path / "corpus"
    code, _, err = run(capsys, "gen", "--out-dir", str(corpus), "--config", str(cfg))
    assert code == 0, err
    return corpus


@pytest.mark.parametrize(
    "block, entry, message",
    [
        ("features", {"temporal_fusion": "false"}, 'features.temporal_fusion: expected true or false, got "false"'),
        ("features", {"embed_dim": "32"}, 'features.embed_dim: expected an integer, got "32"'),
        ("features", {"window": True}, "features.window: expected an integer, got true"),
        ("features", {"fusion_mode": 1}, "features.fusion_mode: expected a string, got 1"),
        ("sft", {"batch_size": 2.5}, "sft.batch_size: expected an integer, got 2.5"),
        ("sft", {"learning_rate": "0.1"}, 'sft.learning_rate: expected a number, got "0.1"'),
        ("features", [1], "features: expected a JSON object, got [1]"),
        ("sft", {"epochs": -1}, "sft: epochs must be non-negative"),
    ],
    ids=["bool_as_string", "int_as_string", "int_as_bool", "str_as_int", "int_as_real",
         "real_as_string", "block_not_object", "negative_epochs"],
)
def test_train_sft_config_errors_name_the_file_and_field(capsys, tmp_path, block, entry, message):
    corpus = _corpus(capsys, tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**CONFIG, block: {**CONFIG[block], **entry} if isinstance(entry, dict) else entry}))
    code, _, err = run(
        capsys,
        "train-sft",
        "--train", str(corpus / "train.jsonl"),
        "--dev", str(corpus / "dev.jsonl"),
        "--out", str(tmp_path / "p.ckpt"),
        "--config", str(cfg),
    )
    assert code == 2
    assert f"{cfg}: {message}" in err
    assert not (tmp_path / "p.ckpt").exists()


YEAR_RANGE = "synthetic: year_range must be an increasing pair within [1000, 2999]"


@pytest.mark.parametrize(
    "command, config, message",
    [
        (["reward", "--gt", "a", "--pred", "b"], {"reward": {"dim": 0}}, "reward: dim must be positive"),
        (["reward", "--gt", "a", "--pred", "b"], {"reward": {"dim": -3}}, "reward: dim must be positive"),
        (["reward", "--gt", "a", "--pred", "b"], {"reward": {"margin": None}}, "reward.margin: expected a number, got null"),
        (["gen", "--out-dir", "{tmp}/d"], {"synthetic": {"year_range": "1950"}}, 'synthetic.year_range: expected a list, got "1950"'),
        (["gen", "--out-dir", "{tmp}/d"], {"synthetic": {"year_range": [1990]}}, YEAR_RANGE),
        (["gen", "--out-dir", "{tmp}/d"], {"synthetic": {"year_range": [1950, 2000, 3]}}, YEAR_RANGE),
        (["reward", "--gt", "a", "--pred", "b"], {"reward": {"lookup_path": 5}}, "reward.lookup_path: expected a string, got 5"),
        (
            ["gen", "--out-dir", "{tmp}/d"],
            {"synthetic": {"question_type_mix": {"L2": "1"}}},
            'synthetic.question_type_mix.L2: expected a number, got "1"',
        ),
        (["reward", "--gt", "Mill A", "--pred", "Mill B"], {"reward": {"alpha": float("nan")}}, "reward.alpha: expected a finite number, got NaN"),
        (["reward", "--gt", "Mill A", "--pred", "Mill B"], {"reward": {"margin": float("inf")}}, "reward.margin: expected a finite number, got Infinity"),
        (
            ["gen", "--out-dir", "{tmp}/d"],
            {"synthetic": {"question_type_mix": {"L2": float("-inf")}}},
            "synthetic.question_type_mix.L2: expected a finite number, got -Infinity",
        ),
        (
            ["gen", "--out-dir", "{tmp}/d"],
            {"synthetic": {"n_entities": 3, "facts_per_pair": 40}},
            "synthetic: year_range too narrow for 40 facts per pair",
        ),
    ],
    ids=["reward_dim_0", "reward_dim_negative", "reward_null", "year_range_string", "year_range_short", "year_range_long",
         "lookup_path_not_string", "type_mix_weight_string", "alpha_nan", "margin_infinity", "type_mix_weight_infinity",
         "year_range_too_narrow"],
)
def test_config_errors_name_the_file_and_field(capsys, tmp_path, command, config, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, *[arg.format(tmp=tmp_path) for arg in command], "--config", str(cfg))
    assert code == 2
    assert f"{cfg}: {message}" in err


def test_gen_reads_year_range_as_a_list(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"synthetic": {**CONFIG["synthetic"], "year_range": [1900, 1930]}}))
    code, _, err = run(capsys, "gen", "--out-dir", str(tmp_path / "d"), "--config", str(cfg))
    assert code == 0, err
    facts = [json.loads(line) for line in (tmp_path / "d" / "facts.jsonl").read_text().splitlines()]
    assert facts and all("1900-01" <= f["start"] and f["end"] <= "1930-12" for f in facts)


@pytest.mark.parametrize(
    "command, content, message",
    [
        (["gen", "--out-dir", "{tmp}/d", "--config", "{bad}"], "{not json", "invalid JSON"),
        (["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"], "{", "line 1: invalid JSON"),
        (["mine", "--facts", "{bad}", "--subject", "Ada", "--relation", "employer"], '{"subject": 1}', "line 1"),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"question": "Q?", "context": "C.", "answers": ["A"], "time_spec": [1]}',
            "line 1: time_spec: expected a JSON object, got [1]",
        ),
        (["mine", "--facts", "{bad}", "--subject", "Ada", "--relation", "employer"], '["a"]', 'line 1: expected a JSON object, got ["a"]'),
        (
            ["mine", "--facts", "{bad}", "--subject", "Ada", "--relation", "employer"],
            '{"s": null, "r": "employer", "o": "Mill A", "start": "1950-01", "end": "1955-12"}',
            "line 1: s: expected a string, got null",
        ),
        (
            ["mine", "--facts", "{bad}", "--subject", "Ada", "--relation", "employer"],
            '{"s": "Ada", "r": "employer", "o": 5, "start": "1950-01", "end": "1955-12"}',
            "line 1: o: expected a string, got 5",
        ),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"question": "Q?", "context": "C.", "answers": ["A"], "facts": [{"s": "Ada", "r": 1, "o": "B"}]}',
            "line 1: facts[0].r: expected a string, got 1",
        ),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"question": "Q?", "context": "C.", "answers": ["A"], "time_spec": {"kind": "during_event", "event": ["x"]}}',
            'line 1: time_spec.event: expected a string, got ["x"]',
        ),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"id": ["x"], "question": "Q?", "context": "C.", "answers": ["A"]}',
            'line 1: id: expected a string, got ["x"]',
        ),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"question": "Q?", "context": "C.", "answers": ["A"], "time_spec": {"kind": "point", "start": 1950, "end": 1951}}',
            "line 1: time_spec.start: expected a string, got 1950",
        ),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"question": "Q?", "context": "C.", "answers": ["A"], "facts": [{"s": "Ada", "r": "e", "o": "B", "start": 1950}]}',
            "line 1: facts[0].start: expected a string, got 1950",
        ),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"question": "Q?", "context": "C.", "answers": ["A"], "facts": [{"s": "Ada", "r": "e", "o": "B", "start": "1950-01\\n"}]}',
            "line 1: facts[0].start: bad year-month literal '1950-01\\n'",
        ),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"question": "Q?", "context": "C.", "answers": ["A"], "time_spec": {"kind": "after", "start": "1950-01"}}',
            "line 1: time_spec.end: expected a string like the other bound, got null",
        ),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"question": "Q?", "context": "C.", "answers": ["A"], "time_spec": {"kind": "before", "start": null, "end": "1950-01"}}',
            "line 1: time_spec.start: expected a string like the other bound, got null",
        ),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"type": "L9", "question": "Q?", "context": "C.", "answers": ["A"]}',
            'line 1: type: expected one of "L2", "L3", "EASY", "HARD", got "L9"',
        ),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"question": "Q?", "context": "C.", "answers": ["A"], "facts": [{"s": "", "r": "e", "o": "B"}]}',
            'line 1: facts[0].s: expected a non-empty value, got ""',
        ),
        (
            ["train-sft", "--train", "{bad}", "--dev", "{bad}", "--out", "{tmp}/p.ckpt"],
            '{"question": "Q?", "context": "C.", "answers": ["A"], "time_spec": {"kind": "sometime"}}',
            'line 1: time_spec.kind: expected one of "point", "range", "before", "after", "during_event", '
            '"first", "last", "none", got "sometime"',
        ),
    ],
    ids=["config_json", "dataset_line", "facts_line", "time_spec_not_object", "fact_not_object",
         "fact_subject_null", "fact_object_number", "record_fact_relation_number", "time_spec_event_list",
         "record_id_list", "time_spec_start_number", "record_fact_start_number", "record_fact_start_newline",
         "time_spec_without_end",
         "time_spec_without_start", "record_type_unknown", "record_fact_subject_empty", "time_spec_kind_unknown"],
)
def test_input_file_errors_name_the_file(capsys, tmp_path, command, content, message):
    bad = tmp_path / "bad_input.json"
    bad.write_text(content + "\n")
    argv = [arg.format(tmp=tmp_path, bad=bad) for arg in command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"{bad}: " in err
    assert message in err


_FACT = {"s": "Ada", "r": "employer", "o": "Mill A", "start": "1950-01", "end": "1955-12"}
_SPEC = {"kind": "range", "start": "1950-01", "end": "1952-12", "event": "War"}
_RECORD = {
    "id": "q1", "type": "L2", "question": "Where did Ada work?", "context": "Ada worked for Mill A.",
    "answers": ["Mill A"], "facts": [_FACT], "time_spec": _SPEC,
}
# Keys that may be null; a time spec's start and end may be null only together.
_NULLABLE = {"id", "time_spec", "start", "end", "event"}
_SHAPES = (
    [("record", key, (key,)) for key in _RECORD]
    + [("record_fact", key, ("facts", 0, key)) for key in _FACT]
    + [("fact_line", key, (key,)) for key in _FACT]
    + [("time_spec", key, ("time_spec", key)) for key in _SPEC]
)


def _json_type(value) -> str:
    kinds = {type(None): "null", bool: "bool", int: "number", str: "string", list: "list", dict: "object"}
    return kinds[type(value)]


@pytest.mark.parametrize("shape, key, path", _SHAPES, ids=[f"{s}.{k}" for s, k, _ in _SHAPES])
def test_every_field_takes_its_json_type_and_names_itself_otherwise(capsys, tmp_path, shape, key, path):
    """Each field set to each JSON type: a value of its own type, or null
    where the key may be null, loads as written; anything else exits 2 and
    names the file, the line and the field path."""
    facts_file = shape == "fact_line"
    bad = tmp_path / "mutated.jsonl"
    for value in (None, True, 1950, "x", ["x"], {"x": 1}):
        line = json.loads(json.dumps(_FACT if facts_file else _RECORD))
        target = line
        for step in path[:-1]:
            target = target[step]
        own = target[key]
        if _json_type(value) == _json_type(own):
            value = own
        target[key] = value
        bad.write_text(json.dumps(line) + "\n")
        one_bound = shape == "time_spec" and key in ("start", "end")
        if value is own or (value is None and key in _NULLABLE and not one_bound):
            if facts_file:
                assert load_facts(bad)[0].to_json_dict() == line
            else:
                loaded = json.loads(serialize_record(load_dataset(bad)[0]))
                if line["id"] is None:
                    line["id"] = "line-1"
                if line["time_spec"] is None:
                    del line["time_spec"]
                assert loaded == line
            continue
        if facts_file:
            argv = ["mine", "--facts", str(bad), "--subject", "Ada", "--relation", "employer"]
        else:
            argv = ["train-sft", "--train", str(bad), "--dev", str(bad), "--out", str(tmp_path / "p.ckpt")]
        code, _, err = run(capsys, *argv)
        field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
        assert code == 2, (key, value)
        assert f"{bad}: line 1: {field}: " in err, (key, value, err)
