"""End-to-end command flows, exit codes, and on-disk artifact formats."""

import csv
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import stepalign
from stepalign.cli import _load_model, _write_alignment_csv, _write_pgm, main
from stepalign.config import (ConfigError, RunConfig, load_run_config,
                              run_config_from_dict, save_run_config)
from stepalign.corpus import Corpus, Segment, read_corpus, write_corpus
from stepalign.encoder import forward
from stepalign.evalkit import blob_detect, merge_reports
from stepalign.taskselect import assign_articles
from stepalign.trainer import evaluate_corpus

from conftest import make_article, make_video

TINY_CONFIG = {
    "corpus": {
        "num_tasks": 2, "steps_per_task": [3, 3], "videos_per_task": 8,
        "frames_range": [32, 64], "dims": [12, 8, 8], "latent_dim": 6,
        "background_dim": 4, "noise_std": 0.0, "p_miss_step": 0.2,
    },
    "model": {
        "model_dim": 16, "num_layers": 1, "num_heads": 2, "mlp_hidden": 16,
        "ffn_dim": 32, "max_frames": 64, "max_narrations": 8,
        "dropout": 0.0,
    },
    "train": {
        "epochs": 3, "batch_size": 4, "base_lr": 5e-3,
        "teacher_pre_epochs": 1, "max_frames": 64,
    },
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One generated corpus and one finished training run, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    corpus_dir = root / "corpus"
    assert main(["generate", "--out", str(corpus_dir), "--config", str(cfg),
                 "--seed", "5"]) == 0
    workdir = root / "run"
    assert main(["train", "--corpus", str(corpus_dir), "--workdir",
                 str(workdir), "--config", str(cfg), "--seed", "5"]) == 0
    return SimpleNamespace(root=root, config=cfg, corpus=corpus_dir,
                           workdir=workdir, ckpt=workdir / "last.ckpt")


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_manifest(ws):
    manifest = json.loads((ws.corpus / "manifest.json").read_text())
    assert manifest["format_version"] == 2
    assert manifest["dims"] == [12, 8, 8]
    assert len(manifest["videos"]) == 16
    assert len(manifest["articles"]) == 2


def test_generate_rejects_malformed_config(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["generate", "--out", str(tmp_path / "c"),
                 "--config", str(bad)]) == 2


def test_generate_rejects_unknown_config_keys(tmp_path):
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps({"corpus": {"frames": 10}}))
    assert main(["generate", "--out", str(tmp_path / "c"),
                 "--config", str(bad)]) == 2


def test_generate_seed_flag_beats_config_seed(tmp_path, ws):
    cfg = tmp_path / "seeded.json"
    seeded = dict(TINY_CONFIG)
    seeded["corpus"] = {**TINY_CONFIG["corpus"], "seed": 999}
    cfg.write_text(json.dumps(seeded))
    out = tmp_path / "c"
    assert main(["generate", "--out", str(out), "--config", str(cfg),
                 "--seed", "5"]) == 0
    ours = json.loads((out / "manifest.json").read_text())
    theirs = json.loads((ws.corpus / "manifest.json").read_text())
    assert ours == theirs


def test_generate_holdout_split(tmp_path, ws):
    out = tmp_path / "split"
    assert main(["generate", "--out", str(out), "--config", str(ws.config),
                 "--holdout-fraction", "0.25"]) == 0
    train_m = json.loads((out / "train" / "manifest.json").read_text())
    eval_m = json.loads((out / "eval" / "manifest.json").read_text())
    assert len(train_m["videos"]) == 12
    assert len(eval_m["videos"]) == 4
    assert main(["generate", "--out", str(tmp_path / "x"),
                 "--config", str(ws.config), "--holdout-fraction", "1.5"]) == 2


# ---------------------------------------------------------------------------
# train


def test_train_artifacts(ws):
    assert ws.ckpt.exists()
    assert not (ws.workdir / "last.ckpt.json").exists()
    assert not (ws.workdir / "last.ckpt.tmp").exists()
    assert (ws.workdir / "pseudo" / "initial.jsonl").exists()
    log = (ws.workdir / "train_log.jsonl").read_text().splitlines()
    entries = [json.loads(l) for l in log]
    assert [e["stage"] for e in entries] == ["teacher"] + ["main"] * 3

    saved = load_run_config(ws.workdir / "run_config.json")
    assert saved.model.feature_dims == (12, 8, 8)  # resolved from the corpus
    assert saved.train.seed == 5


def test_train_with_zero_epochs_names_no_checkpoint(tmp_path, ws, capsys):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(
        {**TINY_CONFIG, "train": {**TINY_CONFIG["train"], "epochs": 0}}))
    workdir = tmp_path / "run"
    assert main(["train", "--corpus", str(ws.corpus), "--workdir", str(workdir),
                 "--config", str(zero), "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "checkpoint:" not in out
    assert "no epoch ran" in out and "no checkpoint written" in out
    assert not workdir.exists() or not any(workdir.iterdir())


def test_train_resume_without_checkpoint_fails(tmp_path, ws):
    assert main(["train", "--corpus", str(ws.corpus), "--workdir",
                 str(tmp_path / "fresh"), "--config", str(ws.config),
                 "--resume"]) == 1


def test_failed_resume_leaves_no_workdir(tmp_path, ws, capsys):
    # the checkpoint is looked for before the workdir is made, so a refused
    # resume leaves no empty directory behind
    workdir = tmp_path / "fresh"
    assert main(["train", "--corpus", str(ws.corpus), "--workdir",
                 str(workdir), "--config", str(ws.config), "--resume"]) == 1
    assert "last.ckpt does not exist" in capsys.readouterr().err
    assert not workdir.exists()


def test_train_resume_with_other_model_config_fails(tmp_path, ws, capsys):
    workdir = tmp_path / "run"
    shutil.copytree(ws.workdir, workdir)
    wider = tmp_path / "wider.json"
    wider.write_text(json.dumps(
        {**TINY_CONFIG, "model": {**TINY_CONFIG["model"], "ffn_dim": 64}}))
    assert main(["train", "--corpus", str(ws.corpus), "--workdir", str(workdir),
                 "--config", str(wider), "--seed", "5", "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model_config" in err


@pytest.mark.parametrize("seed, ffn_dim", [("6", 32), ("5", 64)])
def test_rejected_resume_leaves_run_config(tmp_path, ws, capsys, seed, ffn_dim):
    workdir = tmp_path / "run"
    shutil.copytree(ws.workdir, workdir)
    before = (workdir / "run_config.json").read_bytes()
    other = tmp_path / "other.json"
    other.write_text(json.dumps(
        {**TINY_CONFIG, "model": {**TINY_CONFIG["model"], "ffn_dim": ffn_dim}}))
    assert main(["train", "--corpus", str(ws.corpus), "--workdir", str(workdir),
                 "--config", str(other), "--seed", seed, "--resume"]) == 1
    assert "checkpoint != this run" in capsys.readouterr().err
    assert (workdir / "run_config.json").read_bytes() == before


@pytest.mark.parametrize("problem", ["other_dims", "no_task_ids", "no_ground_truth"])
def test_train_checks_the_eval_corpus_before_its_first_epoch(tmp_path, ws, capsys,
                                                             problem):
    # all three used to surface only after the teacher stage and one main
    # epoch, or never: other dims as an uncaught numpy ValueError, missing
    # task ids as a scoring error about a step matrix with 0 rows, missing
    # ground truth as main epochs logged without eval_* keys; and each
    # rejected run left the run_config.json it had written first
    eval_dir = tmp_path / "eval"
    if problem == "other_dims":
        cfg = tmp_path / "narrow.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "corpus": {
            **TINY_CONFIG["corpus"], "dims": [10, 6, 6], "latent_dim": 4,
            "background_dim": 2}}))
        assert main(["generate", "--out", str(eval_dir), "--config", str(cfg)]) == 0
    else:
        shutil.copytree(ws.corpus, eval_dir)
        manifest = json.loads((eval_dir / "manifest.json").read_text())
        for video in manifest["videos"]:
            if problem == "no_task_ids":
                video["task_id"] = None
            else:
                video["gt_segments"] = video["gt_narration_steps"] = None
        (eval_dir / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    workdir = tmp_path / "run"
    assert main(["train", "--corpus", str(ws.corpus), "--workdir", str(workdir),
                 "--config", str(ws.config), "--eval-corpus", str(eval_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if problem == "no_ground_truth":
        assert "no step ground truth" in err
        # `stepalign eval` refuses the same corpus alike
        assert main(["eval", "--corpus", str(eval_dir),
                     "--checkpoint", str(ws.ckpt)]) == 3
        assert "no step ground truth" in capsys.readouterr().err
    assert not (workdir / "train_log.jsonl").exists()
    assert not (workdir / "run_config.json").exists()


def test_train_rejects_a_corpus_too_long_for_the_step_table(tmp_path, ws, capsys):
    # 18 steps do not fit the 16-row text table that steps share with
    # narrations: a run that failed in an epoch used to have emptied the log
    # of the run in its workdir, deleted that run's labels and written its
    # own run_config.json
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({
        "corpus": {"num_tasks": 2, "videos_per_task": 3,
                   "steps_per_task": [18, 18], "frames_range": [40, 48],
                   "seed": 1},
        "model": {"model_dim": 16, "num_layers": 1, "num_heads": 2,
                  "max_narrations": 16},
        "train": {"epochs": 2, "teacher_pre_epochs": 1}}))
    corpus = tmp_path / "corpus"
    assert main(["generate", "--out", str(corpus), "--config", str(cfg)]) == 0
    workdir = tmp_path / "run"
    shutil.copytree(ws.workdir, workdir)
    before = {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["train", "--corpus", str(corpus), "--workdir", str(workdir),
                 "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert "step count 18 exceeds positional table size 16" in captured.err
    assert captured.out == ""
    assert {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()} == before


def test_train_missing_corpus_is_data_error(tmp_path, ws):
    assert main(["train", "--corpus", str(tmp_path / "nowhere"),
                 "--workdir", str(tmp_path / "w"),
                 "--config", str(ws.config)]) == 4


# ---------------------------------------------------------------------------
# eval


def test_eval_reports_metrics(ws, capsys):
    assert main(["eval", "--corpus", str(ws.corpus),
                 "--checkpoint", str(ws.ckpt)]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    names = {l.split()[0] for l in lines}
    assert {"step_r1", "recall@1_iou0.5", "narration_r1",
            "narration_r1_timestamp"} <= names
    for line in lines:
        name, value, ratio = line.split()
        assert 0.0 <= float(value) <= 1.0
        assert ratio.startswith("(") and "/" in ratio


def test_train_log_eval_matches_cli_eval(tmp_path, capsys):
    # eval videos longer than train.max_frames: the per-epoch eval in the log
    # must score them whole, as `stepalign eval` does on the same checkpoint
    long_videos = {
        **TINY_CONFIG,
        "corpus": {**TINY_CONFIG["corpus"], "frames_range": [150, 220]},
        "model": {**TINY_CONFIG["model"], "max_frames": 256},
        "train": {**TINY_CONFIG["train"], "epochs": 1},
    }
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(long_videos))
    data, workdir = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--out", str(data), "--config", str(cfg),
                 "--seed", "3", "--holdout-fraction", "0.5"]) == 0
    assert main(["train", "--corpus", str(data / "train"), "--workdir",
                 str(workdir), "--config", str(cfg),
                 "--eval-corpus", str(data / "eval")]) == 0
    capsys.readouterr()
    assert main(["eval", "--corpus", str(data / "eval"), "--checkpoint",
                 str(workdir / "last.ckpt"), "--batch-size",
                 str(long_videos["train"]["batch_size"])]) == 0
    printed = {l.split()[0]: l.split()[1]
               for l in capsys.readouterr().out.splitlines() if l}
    logged = json.loads((workdir / "train_log.jsonl").read_text().splitlines()[-1])
    assert {"step_r1", "narration_r1_timestamp"} <= set(printed)
    assert printed == {name: f"{logged['eval_' + name]:.6f}" for name in printed}

    # the loop train() logs with, given another matrix and k, prints what
    # `stepalign eval` prints with the same flags
    assert main(["eval", "--corpus", str(data / "eval"), "--checkpoint",
                 str(workdir / "last.ckpt"), "--batch-size",
                 str(long_videos["train"]["batch_size"]), "--matrix",
                 "direct_sv", "--k", "1", "--k", "3", "--iou", "0.3"]) == 0
    printed = [l for l in capsys.readouterr().out.splitlines() if l]
    params, model_config = _load_model(str(workdir / "last.ckpt"))
    per_video = evaluate_corpus(params, model_config, read_corpus(data / "eval"),
                                long_videos["train"]["batch_size"],
                                matrix="direct_sv", ks=[1, 3],
                                iou_thresholds=[0.3])
    merged = merge_reports(r for d in per_video.values() for r in d.values())
    assert "recall@3_iou0.3" in merged
    assert printed == [f"{name} {r.value:.6f} ({r.numerator:g}/{r.denominator:g})"
                       for name, r in merged.items()]


def test_eval_deterministic_and_matrix_choice(ws, capsys):
    args = ["eval", "--corpus", str(ws.corpus), "--checkpoint", str(ws.ckpt)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert main(args + ["--matrix", "direct_sv"]) == 0
    capsys.readouterr()
    assert main(args + ["--no-narrations"]) == 0
    stripped = capsys.readouterr().out
    assert "narration_r1" not in stripped  # nothing left to judge narrations on


def test_eval_picks_tasks_before_stripping_narrations(ws, capsys):
    # top1 votes with the narrations; stripped first, every video tied at
    # zero votes and was scored against the first article
    assert assign_articles(read_corpus(ws.corpus), "top1") == assign_articles(
        read_corpus(ws.corpus), "metadata")
    args = ["eval", "--corpus", str(ws.corpus), "--checkpoint", str(ws.ckpt),
            "--no-narrations"]
    assert main(args) == 0
    by_metadata = capsys.readouterr().out
    assert main(args + ["--task-strategy", "top1"]) == 0
    assert capsys.readouterr().out == by_metadata


def test_eval_per_video_csv(ws, tmp_path, capsys):
    path = tmp_path / "per_video.csv"
    assert main(["eval", "--corpus", str(ws.corpus), "--checkpoint",
                 str(ws.ckpt), "--per-video", str(path)]) == 0
    capsys.readouterr()
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["video_id", "metric", "numerator", "denominator"]
    assert len(rows) > 16  # at least one metric row per video
    assert all(len(r) == 4 for r in rows[1:])


def test_eval_k_and_iou_flags(ws, capsys):
    assert main(["eval", "--corpus", str(ws.corpus), "--checkpoint",
                 str(ws.ckpt), "--k", "1", "--k", "3", "--iou", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "recall@1_iou0.3" in out and "recall@3_iou0.3" in out
    assert "iou0.5" not in out


@pytest.mark.parametrize("flag, value", [
    ("--batch-size", "0"), ("--k", "0"), ("--iou", "2"), ("--iou", "0"),
])
def test_eval_bad_numeric_argument_is_config_error(ws, capsys, flag, value):
    # --batch-size 0 used to exit 4, as if the data were at fault; --k 0 and
    # --iou 2 printed a recall of 0 and exited 0
    assert main(["eval", "--corpus", str(ws.corpus), "--checkpoint",
                 str(ws.ckpt), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


def test_eval_requires_checkpoint_or_predictions(ws, capsys):
    assert main(["eval", "--corpus", str(ws.corpus)]) == 2


def test_eval_rejects_per_video_with_predictions(tmp_path, capsys):
    # a predictions file is scored as a whole: this exited 0 and wrote no
    # per-video file; it is a usage error now, raised before the corpus or
    # the file is read, so neither needs to exist here
    out = tmp_path / "per_video.csv"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--corpus", str(tmp_path / "nowhere"),
              "--predictions", str(tmp_path / "missing.jsonl"),
              "--per-video", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--per-video" in captured.err and "--predictions" in captured.err
    assert not out.exists()


def test_eval_bad_checkpoint_is_data_error(ws, tmp_path, capsys):
    fake = tmp_path / "junk.ckpt"
    fake.write_bytes(b"not a checkpoint")
    assert main(["eval", "--corpus", str(ws.corpus),
                 "--checkpoint", str(fake)]) == 4


def test_eval_dims_mismatch_is_protocol_error(ws, tmp_path, capsys):
    other = tmp_path / "narrow"
    cfg = tmp_path / "narrow.json"
    narrow = dict(TINY_CONFIG)
    narrow["corpus"] = {**TINY_CONFIG["corpus"], "dims": [10, 6, 6],
                        "latent_dim": 4, "background_dim": 2}
    cfg.write_text(json.dumps(narrow))
    assert main(["generate", "--out", str(other), "--config", str(cfg)]) == 0
    assert main(["eval", "--corpus", str(other),
                 "--checkpoint", str(ws.ckpt)]) == 3


def test_checkpoint_with_an_unknown_model_key_is_protocol_error(ws, tmp_path, capsys):
    from stepalign.encoder import load_checkpoint, save_checkpoint
    arrays, meta = load_checkpoint(ws.ckpt)
    meta["model_config"]["pe_for_steps"] = False
    ckpt = tmp_path / "old.ckpt"
    save_checkpoint(ckpt, arrays, meta=meta)
    video = json.loads((ws.corpus / "manifest.json").read_text())["videos"][0]["id"]
    for argv in (["eval", "--corpus", str(ws.corpus)],
                 ["infer", "--corpus", str(ws.corpus), "--video", video,
                  "--out", str(tmp_path / "out")]):
        assert main(argv + ["--checkpoint", str(ckpt)]) == 3
        assert "pe_for_steps" in capsys.readouterr().err


def test_a_config_or_checkpoint_naming_max_steps_is_refused(ws, tmp_path, capsys):
    # steps share the narration encoder now; a checkpoint written before,
    # with its own step MLP and step table, must not load with them swapped
    from stepalign.encoder import load_checkpoint, save_checkpoint
    workdir = tmp_path / "run"
    shutil.copytree(ws.workdir, workdir)
    ckpt = workdir / "last.ckpt"
    arrays, meta = load_checkpoint(ckpt)
    meta["model_config"]["max_steps"] = 4
    arrays.update({k.replace("mlp_n.", "mlp_s."): v for k, v in arrays.items()
                   if k.startswith("mlp_n.")})
    arrays["pos_s"] = arrays["pos_n"][:4]
    save_checkpoint(ckpt, arrays, meta=meta)
    assert main(["train", "--corpus", str(ws.corpus), "--workdir", str(workdir),
                 "--config", str(ws.config), "--seed", "5", "--resume"]) == 1
    assert "model_config.max_steps 4 != None" in capsys.readouterr().err
    video = json.loads((ws.corpus / "manifest.json").read_text())["videos"][0]["id"]
    for argv in (["eval", "--corpus", str(ws.corpus)],
                 ["infer", "--corpus", str(ws.corpus), "--video", video,
                  "--out", str(tmp_path / "out")]):
        assert main(argv + ["--checkpoint", str(ckpt)]) == 3
        assert "unknown keys ['max_steps']" in capsys.readouterr().err
    old = tmp_path / "old.json"
    old.write_text(json.dumps(
        {**TINY_CONFIG, "model": {**TINY_CONFIG["model"], "max_steps": 4}}))
    assert main(["train", "--corpus", str(ws.corpus), "--workdir",
                 str(tmp_path / "fresh"), "--config", str(old)]) == 2
    assert "unknown keys ['max_steps']" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


def test_checkpoint_with_a_wrong_typed_model_value_is_protocol_error(ws, tmp_path,
                                                                     capsys):
    from stepalign.encoder import load_checkpoint, save_checkpoint
    arrays, meta = load_checkpoint(ws.ckpt)
    meta["model_config"]["num_heads"] = "2"
    ckpt = tmp_path / "typed.ckpt"
    save_checkpoint(ckpt, arrays, meta=meta)
    assert main(["eval", "--corpus", str(ws.corpus), "--checkpoint", str(ckpt)]) == 3
    assert "num_heads" in capsys.readouterr().err


def no_gt_corpus(tmp_path):
    art = make_article("bake", 2, d_s=8)
    rng = np.random.default_rng(0)
    video = make_video("v0", rng.normal(size=(16, 12)).astype(np.float32),
                       [Segment(0, 3)], task_id=None, d_n=8)
    corpus = Corpus((video,), {"bake": art}, (12, 8, 8))
    path = tmp_path / "nogt"
    write_corpus(corpus, path)
    return path


def test_eval_without_ground_truth_is_protocol_error(ws, tmp_path, capsys):
    path = no_gt_corpus(tmp_path)
    # the default metadata strategy rejects its video, which has no task_id
    assert main(["eval", "--corpus", str(path), "--checkpoint", str(ws.ckpt)]) == 3
    assert "task_id" in capsys.readouterr().err
    assert main(["eval", "--corpus", str(path), "--checkpoint", str(ws.ckpt),
                 "--task-strategy", "top1"]) == 3


def test_eval_predictions_path(ws, tmp_path, capsys):
    manifest = json.loads((ws.corpus / "manifest.json").read_text())
    rows = []
    for v in manifest["videos"]:
        for step, segs in v["gt_segments"].items():
            rows.append({"video_id": v["id"], "step": int(step),
                         "segments": segs})
    preds = tmp_path / "preds.jsonl"
    preds.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(["eval", "--corpus", str(ws.corpus),
                 "--predictions", str(preds)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("recall@1_iou0.5 1.000000")


def test_eval_rejects_checkpoint_with_predictions(ws, tmp_path, capsys):
    # predictions are scored without a model, so a checkpoint next to them
    # would go unread, even one that does not exist
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"video_id": first_video_id(ws), "step": 0,
                                 "segments": [[0, 1]]}) + "\n")
    assert main(["eval", "--corpus", str(ws.corpus), "--predictions",
                 str(preds), "--checkpoint", str(tmp_path / "missing.ckpt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--checkpoint" in captured.err and "--predictions" in captured.err


# ---------------------------------------------------------------------------
# infer


def first_video_id(ws):
    manifest = json.loads((ws.corpus / "manifest.json").read_text())
    return manifest["videos"][0]["id"]


def test_infer_emits_all_artifacts(ws, tmp_path, capsys):
    vid = first_video_id(ws)
    out = tmp_path / "out"
    assert main(["infer", "--corpus", str(ws.corpus), "--checkpoint",
                 str(ws.ckpt), "--video", vid, "--out", str(out)]) == 0
    assert (out / f"{vid}.alignment.csv").exists()
    assert (out / f"{vid}.fused.pgm").exists()
    assert (out / f"{vid}.segments.jsonl").exists()


def test_infer_csv_matches_model_scores(ws, tmp_path, capsys):
    from stepalign.cli import _load_model
    from stepalign.corpus import LabelSource, batch_iter, read_corpus

    vid = first_video_id(ws)
    out = tmp_path / "out"
    assert main(["infer", "--corpus", str(ws.corpus), "--checkpoint",
                 str(ws.ckpt), "--video", vid, "--out", str(out),
                 "--emit", "csv", "--emit", "segments"]) == 0

    params, mc = _load_model(str(ws.ckpt))
    corpus = read_corpus(ws.corpus)
    video = corpus.video_by_id(vid)
    sub = Corpus((video,), corpus.articles, corpus.dims)
    batch = next(batch_iter(sub, 1, mc.max_frames, None,
                            LabelSource.ASR_TIMESTAMPS))
    fused = forward(params, mc, batch)[0].a_fused

    with open(out / f"{vid}.alignment.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["row", "frame", "score"]
    assert len(rows) == 1 + fused.size
    for r, c, score in rows[1:]:
        assert abs(float(score) - fused[int(r), int(c)]) < 1e-6

    seg_rows = [json.loads(l) for l in
                (out / f"{vid}.segments.jsonl").read_text().splitlines()]
    assert [r["step"] for r in seg_rows] == list(range(fused.shape[0]))
    blobs = blob_detect(fused[0], 0.0, 0.7)
    assert seg_rows[0]["segments"] == [[s.start, s.end] for s, _ in blobs]
    assert not (out / f"{vid}.fused.pgm").exists()  # not requested


@pytest.mark.parametrize("zeta", ["-1", "0", "2"])
def test_infer_zeta_outside_unit_interval_is_config_error(ws, tmp_path, capsys,
                                                          zeta):
    # --zeta -1 emitted one whole-video segment for every step and exited 0,
    # --zeta 2 single-frame segments
    out = tmp_path / "o"
    assert main(["infer", "--corpus", str(ws.corpus), "--checkpoint",
                 str(ws.ckpt), "--video", first_video_id(ws), "--out",
                 str(out), "--zeta", zeta]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--zeta" in captured.err
    assert not out.exists()


def test_infer_min_score_nan_is_config_error(ws, tmp_path, capsys):
    # nan seeded nothing: every step's segments were [] and infer exited 0
    out = tmp_path / "o"
    assert main(["infer", "--corpus", str(ws.corpus), "--checkpoint",
                 str(ws.ckpt), "--video", first_video_id(ws), "--out",
                 str(out), "--min-score", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--min-score" in captured.err
    assert not out.exists()


def test_infer_accepts_zeta_one(ws, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["infer", "--corpus", str(ws.corpus), "--checkpoint",
                 str(ws.ckpt), "--video", first_video_id(ws), "--out",
                 str(out), "--zeta", "1.0", "--emit", "segments"]) == 0
    rows = (out / f"{first_video_id(ws)}.segments.jsonl").read_text().splitlines()
    assert rows and all(json.loads(r)["segments"] for r in rows)


def test_infer_unknown_video_is_data_error(ws, tmp_path, capsys):
    assert main(["infer", "--corpus", str(ws.corpus), "--checkpoint",
                 str(ws.ckpt), "--video", "missing", "--out",
                 str(tmp_path / "o")]) == 4


def test_infer_unknown_task_is_protocol_error(ws, tmp_path, capsys):
    assert main(["infer", "--corpus", str(ws.corpus), "--checkpoint",
                 str(ws.ckpt), "--video", first_video_id(ws),
                 "--task", "nonsense", "--out", str(tmp_path / "o")]) == 3


def test_infer_needs_task_when_metadata_missing(ws, tmp_path, capsys):
    path = no_gt_corpus(tmp_path)
    out = tmp_path / "o"
    assert main(["infer", "--corpus", str(path), "--checkpoint", str(ws.ckpt),
                 "--video", "v0", "--out", str(out)]) == 3
    assert main(["infer", "--corpus", str(path), "--checkpoint", str(ws.ckpt),
                 "--video", "v0", "--task", "bake", "--out", str(out)]) == 0


# ---------------------------------------------------------------------------
# golden bytes for the writers


def test_pgm_golden_bytes(tmp_path):
    path = tmp_path / "g.pgm"
    _write_pgm(path, np.array([[1.0, -1.0, 0.0]]))
    assert path.read_bytes() == b"P5\n3 1\n255\n" + bytes([255, 0, 128])


def test_alignment_csv_golden_bytes(tmp_path):
    path = tmp_path / "g.csv"
    _write_alignment_csv(path, np.array([[0.1234567, -1.0]]))
    assert path.read_bytes() == (b"row,frame,score\r\n"
                                 b"0,0,0.123457\r\n"
                                 b"0,1,-1.000000\r\n")


# ---------------------------------------------------------------------------
# run configuration


def test_run_config_round_trip(tmp_path):
    cfg = run_config_from_dict(TINY_CONFIG)
    path = tmp_path / "rc.json"
    save_run_config(cfg, path)
    assert load_run_config(path) == cfg


def test_run_config_defaults_and_strictness():
    assert run_config_from_dict({}) == RunConfig()
    with pytest.raises(ConfigError, match="unknown sections"):
        run_config_from_dict({"optimizer": {}})
    with pytest.raises(ConfigError, match="unknown keys"):
        run_config_from_dict({"train": {"lr": 0.1}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"train": {"epochs": -3}})  # fails validation


NAN_FIELDS = [("corpus", "noise_std"), ("model", "xi"), ("train", "base_lr"),
              ("train", "eps"), ("train", "teacher_lr"), ("train", "weight_decay"),
              ("train", "grad_clip"), ("loss", "eta"), ("loss", "lambda_nv"),
              ("loss", "lambda_sv"), ("pseudo", "gamma")]


@pytest.mark.parametrize("section,name", NAN_FIELDS,
                         ids=[f"{s}.{n}" for s, n in NAN_FIELDS])
def test_nan_config_value_is_config_error(ws, tmp_path, capsys, section, name):
    # json reads NaN, and NaN fails every comparison, so a check written as
    # "value < 0 is an error" lets it through; gamma NaN discards every row
    data = {section: {name: float("nan")}}
    with pytest.raises(ConfigError, match=name):
        run_config_from_dict(data)
    config = tmp_path / "nan.json"
    config.write_text(json.dumps(data))
    workdir = tmp_path / "run"
    assert main(["train", "--corpus", str(ws.corpus), "--workdir", str(workdir),
                 "--config", str(config)]) == 2
    assert name in capsys.readouterr().err
    assert not workdir.exists()


WRONG_TYPES = [{"train": {"base_lr": "0.01"}}, {"model": {"num_heads": "4"}},
               {"train": {"epochs": 2.5}}]


@pytest.mark.parametrize("data", WRONG_TYPES,
                         ids=["str_for_float", "str_for_int", "float_for_int"])
def test_wrong_typed_config_value_is_config_error(ws, tmp_path, capsys, data):
    # a string reached validate()'s comparisons and raised TypeError, exit 1;
    # a float epoch count passed validate() and failed in train()
    [(section, values)] = data.items()
    [name] = values
    config = tmp_path / "typed.json"
    config.write_text(json.dumps(data))
    out, workdir = tmp_path / "corpus", tmp_path / "run"
    assert main(["generate", "--out", str(out), "--config", str(config)]) == 2
    assert f"{section}.{name}" in capsys.readouterr().err
    assert main(["train", "--corpus", str(ws.corpus), "--workdir", str(workdir),
                 "--config", str(config)]) == 2
    assert f"{section}.{name}" in capsys.readouterr().err
    assert not out.exists() and not workdir.exists()


@pytest.mark.parametrize("name", ["burn_in_epochs", "refresh_every"])
def test_removed_refresh_schedule_keys_are_config_errors(ws, tmp_path, capsys, name):
    # training labels the corpus once, so a config written for the refresh
    # schedule is refused by name rather than run as something else
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"pseudo": {name: 3}}))
    workdir = tmp_path / "run"
    assert main(["train", "--corpus", str(ws.corpus), "--workdir", str(workdir),
                 "--config", str(config)]) == 2
    assert f"unknown keys ['{name}']" in capsys.readouterr().err
    assert not workdir.exists()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", "somewhere"])  # --workdir missing
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# dependencies

# None in sys.modules makes every import of scipy and its submodules raise
NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None
from stepalign.cli import main
config, corpus, run = sys.argv[1:]
for argv in (["generate", "--out", corpus, "--config", config, "--seed", "2"],
             ["train", "--corpus", corpus, "--workdir", run, "--config", config],
             ["infer", "--corpus", corpus, "--checkpoint", run + "/last.ckpt",
              "--video", "<first>", "--out", run + "/infer"]):
    if "<first>" in argv:
        with open(corpus + "/manifest.json") as f:
            argv[argv.index("<first>")] = json.load(f)["videos"][0]["id"]
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_commands_run_without_scipy(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_CONFIG))
    src = Path(stepalign.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(config), str(tmp_path / "corpus"),
         str(tmp_path / "run")], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "infer").is_dir()


# ---------------------------------------------------------------------------
# documentation


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    block = README.read_text().split("## Quick start", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert [c[:2] for c in commands] == [
        ["stepalign", cmd] for cmd in ("generate", "train", "eval", "infer")]

    monkeypatch.chdir(tmp_path)
    Path("tiny.json").write_text(json.dumps(TINY_CONFIG))
    for argv in commands:
        argv = argv[1:]
        if argv[0] in ("generate", "train"):
            argv += ["--config", "tiny.json"]
        if "<video-id>" in argv:
            corpus = Path(argv[argv.index("--corpus") + 1])
            manifest = json.loads((corpus / "manifest.json").read_text())
            argv[argv.index("<video-id>")] = manifest["videos"][0]["id"]
        assert main(argv) == 0, argv


def test_readme_config_example_loads():
    block = README.read_text().split("## Configuration", 1)[1]
    block = block.split("```json\n", 1)[1].split("```", 1)[0]
    config = run_config_from_dict(json.loads(block), where="README")
    assert config == RunConfig()  # the README says it shows the defaults
