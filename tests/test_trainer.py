"""Optimizer math, schedule, and the two-stage training loop end to end."""

import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stepalign.autodiff import Tensor
from stepalign.corpus import Corpus, CorpusError, SynthConfig, generate_synthetic
from stepalign.encoder import ModelConfig, ModelError, forward, init_params
from stepalign.objective import LossConfig
from stepalign.pseudolabel import PseudoConfig, PseudoLabelSet
from stepalign.trainer import (
    OptimizerState,
    TrainConfig,
    TrainError,
    adamw_step,
    cosine_lr,
    train,
)

from conftest import one_batch


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 100, 0.1) == pytest.approx(0.1)
    assert cosine_lr(100, 100, 0.1) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(50, 100, 0.1) == pytest.approx(0.05)
    assert cosine_lr(250, 100, 0.1) == pytest.approx(0.0, abs=1e-18)  # clamped
    with pytest.raises(TrainError):
        cosine_lr(0, 0, 0.1)


def test_cosine_schedule_monotone():
    lrs = [cosine_lr(s, 40, 1.0) for s in range(41)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


# ---------------------------------------------------------------------------
# AdamW


def single_param(value, dtype=np.float64):
    return {"w": Tensor(np.array([[value]], dtype=dtype), requires_grad=True)}


def test_zero_gradient_without_decay_is_identity():
    params = single_param(0.7)
    state = OptimizerState.fresh(params)
    adamw_step(params, {"w": np.zeros((1, 1))}, state, 0.1,
               TrainConfig(weight_decay=0.0))
    assert params["w"].data[0, 0] == 0.7
    assert state.step == 1


def test_decay_is_decoupled_and_exact():
    # zero gradient isolates the decay path: w <- w * (1 - lr * wd)
    params = single_param(2.0)
    state = OptimizerState.fresh(params)
    adamw_step(params, {"w": np.zeros((1, 1))}, state, 0.1,
               TrainConfig(weight_decay=0.1))
    assert params["w"].data[0, 0] == 2.0 * (1.0 - 0.01)


def test_first_step_update_closed_form():
    # at w=0 the decay term vanishes; bias correction cancels on step one,
    # leaving delta = -lr * g / (|g| + eps) = -lr / (1 + eps) for unit g
    params = single_param(0.0)
    state = OptimizerState.fresh(params)
    adamw_step(params, {"w": np.ones((1, 1))}, state, 1e-3, TrainConfig())
    expected = -1e-3 / (1.0 + 1e-8)
    assert params["w"].data[0, 0] == pytest.approx(expected, abs=1e-15)


def test_clipping_rescales_the_whole_vector():
    cfg = TrainConfig(grad_clip=1.0)
    a = single_param(0.0)
    b = single_param(0.0)
    norm = adamw_step(a, {"w": np.full((1, 1), 100.0)},
                      OptimizerState.fresh(a), 1e-3, cfg)
    adamw_step(b, {"w": np.ones((1, 1))}, OptimizerState.fresh(b), 1e-3, cfg)
    assert norm == pytest.approx(100.0)  # reported norm is pre-clip
    assert a["w"].data[0, 0] == pytest.approx(b["w"].data[0, 0], abs=1e-15)


def test_clip_spans_parameters_jointly():
    # two parameters at norm sqrt(2) * 10 each get the same scale factor
    params = {"a": Tensor(np.zeros((1, 1)), requires_grad=True),
              "b": Tensor(np.zeros((1, 1)), requires_grad=True)}
    state = OptimizerState.fresh(params)
    grads = {"a": np.full((1, 1), 10.0), "b": np.full((1, 1), 10.0)}
    norm = adamw_step(params, grads, state, 1e-3, TrainConfig(grad_clip=1.0))
    assert norm == pytest.approx(math.sqrt(200.0))
    # identical clipped gradients give identical updates
    assert params["a"].data[0, 0] == params["b"].data[0, 0]


def test_non_finite_gradient_names_parameter():
    params = single_param(0.0)
    with pytest.raises(TrainError, match="'w'"):
        adamw_step(params, {"w": np.full((1, 1), np.nan)},
                   OptimizerState.fresh(params), 1e-3, TrainConfig())


def test_config_validation():
    for bad in (TrainConfig(epochs=-1), TrainConfig(batch_size=0),
                TrainConfig(base_lr=0.0), TrainConfig(beta1=1.0),
                TrainConfig(weight_decay=-0.1), TrainConfig(grad_clip=0.0),
                TrainConfig(teacher_pre_epochs=-1), TrainConfig(teacher_lr=0.0)):
        with pytest.raises(TrainError):
            bad.validate()
    TrainConfig().validate()
    assert TrainConfig(base_lr=3e-4).resolved_teacher_lr() == 3e-4
    assert TrainConfig(teacher_lr=1e-5).resolved_teacher_lr() == 1e-5


# ---------------------------------------------------------------------------
# the full loop on a tiny noiseless corpus


def tiny_corpus(seed=7):
    return generate_synthetic(SynthConfig(
        num_tasks=2, steps_per_task=(3, 3), videos_per_task=10,
        frames_range=(32, 64), noise_std=0.0, p_miss_step=0.2, seed=seed))


def tiny_model(dims):
    return ModelConfig(feature_dims=dims, model_dim=16, num_layers=1,
                       num_heads=2, mlp_hidden=16, ffn_dim=32,
                       max_frames=64, max_narrations=8, dropout=0.0)


def tiny_train_cfg(**kw):
    base = dict(epochs=5, batch_size=4, base_lr=5e-3, weight_decay=0.001,
                teacher_pre_epochs=2, max_frames=64, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def run_tiny(seed=0, workdir=None, resume=False, **kw):
    corpus = tiny_corpus()
    return train(corpus, tiny_model(corpus.dims), tiny_train_cfg(seed=seed, **kw),
                 LossConfig(), PseudoConfig(),
                 workdir=workdir, resume=resume)


def test_zero_epochs_is_a_no_op():
    corpus = tiny_corpus()
    mc = tiny_model(corpus.dims)
    result = train(corpus, mc, tiny_train_cfg(epochs=0), LossConfig(),
                   PseudoConfig())
    fresh = init_params(mc, 0)
    assert result.history == [] and result.labels is None
    assert set(result.params) == set(fresh)
    for name in fresh:
        assert np.array_equal(result.params[name].data, fresh[name].data)


def test_empty_corpus_rejected():
    from stepalign.corpus import Corpus
    corpus = Corpus((), {}, (4, 3, 3))
    with pytest.raises(TrainError, match="empty"):
        train(corpus, tiny_model((4, 3, 3)), tiny_train_cfg(), LossConfig(),
              PseudoConfig())


def test_same_seed_runs_are_identical():
    a = run_tiny(seed=3)
    b = run_tiny(seed=3)
    assert [e["loss"] for e in a.history] == [e["loss"] for e in b.history]
    for name in a.params:
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes()


def test_fresh_runs_agree_bit_for_bit_with_dropout():
    # backward frees the graph while it walks it; the updates must not move
    corpus = tiny_corpus()
    mc = replace(tiny_model(corpus.dims), dropout=0.1)
    runs = [train(corpus, mc, tiny_train_cfg(epochs=2, teacher_pre_epochs=1, seed=8),
                  LossConfig(), PseudoConfig())
            for _ in range(2)]
    assert runs[0].opt_state.step == runs[1].opt_state.step > 0
    for name, p in runs[0].params.items():
        assert np.array_equal(p.data, runs[1].params[name].data)
        assert np.array_equal(runs[0].opt_state.v[name], runs[1].opt_state.v[name])


def test_each_stage_holds_only_its_own_optimizer_moments(monkeypatch):
    import weakref
    from stepalign import trainer
    real, made, stages = trainer.OptimizerState.fresh, [], []

    def fresh(params):
        state = real(params)
        made.append((len(stages), weakref.ref(state)))
        return state

    def log(entry):
        stages.append(entry["stage"])
        if stages == ["teacher", "teacher", "main"]:
            (teacher_at, teacher), (main_at, main) = made
            assert (teacher_at, main_at) == (0, 2)
            assert teacher() is None and main() is not None
    monkeypatch.setattr(trainer.OptimizerState, "fresh", staticmethod(fresh))
    corpus = tiny_corpus()
    train(corpus, tiny_model(corpus.dims), tiny_train_cfg(epochs=1), LossConfig(),
          PseudoConfig(), log_fn=log)
    assert stages == ["teacher", "teacher", "main"]


def test_loss_decreases_on_noiseless_corpus():
    ok = 0
    for seed in range(5):
        result = run_tiny(seed=seed)
        main = [e["loss"] for e in result.history if e["stage"] == "main"]
        assert len(main) == 5
        ok += all(a > b for a, b in zip(main, main[1:]))
    assert ok >= 4, f"loss decreased monotonically in only {ok}/5 seeds"


def test_history_schedule_and_structure(tmp_path):
    result = run_tiny(seed=1, workdir=tmp_path)
    teacher = [e for e in result.history if e["stage"] == "teacher"]
    main = [e for e in result.history if e["stage"] == "main"]
    assert [e["epoch"] for e in teacher] == [0, 1]
    assert [e["epoch"] for e in main] == [0, 1, 2, 3, 4]
    for e in main:
        assert 0.0 <= e["pseudo_coverage"] <= 1.0
        assert {"loss", "grad_norm", "lr", "rows_sv"} <= set(e)
        assert "teacher" not in e
    # the logged total splits into its two weighted terms (both weights 1);
    # the teacher has no step labels, so its step-video term is exactly 0
    for e in result.history:
        assert e["loss"] == pytest.approx(e["loss_nv"] + e["loss_sv"], rel=1e-9)
    assert all(e["loss_sv"] == 0.0 for e in teacher)
    assert all(e["loss_sv"] > 0.0 for e in main)
    # every main epoch trains on the teacher's one label set
    assert len({e["pseudo_coverage"] for e in main}) == 1

    log_lines = (tmp_path / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == len(result.history)
    assert json.loads(log_lines[0])["stage"] == "teacher"
    assert sorted(p.name for p in (tmp_path / "pseudo").iterdir()) == ["initial.jsonl"]
    saved = PseudoLabelSet.load_jsonl(tmp_path / "pseudo" / "initial.jsonl")
    assert saved.meta == {"epoch": 0}
    assert ([(l.video_id, l.step, l.segment) for l in saved]
            == [(l.video_id, l.step, l.segment) for l in result.labels])
    assert (tmp_path / "last.ckpt").exists()


def test_checkpoint_reproduces_forward_pass(tmp_path):
    from stepalign.trainer import load_train_checkpoint
    result = run_tiny(seed=2, workdir=tmp_path)
    params, state, meta = load_train_checkpoint(tmp_path / "last.ckpt")
    assert meta["next_epoch"] == 5
    assert state.step == result.opt_state.step
    corpus = tiny_corpus()
    batch = one_batch(corpus, batch_size=4, max_frames=64)
    mc = tiny_model(corpus.dims)
    a = forward(result.params, mc, batch)
    b = forward(params, mc, batch)
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        assert np.array_equal(x.a_fused, y.a_fused)


def test_resume_matches_uninterrupted_run(tmp_path):
    straight = run_tiny(seed=4, workdir=tmp_path / "straight")

    class Interrupted(Exception):
        pass

    def crash_mid_run(entry):
        # the epoch-2 checkpoint is written after this hook, so resuming
        # restarts from epoch 2 exactly as a real crash would
        if entry["stage"] == "main" and entry["epoch"] == 2:
            raise Interrupted

    part = tmp_path / "resumed"
    corpus = tiny_corpus()
    mc = tiny_model(corpus.dims)
    pcfg = PseudoConfig()
    with pytest.raises(Interrupted):
        train(corpus, mc, tiny_train_cfg(seed=4), LossConfig(), pcfg,
              workdir=part, log_fn=crash_mid_run)
    resumed = train(corpus, mc, tiny_train_cfg(seed=4), LossConfig(),
                    pcfg, workdir=part, resume=True)
    tail = [e["loss"] for e in resumed.history if e["stage"] == "main"]
    full = [e["loss"] for e in straight.history if e["stage"] == "main"]
    assert tail == full[2:]
    for name in straight.params:
        assert np.array_equal(straight.params[name].data,
                              resumed.params[name].data)


class Interrupted(Exception):
    pass


def _kill_at_rename(monkeypatch, epoch):
    """os.replace fails on the given main epoch's checkpoint."""
    from stepalign import tensorio
    real, calls = tensorio.os.replace, []

    def replace_(src, dst):
        assert (Path(src).name, Path(dst).name) == ("last.ckpt.tmp", "last.ckpt")
        calls.append(dst)
        if len(calls) == epoch + 1:
            raise Interrupted
        real(src, dst)
    monkeypatch.setattr(tensorio.os, "replace", replace_)


def _kill_before_save(monkeypatch, epoch):
    """The given main epoch logs its line, then dies before its checkpoint."""
    from stepalign import trainer
    real = trainer.save_checkpoint

    def save(path, arrays, meta=None):
        if meta["next_epoch"] == epoch + 1:
            raise Interrupted
        real(path, arrays, meta=meta)
    monkeypatch.setattr(trainer, "save_checkpoint", save)


@pytest.mark.parametrize("kill", [_kill_at_rename, _kill_before_save])
def test_killed_run_resumes_byte_identical(tmp_path, monkeypatch, kill):
    from stepalign.trainer import load_train_checkpoint
    straight = run_tiny(seed=4, workdir=tmp_path / "straight")
    part = tmp_path / "part"
    kill(monkeypatch, epoch=3)
    with pytest.raises(Interrupted):
        run_tiny(seed=4, workdir=part)
    monkeypatch.undo()
    # the previous epoch's checkpoint survives and loads
    assert load_train_checkpoint(part / "last.ckpt")[2]["next_epoch"] == 3

    resumed = run_tiny(seed=4, workdir=part, resume=True)
    assert ((part / "train_log.jsonl").read_bytes()
            == (tmp_path / "straight" / "train_log.jsonl").read_bytes())
    for name, p in straight.params.items():
        assert p.data.tobytes() == resumed.params[name].data.tobytes()


def test_resume_rejects_other_model_config_and_short_log(tmp_path):
    corpus = tiny_corpus()
    mc = tiny_model(corpus.dims)
    cfg = tiny_train_cfg(epochs=2, teacher_pre_epochs=1)
    pcfg = PseudoConfig()
    train(corpus, mc, cfg, LossConfig(), pcfg, workdir=tmp_path)
    log = tmp_path / "train_log.jsonl"
    before = log.read_bytes()
    for change in [dict(ffn_dim=64), dict(dropout=0.1), dict(num_layers=2)]:
        with pytest.raises(TrainError, match="model_config"):
            train(corpus, replace(mc, **change), cfg, LossConfig(), pcfg,
                  workdir=tmp_path, resume=True)
    assert log.read_bytes() == before
    log.write_bytes(before[:-1])
    with pytest.raises(TrainError, match="bytes"):
        train(corpus, mc, cfg, LossConfig(), pcfg, workdir=tmp_path, resume=True)


def test_resume_rejects_other_train_loss_or_pseudo_config(tmp_path):
    corpus = tiny_corpus()
    mc = tiny_model(corpus.dims)
    cfg = tiny_train_cfg(epochs=2, teacher_pre_epochs=1, seed=5)
    pcfg = PseudoConfig()
    train(corpus, mc, cfg, LossConfig(), pcfg, workdir=tmp_path)
    log = tmp_path / "train_log.jsonl"
    before = log.read_bytes()
    others = [(replace(cfg, seed=6), LossConfig(), pcfg, "train_config.seed 5 != 6"),
              (replace(cfg, grad_clip=0.5), LossConfig(), pcfg, "train_config.grad_clip"),
              (cfg, LossConfig(eta=0.5), pcfg, "loss_config.eta"),
              (cfg, LossConfig(), replace(pcfg, zeta=0.5), "pseudo_config.zeta")]
    for train_cfg, loss_cfg, pseudo_cfg, field_name in others:
        with pytest.raises(TrainError, match=field_name):
            train(corpus, mc, train_cfg, loss_cfg, pseudo_cfg, workdir=tmp_path,
                  resume=True)
    assert log.read_bytes() == before
    # the same configs resume: nothing is left to run, nothing is logged
    done = train(corpus, mc, cfg, LossConfig(), pcfg, workdir=tmp_path, resume=True)
    assert done.history == [] and log.read_bytes() == before


def test_resume_names_a_field_only_the_checkpoint_has(tmp_path):
    from stepalign.cli import ProtocolError, _load_model
    from stepalign.encoder import load_checkpoint, save_checkpoint
    corpus = tiny_corpus()
    mc = tiny_model(corpus.dims)
    cfg = tiny_train_cfg(epochs=2, teacher_pre_epochs=1)
    pcfg = PseudoConfig()
    train(corpus, mc, cfg, LossConfig(), pcfg, workdir=tmp_path)
    # as saved by a version with a switch for the step positional table
    ckpt = tmp_path / "last.ckpt"
    arrays, meta = load_checkpoint(ckpt)
    meta["model_config"]["pe_for_steps"] = False
    save_checkpoint(ckpt, arrays, meta=meta)
    with pytest.raises(TrainError, match="model_config.pe_for_steps False != None"):
        train(corpus, mc, cfg, LossConfig(), pcfg, workdir=tmp_path, resume=True)
    # eval and infer refuse it too, as an artifact mismatch
    with pytest.raises(ProtocolError, match="pe_for_steps"):
        _load_model(str(ckpt))


def test_resume_refuses_another_corpus_or_task_assignment(tmp_path, monkeypatch):
    # another seed's corpus has the same video ids: without a check, the
    # resumed run would train it on the first corpus's initial labels
    _kill_at_rename(monkeypatch, epoch=1)
    with pytest.raises(Interrupted):
        run_tiny(seed=4, workdir=tmp_path)
    monkeypatch.undo()
    log = tmp_path / "train_log.jsonl"
    before = log.read_bytes()
    corpus, other = tiny_corpus(), tiny_corpus(seed=8)
    assert [v.id for v in other.videos] == [v.id for v in corpus.videos]
    one_task = {v.id: "task000" for v in corpus.videos}
    for c, assignment in [(other, None), (corpus, one_task)]:
        with pytest.raises(TrainError, match="another corpus.*corpus_sha256"):
            train(c, tiny_model(c.dims), tiny_train_cfg(seed=4), LossConfig(),
                  PseudoConfig(),
                  assignment=assignment, workdir=tmp_path, resume=True)
    assert log.read_bytes() == before
    # ground truth is not a training input: a corpus without it resumes
    no_gt = Corpus(tuple(replace(v, gt_step_segments=None, gt_narration_steps=None)
                         for v in corpus.videos), corpus.articles, corpus.dims)
    done = train(no_gt, tiny_model(corpus.dims), tiny_train_cfg(seed=4),
                 LossConfig(), PseudoConfig(),
                 workdir=tmp_path, resume=True)
    assert [e["epoch"] for e in done.history] == [1, 2, 3, 4]


def test_unequal_text_widths_fail_before_the_first_epoch(tmp_path):
    # steps are encoded as narrations, so the two widths must match: the
    # generator refuses other dims, and the model config refuses them, so
    # train() writes nothing, instead of failing at the first teacher batch
    with pytest.raises(CorpusError, match="narration and step dims"):
        SynthConfig(dims=(48, 32, 24)).validate()
    corpus = tiny_corpus()
    d_v, d_n, d_s = corpus.dims
    wide = {t: replace(a, step_features=np.hstack([a.step_features] * 2))
            for t, a in corpus.articles.items()}
    corpus = Corpus(corpus.videos, wide, (d_v, d_n, 2 * d_s))
    with pytest.raises(ModelError, match="equal narration and step dims"):
        train(corpus, tiny_model(corpus.dims), tiny_train_cfg(), LossConfig(),
              PseudoConfig(),
              workdir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("table", ["frame", "narration", "step", "teacher step",
                                   "eval step"])
def test_positional_table_overflow_fails_before_the_first_epoch(tmp_path, table):
    # steps are encoded with the narration table, max_narrations rows; an
    # article too long for it used to fail only in an epoch, after the log
    # had been emptied
    corpus = tiny_corpus()
    mc, eval_corpus = tiny_model(corpus.dims), None
    # 9 steps overflow the 8-row table that the videos' narrations fit
    tripled = {t: replace(a, step_texts=a.step_texts * 3,
                          step_features=np.vstack([a.step_features] * 3))
               for t, a in corpus.articles.items()}
    if table == "frame":  # 32-64 frames, cropped at train.max_frames 64
        mc = replace(mc, max_frames=40)
    elif table == "narration":
        mc = replace(mc, max_narrations=1)
    elif table == "step":
        corpus = Corpus(corpus.videos, tripled, corpus.dims)
    elif table == "teacher step":  # without narrations, 3 steps overflow 2 rows
        mc = replace(mc, max_narrations=2)
        corpus = Corpus(tuple(replace(v, narration_texts=(), narration_spans=(),
                                      narration_features=np.zeros((0, corpus.dims[1])),
                                      gt_narration_steps=None)
                              for v in corpus.videos), corpus.articles, corpus.dims)
    else:
        eval_corpus = Corpus(corpus.videos, tripled, corpus.dims)
    with pytest.raises(ModelError, match=f"{table.split()[-1]} count .* exceeds "
                                         f"positional table size") as exc:
        train(corpus, mc, tiny_train_cfg(), LossConfig(),
              PseudoConfig(),
              eval_corpus=eval_corpus, workdir=tmp_path / "run")
    assert str(exc.value).startswith("eval corpus video" if table == "eval step"
                                     else "corpus video")
    assert not (tmp_path / "run").exists()


def test_fresh_run_starts_an_empty_log(tmp_path):
    once, twice = tmp_path / "once", tmp_path / "twice"
    run_tiny(seed=6, workdir=once, epochs=2, teacher_pre_epochs=1)
    for _ in range(2):
        run_tiny(seed=6, workdir=twice, epochs=2, teacher_pre_epochs=1)
    log = (once / "train_log.jsonl").read_bytes()
    assert len(log.splitlines()) == 3
    assert (twice / "train_log.jsonl").read_bytes() == log


def test_fresh_run_deletes_label_files_of_an_earlier_run(tmp_path):
    clean, used = tmp_path / "clean", tmp_path / "used"
    run_tiny(seed=6, workdir=clean, epochs=3, teacher_pre_epochs=1)
    run_tiny(seed=7, workdir=used, epochs=2, teacher_pre_epochs=1)
    # as left by a version that relabelled the corpus during training
    shutil.copy(used / "pseudo" / "initial.jsonl", used / "pseudo" / "epoch_004.jsonl")
    run_tiny(seed=6, workdir=used, epochs=3, teacher_pre_epochs=1)
    names = sorted(p.name for p in (used / "pseudo").iterdir())
    assert names == ["initial.jsonl"]
    for name in names:
        assert ((used / "pseudo" / name).read_bytes()
                == (clean / "pseudo" / name).read_bytes())


def test_resume_without_checkpoint_rejected(tmp_path):
    with pytest.raises(TrainError, match="resume"):
        run_tiny(seed=0, workdir=tmp_path, resume=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_train_error():
    corpus = tiny_corpus()
    with pytest.raises(TrainError):
        train(corpus, tiny_model(corpus.dims),
              tiny_train_cfg(base_lr=1e12, teacher_pre_epochs=0),
              LossConfig(), PseudoConfig())


def test_eval_corpus_metrics_logged():
    corpus = tiny_corpus()
    mc = tiny_model(corpus.dims)
    result = train(corpus, mc, tiny_train_cfg(epochs=2, teacher_pre_epochs=1),
                   LossConfig(), PseudoConfig(),
                   eval_corpus=corpus)
    main = [e for e in result.history if e["stage"] == "main"]
    assert all("eval_step_r1" in e for e in main)
    assert all(0.0 <= e["eval_step_r1"] <= 1.0 for e in main)
