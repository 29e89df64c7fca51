"""Optimization loop with the teacher-student labeling curriculum.

Stage 0 trains the model on narration supervision alone (lambda_sv = 0).
Article steps always go through the narration MLP and positional table, so
the finished teacher scores steps zero-shot. It labels the corpus once and
warm-starts the student, which is the same model trained further.

The main stage trains with both loss terms, every epoch on those labels. The
paper refines the labels with the student's own scores; here such refresh
passes narrowed each kept label to one or two frames and lost held-out hits
to frozen labels (README, "How training works").
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .autodiff import Tensor
from .corpus.batching import LabelSource, batch_iter, video_slices
from .corpus.records import Corpus
from .encoder import (ModelConfig, ModelError, forward, forward_batch,
                      init_params, load_checkpoint, params_from_arrays,
                      save_checkpoint)
from .evalkit import EvalError, MetricReport, evaluate_video, merge_reports
from .objective import LossConfig, gradients, total_loss
from .pseudolabel import PseudoConfig, PseudoLabelSet, generate_pseudolabels

# the one label set a run trains on, relative to its workdir
LABELS_FILE = "pseudo/initial.jsonl"


class TrainError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule of both stages. The defaults are the one
    training recipe: `stepalign train`, scripts/ablate.py and the acceptance
    gate's curriculum criteria train them. teacher_lr None means base_lr."""

    epochs: int = 12
    batch_size: int = 8
    base_lr: float = 2e-4
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 1.0
    teacher_pre_epochs: int = 5
    teacher_lr: float | None = None
    max_frames: int = 128
    seed: int = 0

    def resolved_teacher_lr(self) -> float:
        return self.base_lr if self.teacher_lr is None else self.teacher_lr

    def validate(self) -> None:
        if self.epochs < 0:
            raise TrainError("epochs must be >= 0")
        if self.batch_size < 1 or self.max_frames < 1:
            raise TrainError("batch_size and max_frames must be >= 1")
        # written so that NaN, which fails every comparison, fails each check
        for name in ("base_lr", "eps", "grad_clip"):
            if not getattr(self, name) > 0:
                raise TrainError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.teacher_lr is not None and not self.teacher_lr > 0:
            raise TrainError(f"teacher_lr must be > 0 when set, got {self.teacher_lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise TrainError("betas must lie in [0, 1)")
        if not self.weight_decay >= 0:
            raise TrainError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.teacher_pre_epochs < 0:
            raise TrainError("teacher_pre_epochs must be >= 0")


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Half-cosine decay from base_lr to zero over total_steps updates."""
    if total_steps < 1:
        raise TrainError("total_steps must be >= 1")
    frac = min(max(step, 0), total_steps) / total_steps
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


@dataclass
class OptimizerState:
    """AdamW first/second moments plus the shared update counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def fresh(cls, params: Mapping[str, Tensor]) -> "OptimizerState":
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()})


def global_grad_norm(grads: Mapping[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    return math.sqrt(total)


def adamw_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
               state: OptimizerState, lr: float, config: TrainConfig) -> float:
    """One decoupled-weight-decay Adam update; returns the pre-clip grad norm.

    The whole gradient vector is rescaled to grad_clip before touching the
    moments, so a single spiky batch cannot poison the running statistics.
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainError(f"non-finite gradient for parameter {name!r}")
    norm = global_grad_norm(grads)
    scale = config.grad_clip / norm if norm > config.grad_clip else 1.0
    state.step += 1
    t = state.step
    bc1 = 1.0 - config.beta1 ** t
    bc2 = 1.0 - config.beta2 ** t
    for name, p in params.items():
        g = grads[name] * scale
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + config.eps)
        p.data -= lr * (update + config.weight_decay * p.data)
    return norm


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    opt_state: Optional[OptimizerState]
    labels: Optional[PseudoLabelSet]
    history: list[dict] = field(default_factory=list)


def label_corpus(params, model_config: ModelConfig, corpus: Corpus,
                 pseudo_config: PseudoConfig, *, batch_size: int,
                 max_frames: int, assignment=None,
                 meta: Optional[dict] = None) -> PseudoLabelSet:
    """Run the model over the corpus and turn step scores into pseudo-labels."""
    sets = []
    for batch in batch_iter(corpus, batch_size, max_frames, None,
                            LabelSource.ASR_TIMESTAMPS, assignment=assignment):
        sets.extend(forward(params, model_config, batch))
    return generate_pseudolabels(sets, pseudo_config, meta=meta)


def evaluate_corpus(params, model_config: ModelConfig, corpus: Corpus,
                    batch_size: int, *, matrix: str = "fused",
                    ks: Sequence[int] = (1,),
                    iou_thresholds: Sequence[float] = (0.5,),
                    assignment: Optional[Mapping[str, str]] = None,
                    ) -> dict[str, dict[str, MetricReport]]:
    """Grounding metrics of every video with step ground truth, by video id.

    Whole videos up to the model's max_frames are scored; articles come from
    assignment, or from the task metadata when it is None. train() logs the
    merged defaults after each eval epoch and `stepalign eval` prints them.
    """
    per_video: dict[str, dict[str, MetricReport]] = {}
    for batch in batch_iter(corpus, batch_size, model_config.max_frames, None,
                            LabelSource.ASR_TIMESTAMPS, assignment=assignment):
        for alignment in forward(params, model_config, batch):
            video = corpus.video_by_id(alignment.video_id)
            if video.gt_step_segments is not None:
                per_video[video.id] = evaluate_video(
                    alignment, video, matrix=matrix, ks=ks,
                    iou_thresholds=iou_thresholds)
    return per_video


def _run_epoch(params, model_config, corpus, train_cfg: TrainConfig,
               loss_cfg: LossConfig, state: OptimizerState, total_steps: int,
               shuffle_seed: int, label_source: LabelSource,
               pseudo_store: Optional[PseudoLabelSet], assignment,
               where: str) -> dict[str, float]:
    reports, norms, lr_last = [], [], 0.0
    # one dropout stream per epoch, separate key from the shuffle stream;
    # batch order is fixed by shuffle_seed, so consumption is reproducible
    drop_rng = (np.random.default_rng([13, shuffle_seed])
                if model_config.dropout > 0.0 else None)
    for batch in batch_iter(corpus, train_cfg.batch_size, train_cfg.max_frames,
                            shuffle_seed, label_source,
                            assignment=assignment, pseudo_store=pseudo_store):
        alignments = forward_batch(params, model_config, batch,
                                   dropout_rng=drop_rng)
        loss, report = total_loss(alignments, batch, loss_cfg)
        if not math.isfinite(report.total):
            raise TrainError(f"loss diverged ({report.total}) during {where}")
        grads = gradients(loss, params)
        lr_last = cosine_lr(state.step, total_steps, train_cfg.base_lr)
        norms.append(adamw_step(params, grads, state, lr_last, train_cfg))
        reports.append(report)
    return {"loss": _mean([r.total for r in reports]),
            "loss_nv": _mean([r.loss_nv for r in reports]),
            "loss_sv": _mean([r.loss_sv for r in reports]),
            "grad_norm": _mean(norms), "lr": lr_last,
            "rows_sv": sum(r.rows_sv for r in reports)}


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def _mix_seed(seed: int, stage: int, epoch: int) -> int:
    return (seed * 1_000_003 + stage * 101 + epoch) % (2 ** 63)


def _corpus_digest(corpus: Corpus,
                   assignment: Optional[Mapping[str, str]]) -> str:
    """SHA-256 of what training reads from a corpus: each video's id, task
    (from assignment, else its metadata), frame and narration features and
    narration spans, then each article's step features. Ground truth is left
    out. The arrays are hashed in place, one update each."""
    # imported here: hashlib loads OpenSSL, which adds ~3.5 MB to the
    # resident size of `import stepalign`
    import hashlib
    h = hashlib.sha256()
    for v in corpus.videos:
        task = v.task_id if assignment is None else assignment.get(v.id, v.task_id)
        spans = [[s.start, s.end] for s in v.narration_spans]
        h.update(json.dumps([v.id, task, v.frame_features.shape,
                             v.narration_features.shape, spans]).encode())
        h.update(v.frame_features)
        h.update(v.narration_features)
    for task_id in sorted(corpus.articles):
        steps = corpus.articles[task_id].step_features
        h.update(json.dumps([task_id, steps.shape]).encode())
        h.update(steps)
    return h.hexdigest()


def _check_corpora(corpus: Corpus, eval_corpus: Optional[Corpus],
                   mc: ModelConfig, train_cfg: TrainConfig,
                   assignment: Optional[Mapping[str, str]]) -> None:
    """Reject corpora that the model or the curriculum cannot run on, so
    that a run fails before its first epoch, not in it."""
    for what, c, tasks, crop in (
            ("corpus", corpus, assignment, train_cfg.max_frames),
            ("eval corpus", eval_corpus, None, mc.max_frames)):
        if c is None:
            continue
        if tuple(c.dims) != tuple(mc.feature_dims):
            raise ModelError(f"model expects feature dims "
                             f"{mc.feature_dims}, {what} provides {c.dims}")
        for v in c.videos:
            t, kept, _ = video_slices(v, crop)
            article = c.articles.get((tasks or {}).get(v.id, v.task_id))
            for name, count, size in (
                    ("frame", t, mc.max_frames),
                    ("narration", len(kept), mc.max_narrations),
                    ("step", article.num_steps if article else 0,
                     mc.max_narrations)):
                if count > size:
                    raise ModelError(f"{what} video {v.id}: {name} count {count} "
                                     f"exceeds positional table size {size}")
    if eval_corpus is not None:
        if not any(v.gt_step_segments for v in eval_corpus.videos):
            raise EvalError("eval corpus carries no step ground truth to score against")
        missing = [v.id for v in eval_corpus.videos if v.task_id is None]
        if missing:
            raise EvalError(f"eval corpus videos {missing[:3]} have no task id "
                            f"to score against ({len(missing)} in all)")


def train(corpus: Corpus, model_config: ModelConfig, train_cfg: TrainConfig,
          loss_cfg: LossConfig, pseudo_cfg: PseudoConfig, *,
          assignment: Optional[Mapping[str, str]] = None,
          eval_corpus: Optional[Corpus] = None,
          workdir: Optional[str | Path] = None,
          resume: bool = False,
          log_fn: Optional[Callable[[dict], None]] = None) -> TrainResult:
    """Full curriculum: narration-only teacher, then pseudo-labeled student.

    With a workdir, a fresh run starts with an empty train_log.jsonl and no
    label files under pseudo/. Every epoch appends one JSONL log line, the
    teacher's labels land in pseudo/initial.jsonl, and last.ckpt carries
    enough to resume mid-run (per-epoch shuffling and dropout are derived
    from (seed, epoch), so no generator state needs saving), with the configs
    and the corpus digest a resume must match.
    """
    train_cfg.validate()
    loss_cfg.validate()
    pseudo_cfg.validate()
    model_config.validate()
    if len(corpus.videos) == 0:
        raise TrainError("cannot train on an empty corpus")
    if train_cfg.epochs == 0:
        # a zero-epoch run is a no-op by contract: fresh params, nothing logged
        return TrainResult(params=init_params(model_config, train_cfg.seed),
                           opt_state=None, labels=None, history=[])
    _check_corpora(corpus, eval_corpus, model_config, train_cfg, assignment)

    workdir = Path(workdir) if workdir is not None else None
    log_path = workdir / "train_log.jsonl" if workdir else None
    history: list[dict] = []

    def emit(entry: dict) -> None:
        history.append(entry)
        if log_fn is not None:
            log_fn(entry)
        if log_path is not None:
            with open(log_path, "a") as f:
                f.write(json.dumps(entry) + "\n")

    # recorded in every checkpoint; a resume must match all four
    configs = {"model_config": model_config, "train_config": train_cfg,
               "loss_config": loss_cfg, "pseudo_config": pseudo_cfg}
    digest = _corpus_digest(corpus, assignment)
    steps_per_epoch = math.ceil(len(corpus.videos) / train_cfg.batch_size)
    main_total = train_cfg.epochs * steps_per_epoch

    start_epoch = 0
    if resume:
        if workdir is None:
            raise TrainError("resume needs a workdir")
        ckpt = workdir / "last.ckpt"
        if not ckpt.exists():
            raise TrainError(f"resume requested but {ckpt} does not exist")
        params, state, meta = load_train_checkpoint(ckpt)
        differ = []
        for key, cfg in configs.items():
            saved = meta.get(key) or {}
            expected = json.loads(json.dumps(asdict(cfg)))  # meta is JSON
            # a field only one side has (e.g. a removed option) differs too
            differ += [f"{key}.{k} {saved.get(k)} != {expected.get(k)}"
                       for k in sorted(saved.keys() | expected.keys())
                       if saved.get(k) != expected.get(k)]
        if differ:
            raise TrainError(f"{ckpt} was saved with other configs "
                             f"(checkpoint != this run): {', '.join(differ)}")
        if meta.get("corpus_sha256") != digest:
            raise TrainError(f"{ckpt} was saved for another corpus or task "
                             f"assignment (checkpoint != this run): corpus_sha256 "
                             f"{meta.get('corpus_sha256')} != {digest}")
        # drop log lines of an epoch that was killed before its checkpoint
        log_size = log_path.stat().st_size if log_path.exists() else 0
        if log_size < meta["log_bytes"]:
            raise TrainError(f"{log_path} holds {log_size} bytes, but {ckpt} "
                             f"was saved after {meta['log_bytes']}")
        os.truncate(log_path, meta["log_bytes"])
        start_epoch = int(meta["next_epoch"])
        labels = PseudoLabelSet.load_jsonl(workdir / LABELS_FILE)
    else:
        if workdir is not None:
            # a fresh run neither extends an old log nor keeps its labels;
            # a resume makes no directory: its workdir holds last.ckpt
            workdir.mkdir(parents=True, exist_ok=True)
            log_path.write_bytes(b"")
            for stale in (workdir / "pseudo").glob("*.jsonl"):
                stale.unlink()
        # stage 0: narration-only teacher; steps share the narration
        # encoder, so labeling works without step supervision
        params = init_params(model_config, train_cfg.seed)
        if train_cfg.teacher_pre_epochs > 0:
            pre_state = OptimizerState.fresh(params)
            pre_total = train_cfg.teacher_pre_epochs * steps_per_epoch
            pre_cfg = replace(train_cfg, base_lr=train_cfg.resolved_teacher_lr())
            nv_only = replace(loss_cfg, lambda_sv=0.0)
            for epoch in range(train_cfg.teacher_pre_epochs):
                stats = _run_epoch(params, model_config, corpus, pre_cfg,
                                   nv_only, pre_state, pre_total,
                                   _mix_seed(train_cfg.seed, 0, epoch),
                                   LabelSource.ASR_TIMESTAMPS, None,
                                   assignment, f"teacher epoch {epoch}")
                emit({"stage": "teacher", "epoch": epoch, **stats})
            del pre_state  # the main stage keeps only its own moments
        # the teacher labels every step row once
        labels = label_corpus(
            params, model_config, corpus, pseudo_cfg,
            batch_size=train_cfg.batch_size, max_frames=train_cfg.max_frames,
            assignment=assignment, meta={"epoch": 0})
        if workdir is not None:
            labels.save_jsonl(workdir / LABELS_FILE)
        state = OptimizerState.fresh(params)

    for epoch in range(start_epoch, train_cfg.epochs):
        stats = _run_epoch(params, model_config, corpus, train_cfg,
                           loss_cfg, state, main_total,
                           _mix_seed(train_cfg.seed, 1, epoch),
                           LabelSource.PROVIDED_PSEUDO, labels, assignment,
                           f"epoch {epoch}")
        entry = {"stage": "main", "epoch": epoch,
                 "pseudo_coverage": labels.coverage(), **stats}
        if eval_corpus is not None:
            per_video = evaluate_corpus(params, model_config, eval_corpus,
                                        train_cfg.batch_size)
            merged = merge_reports(r for d in per_video.values() for r in d.values())
            entry.update({f"eval_{k}": r.value for k, r in merged.items()})
        emit(entry)

        if workdir is not None:
            _save_train_checkpoint(workdir / "last.ckpt", params, state, {
                "next_epoch": epoch + 1,
                **{key: asdict(cfg) for key, cfg in configs.items()},
                "corpus_sha256": digest,
                "log_bytes": log_path.stat().st_size,
            })

    return TrainResult(params=params, opt_state=state, labels=labels, history=history)


def _save_train_checkpoint(path: Path, params, state: OptimizerState,
                           meta: dict) -> None:
    arrays: dict[str, np.ndarray] = {k: p.data for k, p in params.items()}
    for k, m in state.m.items():
        arrays[f"opt.m.{k}"] = m
    for k, v in state.v.items():
        arrays[f"opt.v.{k}"] = v
    save_checkpoint(path, arrays, meta={**meta, "opt_step": state.step})


def load_train_checkpoint(path: str | Path):
    """Split a checkpoint into (params, optimizer state, meta)."""
    arrays, meta = load_checkpoint(path)
    params = params_from_arrays(
        {k: v for k, v in arrays.items() if not k.startswith("opt.")})
    m = {k[len("opt.m."):]: v for k, v in arrays.items() if k.startswith("opt.m.")}
    v = {k[len("opt.v."):]: v for k, v in arrays.items() if k.startswith("opt.v.")}
    state = OptimizerState(m=m, v=v, step=int(meta.get("opt_step", 0)))
    return params, state, meta
