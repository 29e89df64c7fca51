"""Command-line entry points: generate, train, eval, infer.

Exit codes: 0 success, 1 runtime failure (e.g. diverged training), 2 bad
configuration or arguments, 3 protocol mismatches between artifacts (model vs
corpus dims, missing ground truth or metadata), 4 missing or corrupt data
files. argparse's own usage errors also exit 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import (ConfigError, RunConfig, build_section, load_run_config,
                     save_run_config)
from .corpus import (Corpus, CorpusError, LabelSource, batch_iter,
                     generate_synthetic, read_corpus, split_corpus,
                     write_corpus)
from .encoder import ModelConfig, ModelError, forward
from .evalkit import (MIN_SCORE, ZETA, EvalError, blob_detect,
                      evaluate_predictions, merge_reports, read_predictions)
from .pseudolabel import PseudoError
from .taskselect import TaskSelectError, assign_articles
from .tensorio import FormatError
from .trainer import (TrainError, evaluate_corpus, load_train_checkpoint,
                      train)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_DATA = 4


class ProtocolError(Exception):
    """Artifacts that disagree with each other (exit code 3)."""


def _load_config(args) -> RunConfig:
    config = load_run_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(
            config,
            corpus=dataclasses.replace(config.corpus, seed=args.seed),
            train=dataclasses.replace(config.train, seed=args.seed))
    config.validate()
    return config


def _read_corpus(path: str) -> Corpus:
    root = Path(path)
    if not root.exists():
        raise CorpusError(f"corpus directory {root} does not exist")
    return read_corpus(root)


def _load_model(path: str) -> tuple[dict, ModelConfig]:
    params, _, meta = load_train_checkpoint(path)
    raw = meta.get("model_config")
    if raw is None:
        raise ProtocolError(f"checkpoint {path} carries no model_config metadata")
    try:
        return params, build_section(ModelConfig, raw, f"{path} model_config")
    except ConfigError as e:
        # the checkpoint, not the user's configuration, is at fault
        raise ProtocolError(str(e)) from e


def _check_dims(model_config: ModelConfig, corpus: Corpus, where: str) -> None:
    if tuple(model_config.feature_dims) != tuple(corpus.dims):
        raise ProtocolError(
            f"{where}: model expects feature dims {model_config.feature_dims}, "
            f"corpus provides {corpus.dims}")


def _strip_narrations(corpus: Corpus) -> Corpus:
    """Remove every narration so the model grounds steps from frames alone."""
    d_n = corpus.dims[1]
    videos = tuple(dataclasses.replace(
        v, narration_texts=(), narration_spans=(),
        narration_features=np.zeros((0, d_n), dtype=np.float32),
        gt_narration_steps=None) for v in corpus.videos)
    return Corpus(videos, corpus.articles, corpus.dims)


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    config = _load_config(args)
    corpus = generate_synthetic(config.corpus)
    out = Path(args.out)
    if args.holdout_fraction is not None:
        if not (0.0 < args.holdout_fraction < 1.0):
            raise ConfigError(
                f"--holdout-fraction must be in (0, 1), got {args.holdout_fraction}")
        train_part, held = split_corpus(corpus, args.holdout_fraction,
                                        config.corpus.seed)
        write_corpus(train_part, out / "train")
        write_corpus(held, out / "eval")
        print(f"wrote {len(train_part.videos)} train videos to {out / 'train'}")
        print(f"wrote {len(held.videos)} eval videos to {out / 'eval'}")
    else:
        write_corpus(corpus, out)
        print(f"wrote {len(corpus.videos)} videos, {len(corpus.articles)} "
              f"articles to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args)
    corpus = _read_corpus(args.corpus)
    model_config = dataclasses.replace(config.model, feature_dims=corpus.dims)
    assignment = assign_articles(corpus, args.task_strategy, seed=config.train.seed)
    eval_corpus = _read_corpus(args.eval_corpus) if args.eval_corpus else None

    workdir = Path(args.workdir)
    # a fresh run records its config with its first log entry, so a run that
    # train() rejects before its first epoch leaves none behind; a resume
    # keeps the run_config.json of the run it continues, and train() rejects
    # a model, train, loss or pseudo config other than its checkpoint's
    resolved = None if args.resume else dataclasses.replace(config, model=model_config)

    def save_config(entry: dict) -> None:
        nonlocal resolved
        if resolved is not None:
            save_run_config(resolved, workdir / "run_config.json")
            resolved = None

    result = train(corpus, model_config, config.train, config.loss,
                   config.pseudo, assignment=assignment,
                   eval_corpus=eval_corpus, workdir=workdir,
                   resume=args.resume, log_fn=save_config)
    # train() writes last.ckpt after each main epoch, so only a call that ran
    # one has a checkpoint to name
    last = next((h for h in reversed(result.history) if h.get("stage") == "main"),
                None)
    if last is None:
        print("no epoch ran: no checkpoint written")
        return EXIT_OK
    print(f"finished epoch {last['epoch']}: loss {last['loss']:.4f}, "
          f"pseudo coverage {last['pseudo_coverage']:.2f}")
    print(f"checkpoint: {workdir / 'last.ckpt'}")
    return EXIT_OK


def _eval_model(args, corpus: Corpus) -> dict:
    params, model_config = _load_model(args.checkpoint)
    _check_dims(model_config, corpus, args.checkpoint)
    # tasks are picked from the narrations, so before they are stripped
    assignment = assign_articles(corpus, args.task_strategy)
    if args.no_narrations:
        corpus = _strip_narrations(corpus)
    if not any(v.gt_step_segments for v in corpus.videos):
        raise ProtocolError("corpus carries no step ground truth to score against")
    return evaluate_corpus(params, model_config, corpus, args.batch_size,
                           matrix=args.matrix, ks=args.k,
                           iou_thresholds=args.iou, assignment=assignment)


def cmd_eval(args) -> int:
    # not an argparse group: --checkpoint stays legal with --per-video
    if args.predictions and args.checkpoint:
        raise ConfigError("--predictions is scored as it is: drop --checkpoint, "
                          "which it would not read")
    if args.batch_size < 1:
        raise ConfigError(f"--batch-size must be >= 1, got {args.batch_size}")
    if any(k < 1 for k in args.k):
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if any(not 0.0 < iou <= 1.0 for iou in args.iou):
        raise ConfigError(f"--iou must be in (0, 1], got {args.iou}")
    corpus = _read_corpus(args.corpus)
    if args.predictions:
        preds = read_predictions(args.predictions)
        merged = evaluate_predictions(preds, corpus.videos, ks=args.k,
                                      iou_thresholds=args.iou)
        if not merged:
            raise ProtocolError("corpus carries no step ground truth to score against")
    else:
        if not args.checkpoint:
            raise ConfigError("eval needs --checkpoint (or --predictions)")
        per_video = _eval_model(args, corpus)
        merged = merge_reports(r for d in per_video.values() for r in d.values())

    for name, report in merged.items():
        print(f"{name} {report.value:.6f} ({report.numerator:g}/{report.denominator:g})")
    if args.per_video:
        path = Path(args.per_video)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["video_id", "metric", "numerator", "denominator"])
            for vid in sorted(per_video):
                for name, r in sorted(per_video[vid].items()):
                    writer.writerow([vid, name, f"{r.numerator:g}",
                                     f"{r.denominator:g}"])
        print(f"per-video metrics: {path}")
    return EXIT_OK


def _write_alignment_csv(path: Path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["row", "frame", "score"])
        for r in range(matrix.shape[0]):
            for c in range(matrix.shape[1]):
                writer.writerow([r, c, f"{matrix[r, c]:.6f}"])


def _write_pgm(path: Path, matrix: np.ndarray) -> None:
    """Grayscale heatmap: cosine -1 maps to black, +1 to white."""
    unit = (np.clip(matrix, -1.0, 1.0) + 1.0) / 2.0
    pixels = np.floor(255.0 * unit + 0.5).astype(np.uint8)  # round half up
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def cmd_infer(args) -> int:
    if not 0.0 < args.zeta <= 1.0:
        raise ConfigError(f"--zeta must be in (0, 1], got {args.zeta}")
    if np.isnan(args.min_score):
        raise ConfigError("--min-score must be a number, got nan")
    corpus = _read_corpus(args.corpus)
    try:
        video = corpus.video_by_id(args.video)
    except KeyError:
        raise CorpusError(f"no video {args.video!r} in {args.corpus}") from None
    params, model_config = _load_model(args.checkpoint)
    _check_dims(model_config, corpus, args.checkpoint)

    task = args.task if args.task else video.task_id
    if task is None:
        raise ProtocolError(
            f"video {video.id} has no task metadata; pass --task")
    if task not in corpus.articles:
        raise ProtocolError(f"unknown task {task!r}")

    sub = Corpus((video,), corpus.articles, corpus.dims)
    batch = next(batch_iter(sub, 1, model_config.max_frames, None,
                            LabelSource.ASR_TIMESTAMPS,
                            assignment={video.id: task}))
    alignment = forward(params, model_config, batch)[0]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emits = args.emit or ["csv", "pgm", "segments"]
    if "csv" in emits:
        path = out / f"{video.id}.alignment.csv"
        _write_alignment_csv(path, alignment.a_fused)
        print(f"alignment csv: {path}")
    if "pgm" in emits:
        path = out / f"{video.id}.fused.pgm"
        _write_pgm(path, alignment.a_fused)
        print(f"heatmap: {path}")
    if "segments" in emits:
        path = out / f"{video.id}.segments.jsonl"
        with open(path, "w") as f:
            for s in range(alignment.a_fused.shape[0]):
                found = blob_detect(alignment.a_fused[s], args.min_score, args.zeta)
                f.write(json.dumps({
                    "video_id": video.id, "step": s,
                    "segments": [[seg.start, seg.end] for seg, _ in found],
                    "scores": [score for _, score in found]}) + "\n")
        print(f"segments: {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepalign",
        description="Ground article steps in videos, with narrations as a bridge.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a corpus with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--holdout-fraction", type=float,
                   help="also write an eval split of this fraction per task")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="run the full training curriculum")
    p.add_argument("--corpus", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--task-strategy", default="metadata",
                   choices=["metadata", "top1", "random_top5"])
    p.add_argument("--eval-corpus")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint or a predictions file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint")
    scored = p.add_mutually_exclusive_group()
    scored.add_argument("--predictions", help="JSONL of ranked segments to score instead")
    p.add_argument("--matrix", default="fused",
                   choices=["fused", "direct_sv", "indirect"])
    p.add_argument("--no-narrations", action="store_true",
                   help="hide narrations from the model during scoring")
    p.add_argument("--task-strategy", default="metadata",
                   choices=["metadata", "top1", "random_top5"])
    p.add_argument("--k", type=int, action="append", default=None)
    p.add_argument("--iou", type=float, action="append", default=None)
    p.add_argument("--batch-size", type=int, default=8)
    scored.add_argument("--per-video", help="write per-video metric CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="emit alignments for one video")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--video", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--task", help="article to align against (default: metadata)")
    p.add_argument("--emit", action="append", choices=["csv", "pgm", "segments"])
    p.add_argument("--min-score", type=float, default=MIN_SCORE)
    p.add_argument("--zeta", type=float, default=ZETA)
    p.set_defaults(func=cmd_infer)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if hasattr(args, "k") and args.k is None:
        args.k = [1]
    if hasattr(args, "iou") and args.iou is None:
        args.iou = [0.5]
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProtocolError, ModelError, EvalError, TaskSelectError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (CorpusError, FormatError, PseudoError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except TrainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
