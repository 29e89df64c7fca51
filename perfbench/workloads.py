"""The benchmark's two workloads, each a closed loop with one client.

Both take the path a user takes: train() with a workdir, the documented eval
loop, then `stepalign infer` with the checkpoint train() left behind. So both
exercise every layer and report every metric; they differ in where the
weight lies.

curriculum  train() on the acceptance-gate desk configuration (200 optimizer
            steps), then held-out scoring with and without narrations, task
            selection on the held-out videos with their task ids removed, and
            one infer call per held-out video: backward and graph-bearing
            forward dominate. Its unit of work is an optimizer step.
score       a short train() on 64 labeled videos makes the checkpoint; then
            the eval loop runs in whole passes over 320 metadata-free videos
            read from disk, and a few infer calls follow: forward-only, a
            third of the token slots are padding. Its unit of work is an eval
            batch of 8 videos.

Inputs are generated here from the seed; the program only receives them. An
untraced run reports the end-to-end metrics; a traced run (Tracer installed)
reports the per-layer ones, after an untraced pass over the same work so the
tracing overhead is measured, not assumed.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import io
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stepalign as sa
from stepalign import cli, trainer
from stepalign.autodiff import GradientError
from stepalign.config import ConfigError
from stepalign.corpus import CorpusError, LabelSource
from stepalign.encoder import ModelError
from stepalign.evalkit import EvalError
from stepalign.pseudolabel import PseudoError
from stepalign.taskselect import TaskSelectError
from stepalign.tensorio import FormatError
from stepalign.trainer import TrainError

from checks import (alignment_problems, infer_problems, pseudo_label_quality,
                    report_problems, train_log_problems)
from tracer import SPAN_NAMES, Tracer

# what stepalign raises when it fails; the operation is counted as failed and
# the run goes on, so the result line is still printed
STEPALIGN_ERRORS = (ConfigError, CorpusError, EvalError, FormatError, GradientError,
                    ModelError, PseudoError, TaskSelectError, TrainError,
                    cli.ProtocolError)


@dataclass(frozen=True)
class Sizes:
    """Input and model sizes: FULL is the benchmark, TOY the smoke run."""

    model: dict
    curriculum_corpus: dict
    teacher_epochs: int
    main_epochs: int
    score_corpus: dict
    score_train_per_task: int  # labeled videos per task for score's train()
    score_teacher_epochs: int
    score_main_epochs: int
    score_infer_calls: int
    tail_samples: int     # samples a run takes beyond its high percentile
    setup_block_s: float  # set-ups are timed in blocks at least this long
    setup_blocks: int     # a run takes at least this many blocks ...
    setup_seconds: float  # ... and at least this much set-up time


FULL = Sizes(
    model=dict(model_dim=64, num_layers=2, num_heads=4, dropout=0.1),
    curriculum_corpus=dict(num_tasks=4, videos_per_task=25),
    teacher_epochs=8, main_epochs=12,
    # 320 scored videos, 40 batches a pass: a run holds several passes, and
    # the median pass time shrugs off one slowed by another tenant of the
    # machine. 64 labeled videos and 128 steps train the model far enough
    # that its grounding varies little from seed to seed: over five seeds
    # the interquartile range of step R@1 was 4% of its median, against
    # 16-23% with 48 videos and 72 steps
    score_corpus=dict(num_tasks=4, videos_per_task=96, frames_range=(64, 256)),
    score_train_per_task=16, score_teacher_epochs=4, score_main_epochs=12,
    score_infer_calls=4,
    # the machine's speed drifts over seconds, so set-up is repeated over a
    # window as long as several of those phases (see _setup)
    tail_samples=10, setup_block_s=1.0, setup_blocks=7, setup_seconds=8.0)

TOY = Sizes(
    model=dict(model_dim=16, num_layers=1, num_heads=4, dropout=0.1),
    curriculum_corpus=dict(num_tasks=2, videos_per_task=10, frames_range=(16, 24)),
    teacher_epochs=1, main_epochs=4,
    score_corpus=dict(num_tasks=2, videos_per_task=8, frames_range=(16, 40)),
    score_train_per_task=2, score_teacher_epochs=1, score_main_epochs=3,
    score_infer_calls=2,
    tail_samples=0, setup_block_s=0.0, setup_blocks=2, setup_seconds=0.0)

BATCH_SIZE = 8
HOLDOUT_FRACTION = 0.2
EMITS = ("csv", "pgm", "segments")
HIGH = 90  # the high latency percentile


@dataclass
class Run:
    """One benchmark run: its arguments, scratch space and what it found."""

    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    scratch: Path
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    tracer: Tracer | None = None  # set by a traced run

    def metric(self, name: str, value: float, unit: str, base: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        if base:
            self.notes.append(f"{name}: {base}")

    def op(self, problems: list[str]) -> None:
        """Count one operation; it failed when any of its checks complained."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def error(self, where: str, e: Exception) -> None:
        """Count one operation that stepalign failed with an error."""
        self.op([f"{where}: {type(e).__name__}: {e}"])

    def timing(self, name: str, value: float, unit: str, base: str) -> None:
        """A timing of the untraced work: the per-layer metric untraced.<name>
        in a traced run, a printed line otherwise. The machine's speed phases
        make it too unsteady for an end-to-end bound (see README.md)."""
        if self.trace:
            self.metric(f"untraced.{name}", value, unit, base)
        else:
            self.notes.append(f"{name} = {value:.6g} {unit}: {base}")

    def fraction(self, name: str, num: float, den: float, base: str) -> None:
        """A share with its base; an empty base reads 0 and says so."""
        self.metric(name, num / den if den else 0.0, "fraction",
                    base if den else f"{base}; the base is 0, so the share reads 0")


def _model_config(sizes: Sizes, dims) -> sa.ModelConfig:
    return sa.ModelConfig(feature_dims=tuple(dims), **sizes.model)


def _setup(run: Run, build):
    """Set up repeatedly and report the median, so work moved into set-up
    shows; a traced run sets up once and reports no set-up time.

    The machine switches between two speeds up to 1.7x apart, sometimes
    within a second, sometimes for a whole run. A 40 ms set-up lands wholly
    in one of them, so the median of single set-ups flips between the two
    with the share of slow ones. Set-ups are therefore timed in blocks of
    consecutive set-ups lasting at least ``setup_block_s``, and ``setup_s``
    is the median over blocks of the mean set-up time within a block. A run
    takes at least ``setup_blocks`` blocks and ``setup_seconds`` of set-up.
    ``build(dest)`` writes its inputs under ``dest``, the same directory every
    time, so each repeat replaces the files of the one before, and they are
    flushed to disk between repeats (see _flush). With a fresh
    directory per repeat and the old one deleted, creating and deleting
    hundreds of files made the time depend on the file system's journal
    state: the same corpus took 0.2 s in one run and 0.8 s in the next. All
    repeats run before the measured work: after it, set-up runs
    systematically faster or slower (warm file system, more live objects for
    the garbage collector), which would split the repeats into two clusters.
    Returns (state, dest).
    """
    sizes = run.sizes
    dest = run.scratch / "setup"
    times: list[float] = []
    blocks: list[float] = []
    block: list[float] = []

    def more() -> bool:
        if run.trace:
            return not times
        return (bool(block) or len(blocks) < sizes.setup_blocks
                or sum(times) < sizes.setup_seconds)

    while more():
        start = time.perf_counter()
        state = build(dest)
        times.append(time.perf_counter() - start)
        block.append(times[-1])
        _flush(dest)
        if sum(block) >= sizes.setup_block_s:
            blocks.append(statistics.mean(block))
            block = []
    if not run.trace:
        run.details["setup_s"] = times
        run.metric("setup_s", statistics.median(blocks), "s",
                   f"median over {len(blocks)} blocks of the mean set-up time, "
                   f"{len(times)} set-ups in {sum(times):.3f} s")
    return state, dest


def _flush(root: Path) -> None:
    """fsync every file under ``root``, untimed. Back-to-back set-ups rewrite
    the same 650 files; without this, later set-ups waited on the writeback
    of earlier ones and took 0.7-1.0 s instead of 0.4 s in some runs."""
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def _latency(run: Run, seconds: list[float], what: str) -> None:
    """batch_ms_p50 and batch_ms_p90 over the untraced samples of one run."""
    need = max(1, math.ceil(run.sizes.tail_samples * 100 / (100 - HIGH)))
    if len(seconds) < need:
        run.op([f"{len(seconds)} {what} timed, the p{HIGH} needs {need}"])
        return
    ms = np.asarray(seconds) * 1e3
    top = np.percentile(ms, HIGH)
    run.timing("batch_ms_p50", float(np.percentile(ms, 50)), "ms",
               f"median of {ms.size} {what}")
    run.timing(f"batch_ms_p{HIGH}", float(top), "ms",
               f"{ms.size} {what}, {int((ms > top).sum())} beyond p{HIGH}")


def _quality(run: Run, fused: dict, fused_no_narr: dict, where: str) -> None:
    """The three grounding metrics, each with its numerator and denominator."""
    for name, report in (("step_r1_fused", fused["step_r1"]),
                         ("step_r1_fused_no_narr", fused_no_narr["step_r1"]),
                         ("narration_r1", fused["narration_r1"])):
        run.metric(name, report.value, "fraction",
                   f"{report.numerator:g}/{report.denominator:g} on {where}")


def _strip_task_ids(corpus):
    return sa.Corpus(tuple(dataclasses.replace(v, task_id=None) for v in corpus.videos),
                     corpus.articles, corpus.dims)


def _train_config(seed: int, teacher_epochs: int, main_epochs: int) -> sa.TrainConfig:
    return sa.TrainConfig(epochs=main_epochs, batch_size=BATCH_SIZE,
                          base_lr=5e-3, weight_decay=0.001,
                          teacher_pre_epochs=teacher_epochs, teacher_lr=2e-3,
                          max_frames=128, seed=seed)


@contextlib.contextmanager
def _step_clock(stamps: list[float]):
    """Stamp the end of every optimizer update. Only the trainer's own
    binding is wrapped (over a traced wrapper, if one is installed), and the
    wrapper does nothing else, so the numbers are those of an unwrapped run."""
    update = trainer.adamw_step

    def stamped(*args, **kwargs):
        out = update(*args, **kwargs)
        stamps.append(time.perf_counter())
        return out

    trainer.adamw_step = stamped
    try:
        yield
    finally:
        trainer.adamw_step = update


def _step_seconds(stamps: list[float], epoch_ends: list[float]) -> list[float]:
    """Time from one update to the next within an epoch: one optimizer step
    (batch, forward, loss, backward, update). The first step of an epoch is
    left out, because the labeling pass or checkpoint write before it would
    count as part of it."""
    epoch = [bisect.bisect_left(epoch_ends, s) for s in stamps]
    return [b - a for a, b, ea, eb in zip(stamps, stamps[1:], epoch, epoch[1:])
            if ea == eb]


def _train(run: Run, corpus, mc, tc: sa.TrainConfig, workdir: Path) -> dict | None:
    """One train() call with a workdir; None when stepalign failed."""
    shutil.rmtree(workdir, ignore_errors=True)
    epoch_ends: list[float] = []
    stamps: list[float] = []
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with _step_clock(stamps):
            result = sa.train(corpus, mc, tc, sa.LossConfig(), sa.PseudoConfig(),
                              workdir=workdir,
                              log_fn=lambda entry: epoch_ends.append(time.perf_counter()))
    except STEPALIGN_ERRORS as e:
        run.error("train()", e)
        return None
    wall = time.perf_counter() - start
    epochs = tc.teacher_pre_epochs + tc.epochs
    out = {"result": result, "wall_s": wall, "cpu_s": time.process_time() - cpu,
           "steps": len(stamps), "step_s": _step_seconds(stamps, epoch_ends),
           "epoch_s": np.diff([start] + epoch_ends).tolist()}
    run.details.setdefault("train_calls", []).append(
        {k: v for k, v in out.items() if k != "result"})
    for problem in train_log_problems(workdir, epochs):
        run.op([problem] if problem else [])
    return out


def _score_corpus(run: Run, params, mc, corpus, matrices, assignment=None) -> dict | None:
    """Merged reports per matrix over ``corpus``, every alignment and metric
    checked; None when stepalign failed."""
    reports = {m: [] for m in matrices}
    try:
        for batch in sa.batch_iter(corpus, BATCH_SIZE, mc.max_frames, None,
                                   LabelSource.ASR_TIMESTAMPS, assignment=assignment):
            for al in sa.forward(params, mc, batch):
                video = corpus.video_by_id(al.video_id)
                per = {m: sa.evaluate_video(al, video, matrix=m) for m in matrices}
                run.op(alignment_problems(al) + [
                    p for m in matrices
                    for p in report_problems(per[m].values(), f"{al.video_id} {m}")])
                for m in matrices:
                    reports[m].extend(per[m].values())
        return {m: sa.merge_reports(reports[m]) for m in matrices}
    except STEPALIGN_ERRORS as e:
        run.error("scoring", e)
        return None


def _infer_calls(run: Run, corpus_dir: Path, checkpoint: Path, targets: dict) -> float:
    """One in-process `stepalign infer` call per video of ``targets`` (video
    id -> (task or None, steps, frames)), with every emit, each checked;
    returns the seconds of all calls."""
    out_dir = run.scratch / "infer-out"
    total = 0.0
    for video_id, (task, steps, frames) in targets.items():
        argv = ["infer", "--corpus", str(corpus_dir), "--checkpoint", str(checkpoint),
                "--video", video_id, "--out", str(out_dir)]
        if task is not None:
            argv += ["--task", task]
        for emit in EMITS:
            argv += ["--emit", emit]
        if run.tracer is not None:
            run.tracer.op += 1
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse rejects bad arguments this way
                code = e.code
        total += time.perf_counter() - start
        run.op(infer_problems(code, out_dir, video_id, steps, frames))
        for path in out_dir.glob(f"{video_id}.*"):
            path.unlink()
    return total


def _pseudo_labels(run: Run, workdir: Path, videos) -> None:
    """Pseudo-label quality of every labeling pass, from outside: notes with
    bases always, the per-layer shares in a traced run."""
    passes = pseudo_label_quality(workdir, videos)
    run.details["pseudo_labels"] = passes
    for p in passes:
        run.notes.append(
            f"pseudo-labels {p['pass']}: kept {p['kept']}/{p['rows']}, "
            f"precision {p['correct']}/{p['kept']}, "
            f"step recall {p['correct']}/{p['shown_steps']}")
    if run.trace:
        total = {k: sum(p[k] for p in passes)
                 for k in ("rows", "kept", "correct", "shown_steps")}
        run.fraction("pseudolabel.kept_fraction", total["kept"], total["rows"],
                     f"{total['kept']}/{total['rows']} over {len(passes)} passes")
        run.fraction("pseudolabel.precision", total["correct"], total["kept"],
                     f"{total['correct']}/{total['kept']}")
        run.fraction("pseudolabel.step_recall", total["correct"], total["shown_steps"],
                     f"{total['correct']}/{total['shown_steps']}")


def _top1_agreement(run: Run, assignment: dict, truth: dict) -> None:
    if run.trace:
        agree = sum(assignment[v] == t for v, t in truth.items())
        run.fraction("taskselect.top1_agreement", agree, len(truth),
                     f"{agree}/{len(truth)} videos assigned their true task")


# ---------------------------------------------------------------------------
# curriculum


def curriculum(run: Run) -> None:
    sizes = run.sizes

    def build(dest: Path):
        corpus = sa.generate_synthetic(
            sa.SynthConfig(seed=run.seed, **sizes.curriculum_corpus))
        train_part, held = sa.split_corpus(corpus, HOLDOUT_FRACTION, run.seed)
        return train_part, held, cli._strip_narrations(held)

    (train_part, held, stripped), _ = _setup(run, build)
    mc = _model_config(sizes, train_part.dims)
    tc = _train_config(run.seed, sizes.teacher_epochs, sizes.main_epochs)
    epochs = sizes.teacher_epochs + sizes.main_epochs

    # the user's next steps after training: score the held-out split with
    # and without narrations, pick each held-out video's task from its
    # narrations alone, and ground each video through the CLI with the
    # checkpoint train() left behind; the corpus is written untimed
    held_dir = run.scratch / "held-out"
    sa.write_corpus(held, held_dir)
    no_ids = _strip_task_ids(held)
    truth = {v.id: v.task_id for v in held.videos}
    targets = {v.id: (None, held.articles[v.task_id].num_steps,
                      min(v.num_frames, mc.max_frames)) for v in held.videos}
    matrices = ("fused", "indirect", "direct_sv")

    def work(workdir: Path) -> dict | None:
        """The train() call, what follows it and the seconds of it all; None
        when stepalign failed."""
        out = _train(run, train_part, mc, tc, workdir)
        if out is None:
            return None
        params = out["result"].params
        start = time.perf_counter()
        out["with_narr"] = _score_corpus(run, params, mc, held, matrices)
        out["without"] = _score_corpus(run, params, mc, stripped, ("fused",))
        try:
            out["assignment"] = sa.assign_articles(no_ids, "top1")
        except STEPALIGN_ERRORS as e:
            run.error("held-out task selection", e)
            return None
        if out["with_narr"] is None or out["without"] is None:
            return None
        out["seconds"] = out["wall_s"] + time.perf_counter() - start
        out["seconds"] += _infer_calls(run, held_dir, workdir / "last.ckpt", targets)
        return out

    workdir = run.scratch / "curriculum"
    done = work(workdir)
    if done is None:
        return
    run.details["step_s"] = done["step_s"]
    run.timing("videos_per_s", len(train_part.videos) * epochs / done["wall_s"],
               "videos/s",
               f"{len(train_part.videos)} videos x {epochs} epochs over one "
               f"train() call of {done['wall_s']:.4f} s, {done['steps']} "
               f"optimizer steps, {done['steps'] / done['wall_s']:.3f} steps/s")
    _latency(run, done["step_s"], "optimizer steps, the first of each epoch left out")
    if run.trace:
        workdir = run.scratch / "curriculum-traced"
        tracer = run.tracer = Tracer(op_after="trainer.adamw")
        with tracer:
            traced = work(workdir)
        if traced is None:
            return
        params, again = done["result"].params, traced["result"].params
        run.op([] if all(np.array_equal(params[k].data, again[k].data) for k in params)
               else ["traced curriculum diverged from the untraced one"])
        _layer_metrics(run, tracer, done["seconds"], traced["seconds"], traced["steps"],
                       "optimizer steps")
        run.notes.append(f"held-out scoring, task selection and the {len(targets)} "
                         f"held-out infer calls are in the traced work and in the "
                         f"per-step counts")
        _top1_agreement(run, traced["assignment"], truth)
    else:
        _quality(run, done["with_narr"]["fused"], done["without"]["fused"],
                 "the held-out split")

    with_narr, without = done["with_narr"], done["without"]
    fused, indirect = with_narr["fused"]["step_r1"], with_narr["indirect"]["step_r1"]
    run.details["held_out_step_r1"] = {
        **{m: [r["step_r1"].numerator, r["step_r1"].denominator]
           for m, r in with_narr.items()},
        "fused_no_narr": [without["fused"]["step_r1"].numerator,
                          without["fused"]["step_r1"].denominator]}
    run.notes.append(
        f"fusion_margin: fused minus indirect step R@1 = "
        f"({fused.numerator:g} - {indirect.numerator:g})/{fused.denominator:g} "
        f"(direct {with_narr['direct_sv']['step_r1'].numerator:g}/{fused.denominator:g})")
    _pseudo_labels(run, workdir, train_part.videos)


# ---------------------------------------------------------------------------
# score


def score(run: Run) -> None:
    sizes = run.sizes
    per_task = sizes.score_corpus["videos_per_task"]

    def build(dest: Path):
        corpus = sa.generate_synthetic(sa.SynthConfig(seed=run.seed, **sizes.score_corpus))
        scored, labeled = sa.split_corpus(
            corpus, sizes.score_train_per_task / per_task, run.seed)
        sa.write_corpus(_strip_task_ids(scored), dest / "corpus")
        return (labeled, {v.id: v.task_id for v in scored.videos},
                {v.id: v.num_frames for v in scored.videos})

    (labeled, truth, frames), root = _setup(run, build)
    mc = _model_config(sizes, labeled.dims)
    tc = _train_config(run.seed, sizes.score_teacher_epochs, sizes.score_main_epochs)

    def work(workdir: Path, seconds: float, passes: int | None = None) -> dict | None:
        """train(), eval passes, infer calls; their times, or None."""
        trained = _train(run, labeled, mc, tc, workdir)
        if trained is None:
            return None
        checkpoint = workdir / "last.ckpt"
        out = _score_passes(run, root, checkpoint, seconds, passes)
        if out is None:
            return None
        # the task comes from the pass's assignment: the corpus has no ids
        targets = {}
        for video_id in list(truth)[:sizes.score_infer_calls]:
            task = out["assignment"][video_id]
            targets[video_id] = (task, labeled.articles[task].num_steps,
                                 min(frames[video_id], mc.max_frames))
        infer_s = _infer_calls(run, root / "corpus", checkpoint, targets)
        out["seconds"] = trained["wall_s"] + out["pass_seconds"] + infer_s
        out["params"] = trained["result"].params
        return out

    budget = run.seconds / 2 if run.trace else run.seconds
    untraced = work(run.scratch / "score-train", budget)
    if untraced is None:
        return
    run.details["pass_s"] = untraced["pass_s"]
    run.details["batch_s"] = untraced["batch_s"]
    run.timing("videos_per_s", len(truth) / statistics.median(untraced["pass_s"]),
               "videos/s", f"{len(truth)} videos over the median of "
               f"{len(untraced['pass_s'])} pass times; a pass reads, loads, assigns, "
               f"batches, forwards, evaluates and merges")
    _latency(run, untraced["batch_s"], "eval batches of 8")
    if run.trace:
        workdir = run.scratch / "score-train-traced"
        tracer = run.tracer = Tracer()
        with tracer:
            traced = work(workdir, 0.0, len(untraced["pass_s"]))
        if traced is None:
            return
        _layer_metrics(run, tracer, untraced["seconds"], traced["seconds"],
                       len(traced["batch_s"]), "batches")
        _top1_agreement(run, traced["assignment"], truth)
        _pseudo_labels(run, workdir, labeled.videos)
        run.notes.append(
            f"eval videos/s untraced {len(truth) / statistics.median(untraced['pass_s']):.4f}"
            f", traced {len(truth) / statistics.median(traced['pass_s']):.4f}; "
            f"train() and {sizes.score_infer_calls} infer calls are in the traced work")
        return
    # the same loop once more without narrations, untimed, for the third
    # grounding metric
    corpus = cli._strip_narrations(sa.read_corpus(root / "corpus"))
    without = _score_corpus(run, untraced["params"], mc, corpus, ("fused",),
                            untraced["assignment"])
    if without is None:
        return
    _quality(run, untraced["fused"], without["fused"], f"{len(truth)} scored videos")
    _pseudo_labels(run, run.scratch / "score-train", labeled.videos)


def _score_passes(run: Run, root: Path, checkpoint: Path, seconds: float,
                  passes: int | None) -> dict | None:
    """Whole eval passes until both the time and the sample floor are met, or
    exactly ``passes`` of them. Checks run outside the timed regions. None when
    stepalign failed on a pass."""
    out = {"pass_seconds": 0.0, "batch_s": [], "pass_s": []}
    need = math.ceil(run.sizes.tail_samples * 100 / (100 - HIGH))

    def more() -> bool:
        if passes is not None:
            return len(out["pass_s"]) < passes
        return (not out["pass_s"] or out["pass_seconds"] < seconds
                or len(out["batch_s"]) < need)

    while more():
        try:
            _score_pass(run, root, checkpoint, out)
        except STEPALIGN_ERRORS as e:
            run.error(f"eval pass {len(out['pass_s']) + 1}", e)
            return None
    return out


def _score_pass(run: Run, root: Path, checkpoint: Path, out: dict) -> None:
    """One eval pass, its times added to ``out``, with its task assignment
    and merged fused reports."""
    tracer = run.tracer
    elapsed = 0.0
    start = time.perf_counter()
    corpus = sa.read_corpus(root / "corpus")
    params, mc = cli._load_model(str(checkpoint))
    assignment = sa.assign_articles(corpus, "top1")
    batches = sa.batch_iter(corpus, BATCH_SIZE, mc.max_frames, None,
                            LabelSource.ASR_TIMESTAMPS, assignment=assignment)
    elapsed += time.perf_counter() - start
    reports = []
    while True:
        if tracer is not None:
            tracer.op += 1
        start = time.perf_counter()
        batch = next(batches, None)
        if batch is None:
            elapsed += time.perf_counter() - start
            break
        alignments = sa.forward(params, mc, batch)
        per_video = [sa.evaluate_video(al, corpus.video_by_id(al.video_id),
                                       matrix="fused") for al in alignments]
        batch_s = time.perf_counter() - start
        elapsed += batch_s
        out["batch_s"].append(batch_s)
        for al, reps in zip(alignments, per_video):
            run.op(alignment_problems(al) + report_problems(reps.values(), al.video_id))
            reports.extend(reps.values())
    start = time.perf_counter()
    merged = sa.merge_reports(reports)
    elapsed += time.perf_counter() - start
    out["pass_seconds"] += elapsed
    out["pass_s"].append(elapsed)
    out["assignment"], out["fused"] = assignment, merged


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run

# root spans whose self time is their own code, not a layer below them
_SELF_NAMES = {"trainer.train": "trainer.train_self", "cli.infer": "cli.infer_self"}


def _layer_metrics(run: Run, tracer: Tracer, untraced_s: float, traced_s: float,
                   ops: int, op_name: str) -> None:
    for span in SPAN_NAMES:
        name = _SELF_NAMES.get(span, span)
        run.metric(f"{name}_s", tracer.self_s.get(span, 0.0), "s")
        run.metric(f"{span}.calls", tracer.calls.get(span, 0), "count")
    c = tracer.counts
    run.metric("autodiff.nodes_per_step", c["nodes"] / ops, "nodes/op",
               f"{c['nodes']} op results over {ops} {op_name}")
    run.metric("autodiff.matmuls_per_step", c["matmuls"] / ops, "matmuls/op",
               f"{c['matmuls']} forward matmuls over {ops} {op_name}")
    run.metric("autodiff.matmul_gflop", c["matmul_flop"] / 1e9, "GFLOP",
               "forward matmuls, 2*m*k*n per product, computed from shapes")
    run.fraction("autodiff.matmul_f64_fraction", c["matmuls_f64"], c["matmuls"],
                 f"{c['matmuls_f64']}/{c['matmuls']} matmuls with a float64 result")
    run.fraction("corpus.pad_fraction", c["token_slots_padded"], c["token_slots"],
                 f"{c['token_slots_padded']}/{c['token_slots']} padded token slots")
    run.metric("corpus.read_mb", c["read_bytes"] / 1e6, "MB",
               f"{c['read_bytes']} bytes, computed from the arrays and manifest read")
    attributed = sum(tracer.self_s.values())
    run.metric("trace.ops", ops, "count", op_name)
    run.metric("trace.untraced_s", untraced_s, "s")
    run.metric("trace.traced_s", traced_s, "s")
    run.metric("trace.overhead_s", traced_s - untraced_s, "s",
               f"traced {traced_s:.4f} s - untraced {untraced_s:.4f} s of the same work")
    run.metric("trace.unattributed_s", traced_s - attributed, "s",
               f"measured time outside every layer span; layer self times sum to "
               f"{attributed:.4f} s")
    run.notes.append("wait time: none; one process, one closed-loop client, "
                     "nothing runs concurrently, so no layer waits on another")


WORKLOADS = {"curriculum": curriculum, "score": score}
