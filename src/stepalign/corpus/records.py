"""Core data model: segments, videos, articles, corpora.

All feature payloads are float32 numpy arrays at 1 feature per second, so
frame indices double as integer timestamps. Segments use inclusive endpoints.
Records are frozen and their arrays are marked read-only: a corpus never
mutates after construction and can be shared across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class CorpusError(ValueError):
    """A record or corpus violates its structural invariants."""


def as_features(arr, what: str = "features") -> np.ndarray:
    """Validate and freeze a 2-D float32 feature array (rows may be 0)."""
    out = np.ascontiguousarray(arr, dtype=np.float32)
    if out.ndim != 2:
        raise CorpusError(f"{what}: expected 2-D array, got shape {out.shape}")
    if out.shape[1] < 1:
        raise CorpusError(f"{what}: need at least one column, got {out.shape}")
    if not np.isfinite(out).all():
        raise CorpusError(f"{what}: non-finite values")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, order=True)
class Segment:
    """Inclusive frame run [start, end]."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start <= self.end):
            raise CorpusError(f"bad segment [{self.start}, {self.end}]")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def contains(self, t: int) -> bool:
        return self.start <= t <= self.end

    def clipped(self, max_frames: int) -> "Segment | None":
        """Intersect with [0, max_frames); None when nothing survives."""
        if self.start >= max_frames:
            return None
        return Segment(self.start, min(self.end, max_frames - 1))


@dataclass(frozen=True)
class VideoRecord:
    """One video: T frame features plus its narration track and ground truth.

    ``narration_spans`` are the noisy ASR timestamps used as training labels.
    ``gt_step_segments`` / ``gt_narration_steps`` are evaluation-only ground
    truth: the true temporal segments per article step, and per narration the
    index of the step it narrates (None for distractors, which makes the
    narration non-alignable).
    """

    id: str
    frame_features: np.ndarray
    narration_texts: tuple[str, ...]
    narration_features: np.ndarray
    narration_spans: tuple[Segment, ...]
    task_id: str | None = None
    gt_step_segments: dict[int, tuple[Segment, ...]] | None = None
    gt_narration_steps: tuple[int | None, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "frame_features", as_features(
            self.frame_features, what=f"video {self.id}: frames"))
        object.__setattr__(self, "narration_features", as_features(
            self.narration_features, what=f"video {self.id}: narrations"))
        object.__setattr__(self, "narration_texts", tuple(self.narration_texts))
        object.__setattr__(self, "narration_spans", tuple(self.narration_spans))
        n = self.narration_features.shape[0]
        if len(self.narration_texts) != n or len(self.narration_spans) != n:
            raise CorpusError(
                f"video {self.id}: narration texts/features/spans disagree "
                f"({len(self.narration_texts)}/{n}/{len(self.narration_spans)})")
        t = self.num_frames
        for span in self.narration_spans:
            if span.end >= t:
                raise CorpusError(f"video {self.id}: span {span} outside [0, {t})")
        if self.gt_step_segments is not None:
            frozen = {}
            for step, segs in self.gt_step_segments.items():
                segs = tuple(segs)
                for seg in segs:
                    if seg.end >= t:
                        raise CorpusError(
                            f"video {self.id}: gt segment {seg} outside [0, {t})")
                frozen[int(step)] = segs
            object.__setattr__(self, "gt_step_segments", frozen)
        if self.gt_narration_steps is not None:
            flags = tuple(self.gt_narration_steps)
            if len(flags) != n:
                raise CorpusError(f"video {self.id}: gt_narration_steps length != N")
            object.__setattr__(self, "gt_narration_steps", flags)

    @property
    def num_frames(self) -> int:
        return self.frame_features.shape[0]


@dataclass(frozen=True)
class Article:
    """Ordered instructional steps for one task; step order is meaningful."""

    task_id: str
    title: str
    step_texts: tuple[str, ...]
    step_features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "step_texts", tuple(self.step_texts))
        object.__setattr__(self, "step_features", as_features(
            self.step_features, what=f"article {self.task_id}: steps"))
        if len(self.step_texts) < 1:
            raise CorpusError(f"article {self.task_id}: needs at least one step")
        if self.step_features.shape[0] != len(self.step_texts):
            raise CorpusError(
                f"article {self.task_id}: {len(self.step_texts)} texts but "
                f"{self.step_features.shape[0]} feature rows")

    @property
    def num_steps(self) -> int:
        return len(self.step_texts)


@dataclass(frozen=True)
class Corpus:
    """A set of videos plus the article library they draw steps from."""

    videos: tuple[VideoRecord, ...]
    articles: dict[str, Article]
    dims: tuple[int, int, int]  # (D_v, D_n, D_s)
    _by_id: dict[str, VideoRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "videos", tuple(self.videos))
        # built in reverse so the first of any repeated id wins, as in a scan
        object.__setattr__(self, "_by_id", {v.id: v for v in reversed(self.videos)})
        d_v, d_n, d_s = self.dims
        for video in self.videos:
            if video.frame_features.shape[1] != d_v:
                raise CorpusError(f"video {video.id}: D_v != {d_v}")
            if video.narration_features.shape[1] != d_n:
                raise CorpusError(f"video {video.id}: D_n != {d_n}")
            if video.task_id is not None and video.task_id not in self.articles:
                raise CorpusError(
                    f"video {video.id}: unknown task id {video.task_id!r}")
        for article in self.articles.values():
            if article.step_features.shape[1] != d_s:
                raise CorpusError(f"article {article.task_id}: D_s != {d_s}")

    def video_by_id(self, video_id: str) -> VideoRecord:
        return self._by_id[video_id]


def split_corpus(corpus: Corpus, eval_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic train/eval split, stratified per task id.

    Videos without a task id land in the train side. At least one video per
    task is held out whenever eval_fraction > 0 and the task has >= 2 videos.
    """
    if not (0.0 <= eval_fraction < 1.0):
        raise CorpusError(f"eval_fraction must be in [0, 1), got {eval_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(91,)))
    by_task: dict[str | None, list[VideoRecord]] = {}
    for video in corpus.videos:
        by_task.setdefault(video.task_id, []).append(video)
    train, held = [], []
    for task_id in sorted(by_task, key=lambda k: (k is None, k)):
        group = by_task[task_id]
        if task_id is None or eval_fraction == 0.0 or len(group) < 2:
            train.extend(group)
            continue
        k = max(1, int(round(eval_fraction * len(group))))
        picked = set(rng.choice(len(group), size=min(k, len(group) - 1), replace=False).tolist())
        for i, video in enumerate(group):
            (held if i in picked else train).append(video)
    order = {v.id: i for i, v in enumerate(corpus.videos)}
    train.sort(key=lambda v: order[v.id])
    held.sort(key=lambda v: order[v.id])
    return (Corpus(tuple(train), corpus.articles, corpus.dims),
            Corpus(tuple(held), corpus.articles, corpus.dims))
