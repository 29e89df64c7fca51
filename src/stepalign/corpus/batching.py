"""Mini-batch assembly: padding, masks, and alignment label rasterization.

A batch pads every video in it to common frame/narration/step counts and
carries boolean validity masks alongside. Narration-video labels always come
from the narration timestamp spans; step-video labels are all-unsupervised
until a pseudo-label store is supplied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np

from .records import Corpus, CorpusError, VideoRecord


class LabelSource(str, enum.Enum):
    ASR_TIMESTAMPS = "asr_timestamps"
    PROVIDED_PSEUDO = "provided_pseudo"


@dataclass
class Batch:
    """Padded arrays for one step of training or inference.

    Shapes: frames (B, T, D_v), narrations (B, N, D_n), steps (B, S, D_s);
    labels y_nv (B, N, T) and y_sv (B, S, T) are 0/1 float32. A row of
    sup_nv/sup_sv marks whether that narration/step row carries supervision.
    narration_index maps each kept narration row back to its index in the
    source video (truncation can drop rows).
    """

    video_ids: tuple[str, ...]
    frames: np.ndarray
    narrations: np.ndarray
    steps: np.ndarray
    frame_mask: np.ndarray      # (B, T) bool
    narration_mask: np.ndarray  # (B, N) bool
    step_mask: np.ndarray       # (B, S) bool
    y_nv: np.ndarray
    y_sv: np.ndarray
    sup_nv: np.ndarray          # (B, N) bool
    sup_sv: np.ndarray          # (B, S) bool
    narration_index: tuple[tuple[int, ...], ...]


def video_slices(video: VideoRecord, max_frames: int):
    """Frames kept in a crop to max_frames, kept narrations, clipped spans."""
    t = min(video.num_frames, max_frames)
    keep, spans = [], []
    for n, span in enumerate(video.narration_spans):
        clipped = span.clipped(t)
        if clipped is not None:
            keep.append(n)
            spans.append(clipped)
    return t, keep, spans


def batch_iter(
    corpus: Corpus,
    batch_size: int,
    max_frames: int,
    shuffle_seed: Optional[int],
    label_source: LabelSource = LabelSource.ASR_TIMESTAMPS,
    *,
    assignment: Optional[Mapping[str, str]] = None,
    pseudo_store: Optional[Mapping] = None,
) -> Iterator[Batch]:
    """Yield batches over the corpus in a seed-determined order.

    shuffle_seed None keeps corpus order (evaluation); an integer shuffles
    deterministically. assignment overrides each video's task_id (pass the
    output of task voting for metadata-free corpora). pseudo_store maps
    (video_id, step_index) to objects with .kept and .segment and is required
    when label_source is PROVIDED_PSEUDO.
    """
    if batch_size < 1:
        raise CorpusError(f"batch_size must be >= 1, got {batch_size}")
    if max_frames < 1:
        raise CorpusError(f"max_frames must be >= 1, got {max_frames}")
    if label_source == LabelSource.PROVIDED_PSEUDO and pseudo_store is None:
        raise CorpusError("label_source=provided_pseudo needs a pseudo_store")

    order = np.arange(len(corpus.videos))
    if shuffle_seed is not None:
        rng = np.random.default_rng(np.random.SeedSequence(shuffle_seed, spawn_key=(7,)))
        order = rng.permutation(order)

    d_v, d_n, d_s = corpus.dims
    for lo in range(0, len(order), batch_size):
        chunk = [corpus.videos[i] for i in order[lo:lo + batch_size]]
        sliced = [video_slices(v, max_frames) for v in chunk]
        articles = []
        for v in chunk:
            task = v.task_id if assignment is None else assignment.get(v.id, v.task_id)
            if task is not None and task not in corpus.articles:
                raise CorpusError(f"video {v.id}: assigned unknown task {task!r}")
            articles.append(corpus.articles[task] if task is not None else None)

        b = len(chunk)
        t_max = max(t for t, _, _ in sliced)
        n_max = max((len(keep) for _, keep, _ in sliced), default=0)
        s_max = max((a.num_steps for a in articles if a is not None), default=0)
        n_max, s_max = max(n_max, 1), max(s_max, 1)  # keep arrays non-degenerate

        frames = np.zeros((b, t_max, d_v), dtype=np.float32)
        narrs = np.zeros((b, n_max, d_n), dtype=np.float32)
        steps = np.zeros((b, s_max, d_s), dtype=np.float32)
        f_mask = np.zeros((b, t_max), dtype=bool)
        n_mask = np.zeros((b, n_max), dtype=bool)
        s_mask = np.zeros((b, s_max), dtype=bool)
        y_nv = np.zeros((b, n_max, t_max), dtype=np.float32)
        y_sv = np.zeros((b, s_max, t_max), dtype=np.float32)
        sup_nv = np.zeros((b, n_max), dtype=bool)
        sup_sv = np.zeros((b, s_max), dtype=bool)
        narr_index = []

        for i, (video, (t, keep, spans), article) in enumerate(zip(chunk, sliced, articles)):
            frames[i, :t] = video.frame_features[:t]
            f_mask[i, :t] = True
            if keep:
                narrs[i, :len(keep)] = video.narration_features[keep]
                n_mask[i, :len(keep)] = True
                for row, span in enumerate(spans):
                    y_nv[i, row, span.start:span.end + 1] = 1.0
                    sup_nv[i, row] = True
            narr_index.append(tuple(keep))
            if article is not None:
                s = article.num_steps
                steps[i, :s] = article.step_features
                s_mask[i, :s] = True
                if label_source == LabelSource.PROVIDED_PSEUDO:
                    for row in range(s):
                        label = pseudo_store.get((video.id, row))
                        if label is None or not label.kept:
                            continue
                        seg = label.segment.clipped(t)
                        if seg is None:
                            continue  # fully truncated: train as unsupervised
                        y_sv[i, row, seg.start:seg.end + 1] = 1.0
                        sup_sv[i, row] = True

        yield Batch(
            video_ids=tuple(v.id for v in chunk),
            frames=frames, narrations=narrs, steps=steps,
            frame_mask=f_mask, narration_mask=n_mask, step_mask=s_mask,
            y_nv=y_nv, y_sv=y_sv, sup_nv=sup_nv, sup_sv=sup_sv,
            narration_index=tuple(narr_index),
        )
