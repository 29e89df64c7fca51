"""Grounding metrics, a 1-D segment detector, and prediction-file scoring.

Everything reports numerator/denominator pairs (MetricReport) so per-video
results can be micro-averaged across a corpus without revisiting the data.
Intervals are inclusive on both endpoints throughout, matching the corpus
ground truth and the pseudo-label format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus.records import Segment, VideoRecord
from .encoder import AlignmentSet


# defaults of the segment rule, shared by labeling, scoring and `infer`:
# a seed expands over frames >= ZETA * seed; local maxima >= MIN_SCORE seed
ZETA = 0.7
MIN_SCORE = 0.0


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class MetricReport:
    """A ratio carried unsimplified so corpus aggregation stays exact."""

    name: str
    numerator: float
    denominator: float

    @property
    def value(self) -> float:
        if self.denominator == 0:
            return float("nan")
        return self.numerator / self.denominator


def merge_reports(reports: Iterable[MetricReport]) -> dict[str, MetricReport]:
    """Micro-average: sum numerators and denominators per metric name."""
    totals: dict[str, list[float]] = {}
    for r in reports:
        acc = totals.setdefault(r.name, [0.0, 0.0])
        acc[0] += r.numerator
        acc[1] += r.denominator
    return {name: MetricReport(name, num, den)
            for name, (num, den) in sorted(totals.items())}


def interval_iou(a: Segment, b: Segment) -> float:
    """Intersection over union of inclusive frame intervals."""
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    return inter / (len(a) + len(b) - inter)


def blob_detect(scores: np.ndarray, min_score: float,
                zeta: float) -> list[tuple[Segment, float]]:
    """Segment proposals from one score row, strongest first.

    Local maxima at or above min_score seed segments (a plateau counts once,
    at its leftmost frame). Seeds are consumed in descending score order and
    each expands while scores stay >= zeta * seed, stopping at frames already
    claimed by a stronger segment; a seed inside claimed territory is dropped.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise EvalError(f"scores must be a non-empty vector, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise EvalError("scores contain non-finite values")
    t = scores.size
    seeds = [i for i in range(t)
             if scores[i] >= min_score
             and (i == 0 or scores[i] > scores[i - 1])
             and (i == t - 1 or scores[i] >= scores[i + 1])]
    seeds.sort(key=lambda i: (-scores[i], i))

    claimed = np.zeros(t, dtype=bool)
    out: list[tuple[Segment, float]] = []
    for p in seeds:
        if claimed[p]:
            continue
        threshold = zeta * scores[p]
        lo = p
        while lo > 0 and not claimed[lo - 1] and scores[lo - 1] >= threshold:
            lo -= 1
        hi = p
        while hi < t - 1 and not claimed[hi + 1] and scores[hi + 1] >= threshold:
            hi += 1
        claimed[lo:hi + 1] = True
        out.append((Segment(lo, hi), float(scores[p])))
    return out


def step_recall_at_1(matrix: np.ndarray,
                     gt: Mapping[int, tuple[Segment, ...]]) -> MetricReport:
    """Fraction of ground-truthed steps whose best frame falls inside a true segment."""
    hits = 0
    for s, segments in gt.items():
        if s >= matrix.shape[0]:
            raise EvalError(f"ground truth references step {s}, matrix has "
                            f"{matrix.shape[0]} rows")
        best = int(np.argmax(matrix[s]))
        hits += any(seg.contains(best) for seg in segments)
    return MetricReport("step_r1", hits, len(gt))


def step_recall_at_k_iou(matrix: np.ndarray,
                         gt: Mapping[int, tuple[Segment, ...]],
                         k: int, iou_threshold: float,
                         min_score: float = MIN_SCORE,
                         zeta: float = ZETA) -> MetricReport:
    """A true segment counts as recalled when any of the row's top-k proposals
    overlaps it at IoU >= threshold."""
    name = f"recall@{k}_iou{iou_threshold:g}"
    hits, total = 0, 0
    for s, segments in gt.items():
        proposals = [seg for seg, _ in blob_detect(matrix[s], min_score, zeta)[:k]]
        for true_seg in segments:
            total += 1
            hits += any(interval_iou(p, true_seg) >= iou_threshold
                        for p in proposals)
    return MetricReport(name, hits, total)


def narration_recall_at_1(a_nv: np.ndarray,
                          narration_steps: Sequence[Optional[int]],
                          gt: Mapping[int, tuple[Segment, ...]]) -> MetricReport:
    """Like step recall but for narration rows, judged against the segment of
    the step each narration describes; unalignable narrations are excluded."""
    return _narration_hits("narration_r1", [int(np.argmax(row)) for row in a_nv],
                           narration_steps, gt)


def _narration_hits(name: str, frames: Sequence[int],
                    narration_steps: Sequence[Optional[int]],
                    gt: Mapping[int, tuple[Segment, ...]]) -> MetricReport:
    """Narration rows whose frame lies in a true segment of their step, over
    the rows whose step has ground truth."""
    hits, total = 0, 0
    for frame, step in zip(frames, narration_steps, strict=True):
        if step is None or step not in gt:
            continue
        total += 1
        hits += any(seg.contains(frame) for seg in gt[step])
    return MetricReport(name, hits, total)


def alignability_auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """ROC-AUC via the rank statistic; tied scores count half.

    Needs finite scores and at least one positive and one negative, otherwise
    the quantity is undefined and we refuse to guess.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise EvalError("scores and labels must be equal-length vectors")
    if not np.isfinite(scores).all():
        raise EvalError("AUC undefined for non-finite scores")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvalError(f"AUC undefined with {n_pos} positives, {n_neg} negatives")
    # average ranks implement the tie = 1/2 convention: a group of c tied
    # scores ending at rank e (1-based) shares rank e - (c - 1) / 2
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def evaluate_video(alignment: AlignmentSet, video: VideoRecord, *,
                   matrix: str = "fused", ks: Sequence[int] = (1,),
                   iou_thresholds: Sequence[float] = (0.5,),
                   ) -> dict[str, MetricReport]:
    """All per-video grounding metrics against stored ground truth."""
    if video.gt_step_segments is None:
        raise EvalError(f"video {video.id} has no step ground truth")
    source = {"fused": alignment.a_fused, "direct_sv": alignment.a_sv,
              "indirect": alignment.a_snv}.get(matrix)
    if source is None:
        raise EvalError(f"unknown matrix {matrix!r}")
    out = {"step_r1": step_recall_at_1(source, video.gt_step_segments)}
    for k in ks:
        for thr in iou_thresholds:
            r = step_recall_at_k_iou(source, video.gt_step_segments, k, thr)
            out[r.name] = r
    if video.gt_narration_steps is not None and alignment.a_nv.shape[0] > 0:
        kept_steps = [video.gt_narration_steps[i] for i in alignment.narration_index]
        out["narration_r1"] = narration_recall_at_1(
            alignment.a_nv, kept_steps, video.gt_step_segments)
        # the baseline that reads no model output: each narration points at
        # the middle frame of its ASR span, clipped to the scored frames
        t = alignment.a_nv.shape[1]
        spans = [video.narration_spans[i].clipped(t) for i in alignment.narration_index]
        out["narration_r1_timestamp"] = _narration_hits(
            "narration_r1_timestamp", [(s.start + s.end) // 2 for s in spans],
            kept_steps, video.gt_step_segments)
    return out


# ---------------------------------------------------------------------------
# prediction interchange


def read_predictions(path: str | Path) -> dict[tuple[str, int], list[Segment]]:
    """Load ranked segment predictions from JSONL rows of
    {"video_id", "step", "segments": [[start, end], ...]}."""
    path = Path(path)
    out: dict[tuple[str, int], list[Segment]] = {}
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                key = (row["video_id"], int(row["step"]))
                segs = [Segment(int(s), int(e)) for s, e in row["segments"]]
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
                raise EvalError(f"{path}:{line_no}: bad prediction row ({e})") from e
            if key in out:
                raise EvalError(f"{path}:{line_no}: duplicate prediction for {key}")
            out[key] = segs
    return out


def evaluate_predictions(predictions: Mapping[tuple[str, int], list[Segment]],
                         videos: Iterable[VideoRecord],
                         ks: Sequence[int] = (1,),
                         iou_thresholds: Sequence[float] = (0.5,),
                         ) -> dict[str, MetricReport]:
    """Recall@k at IoU for externally produced segments; a step with ground
    truth but no prediction row simply scores zero, it is not an error."""
    reports = []
    for video in videos:
        if video.gt_step_segments is None:
            continue
        for s, segments in video.gt_step_segments.items():
            proposals = predictions.get((video.id, s), [])
            for k in ks:
                for thr in iou_thresholds:
                    top = proposals[:k]
                    for true_seg in segments:
                        hit = any(interval_iou(p, true_seg) >= thr for p in top)
                        reports.append(MetricReport(
                            f"recall@{k}_iou{thr:g}", int(hit), 1))
    return merge_reports(reports)
