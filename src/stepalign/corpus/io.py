"""Corpus persistence: manifest.json plus one tensor file, features.bin.

Layout under the corpus root:

    manifest.json   dims, texts, spans and ground truth (format_version 2)
    features.bin    every feature matrix, as one tensorio tensor file:
        videos/<id>/frames        frame features, (T, D_v) float32
        videos/<id>/narr          narration features, (N, D_n) float32
        articles/<task_id>/steps  step features, (S, D_s) float32

The manifest pins every shape, so a block that was truncated or swapped on
disk fails loudly at read time instead of training on garbage.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .. import tensorio
from .records import Article, Corpus, CorpusError, Segment, VideoRecord

MANIFEST_VERSION = 2
FEATURES = "features.bin"


def _span_list(spans: tuple[Segment, ...]) -> list[list[int]]:
    return [[s.start, s.end] for s in spans]


def write_corpus(corpus: Corpus, root: str | Path) -> Path:
    """Serialize corpus under root; returns the manifest path."""
    root = Path(root)
    arrays = {}
    video_entries = []
    for v in corpus.videos:
        arrays[f"videos/{v.id}/frames"] = v.frame_features
        arrays[f"videos/{v.id}/narr"] = v.narration_features
        gt = None
        if v.gt_step_segments is not None:
            gt = {str(s): _span_list(segs) for s, segs in sorted(v.gt_step_segments.items())}
        video_entries.append({
            "id": v.id,
            "frames": v.num_frames,
            "task_id": v.task_id,
            "narration_texts": list(v.narration_texts),
            "narration_spans": _span_list(v.narration_spans),
            "gt_segments": gt,
            "gt_narration_steps": (None if v.gt_narration_steps is None
                                   else list(v.gt_narration_steps)),
        })

    article_entries = []
    for task_id in sorted(corpus.articles):
        a = corpus.articles[task_id]
        arrays[f"articles/{task_id}/steps"] = a.step_features
        article_entries.append({
            "task_id": a.task_id,
            "title": a.title,
            "steps": list(a.step_texts),
        })
    tensorio.write_tensors(root / FEATURES, arrays)

    manifest = {
        "format_version": MANIFEST_VERSION,
        "dims": list(corpus.dims),
        "videos": video_entries,
        "articles": article_entries,
    }
    path = root / "manifest.json"
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return path


def _require(entry: dict, key: str, where: str):
    if key not in entry:
        raise CorpusError(f"{where}: missing required key '{key}'")
    return entry[key]


def _block(arrays: dict, name: str, shape: tuple[int, int], where: str) -> np.ndarray:
    if name not in arrays:
        raise tensorio.FormatError(f"{where}: {FEATURES} holds no block {name}")
    matrix = arrays[name]
    if matrix.shape != shape:
        raise tensorio.FormatError(
            f"{where}: shape mismatch, manifest says {shape}, "
            f"{FEATURES} holds {matrix.shape}")
    return matrix


def read_corpus(root: str | Path) -> Corpus:
    """Load a corpus written by write_corpus, verifying shapes against the manifest."""
    root = Path(root)
    path = root / "manifest.json"
    if not path.exists():
        raise CorpusError(f"no manifest.json under {root}")
    with open(path) as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as e:
            raise CorpusError(f"{path}: not valid JSON ({e})") from e

    version = manifest.get("format_version")
    if version != MANIFEST_VERSION:
        raise CorpusError(f"{path}: unsupported format_version {version!r}")
    dims = tuple(int(d) for d in _require(manifest, "dims", str(path)))
    if len(dims) != 3:
        raise CorpusError(f"{path}: dims must have three entries, got {dims}")
    d_v, d_n, d_s = dims
    arrays, _ = tensorio.read_tensors(root / FEATURES)

    articles: dict[str, Article] = {}
    for entry in _require(manifest, "articles", str(path)):
        task_id = _require(entry, "task_id", f"{path} article")
        where = f"{path} article {task_id}"
        steps = list(_require(entry, "steps", where))
        feats = _block(arrays, f"articles/{task_id}/steps", (len(steps), d_s), where)
        articles[task_id] = Article(task_id, _require(entry, "title", where),
                                    tuple(steps), feats)

    videos = []
    for entry in _require(manifest, "videos", str(path)):
        vid = _require(entry, "id", f"{path} video")
        where = f"{path} video {vid}"
        t = int(_require(entry, "frames", where))
        spans = tuple(Segment(int(s), int(e))
                      for s, e in _require(entry, "narration_spans", where))
        texts = tuple(_require(entry, "narration_texts", where))
        frames = _block(arrays, f"videos/{vid}/frames", (t, d_v), where)
        narr = _block(arrays, f"videos/{vid}/narr", (len(spans), d_n), where)
        gt_raw = entry.get("gt_segments")
        gt = None
        if gt_raw is not None:
            gt = {int(s): tuple(Segment(int(a), int(b)) for a, b in segs)
                  for s, segs in gt_raw.items()}
        gt_narr = entry.get("gt_narration_steps")
        if gt_narr is not None:
            gt_narr = tuple(None if s is None else int(s) for s in gt_narr)
        videos.append(VideoRecord(
            id=vid, frame_features=frames, narration_texts=texts,
            narration_features=narr, narration_spans=spans,
            task_id=entry.get("task_id"),
            gt_step_segments=gt, gt_narration_steps=gt_narr))

    return Corpus(tuple(videos), articles, (d_v, d_n, d_s))
