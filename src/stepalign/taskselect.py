"""Picking which article a video pairs with when metadata is absent.

Every narration caption votes for the task whose article title it most
resembles in a cheap hashed character-trigram space; majority wins. This runs
before any model training, so it must need nothing but raw text. Captions
embedded by an external text encoder plug in as the embedder: any object
whose embed(text) returns a vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus.records import Article, Corpus

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


class TaskSelectError(ValueError):
    pass


def _fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


class TrigramEmbedder:
    """Character trigrams hashed into a fixed number of buckets, L2-normalized.

    No case folding or tokenization: the synthetic texts are already lowercase
    and real caption preprocessing belongs upstream of this class. Each
    distinct trigram is hashed once per instance; captions repeat a few
    hundred trigrams many thousand times.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise TaskSelectError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._buckets: dict[str, int] = {}  # trigram -> its bucket

    def _bucket(self, trigram: str) -> int:
        bucket = self._buckets.get(trigram)
        if bucket is None:
            bucket = _fnv1a64(trigram.encode("utf-8")) % self.dim
            self._buckets[trigram] = bucket
        return bucket

    def embed(self, text: str) -> np.ndarray:
        if len(text) < 3:
            vec = np.zeros(self.dim, dtype=np.float32)
            vec[0] = 1.0  # too short for any trigram: reserved constant vector
            return vec
        buckets = [self._bucket(text[i:i + 3]) for i in range(len(text) - 2)]
        vec = np.bincount(buckets, minlength=self.dim).astype(np.float32)
        return vec / np.linalg.norm(vec)


@dataclass(frozen=True)
class TaskRanking:
    """Vote totals for one video, best task first; ties broken by article order."""

    video_id: str
    ranked: tuple[tuple[str, int], ...]

    @property
    def best(self) -> str:
        return self.ranked[0][0]


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _embed_titles(embedder: TrigramEmbedder,
                  articles: Sequence[Article]) -> np.ndarray:
    """Unit title vectors, one row per article."""
    if not articles:
        raise TaskSelectError("cannot rank an empty article list")
    return np.stack([_unit(embedder.embed(a.title)) for a in articles])


def rank_tasks(embedder: TrigramEmbedder, narration_texts: Sequence[str],
               articles: Sequence[Article], video_id: str = "") -> TaskRanking:
    """One vote per caption for the most title-similar task.

    Videos with no captions rank every task at zero votes, which resolves to
    the first article; callers wanting randomized fallback use assign_articles.
    """
    return _rank(embedder, _embed_titles(embedder, articles), narration_texts,
                 articles, video_id)


def _rank(embedder: TrigramEmbedder, titles: np.ndarray,
          narration_texts: Sequence[str], articles: Sequence[Article],
          video_id: str) -> TaskRanking:
    """rank_tasks given the articles' title rows from _embed_titles."""
    votes = np.zeros(len(articles), dtype=np.int64)
    for text in narration_texts:
        sims = titles @ _unit(embedder.embed(text))
        votes[int(np.argmax(sims))] += 1  # argmax ties resolve to lowest index
    order = sorted(range(len(articles)), key=lambda i: (-votes[i], i))
    return TaskRanking(video_id,
                       tuple((articles[i].task_id, int(votes[i])) for i in order))


def assign_articles(corpus: Corpus, strategy: str = "top1",
                    embedder: TrigramEmbedder | None = None,
                    seed: int = 0) -> dict[str, str]:
    """Map every video to a task_id.

    Strategies: metadata trusts the stored task_id; top1 takes the vote
    winner; random_top5 samples uniformly among each video's five best
    vote-getters (fewer when the corpus has fewer tasks), a deliberately
    noisy assignment for stress-testing downstream robustness.
    """
    articles = [corpus.articles[t] for t in sorted(corpus.articles)]
    if strategy == "metadata":
        missing = [v.id for v in corpus.videos if v.task_id is None]
        if missing:
            raise TaskSelectError(
                f"strategy=metadata but {len(missing)} videos lack task_id "
                f"(first: {missing[0]})")
        return {v.id: v.task_id for v in corpus.videos}
    if strategy not in ("top1", "random_top5"):
        raise TaskSelectError(f"unknown assignment strategy {strategy!r}")
    if embedder is None:
        embedder = TrigramEmbedder()

    titles = _embed_titles(embedder, articles)
    out = {}
    for ordinal, video in enumerate(corpus.videos):
        ranking = _rank(embedder, titles, video.narration_texts, articles, video.id)
        if strategy == "top1":
            out[video.id] = ranking.best
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(5, ordinal)))
            pool = ranking.ranked[:min(5, len(articles))]
            out[video.id] = pool[int(rng.integers(len(pool)))][0]
    return out
