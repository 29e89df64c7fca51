"""Trigram hashing, caption voting, and article assignment strategies."""

import numpy as np
import pytest

from stepalign.corpus import Corpus, Segment, generate_synthetic, SynthConfig
from stepalign.taskselect import (
    TaskSelectError,
    TrigramEmbedder,
    assign_articles,
    rank_tasks,
)

from conftest import make_article, make_video

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) % 2**64
    return h


def reference_embed(text: str, dim: int) -> np.ndarray:
    """The trigram vector with every trigram hashed anew."""
    vec = np.zeros(dim, dtype=np.float32)
    if len(text) < 3:
        vec[0] = 1.0
        return vec
    for i in range(len(text) - 2):
        vec[fnv1a64(text[i:i + 3].encode("utf-8")) % dim] += 1.0
    return vec / np.linalg.norm(vec)


def test_trigram_buckets_match_reference_hash():
    assert np.array_equal(TrigramEmbedder(dim=64).embed("mix the batter"),
                          reference_embed("mix the batter", 64))


def test_trigram_unit_norm_and_determinism():
    emb = TrigramEmbedder()
    a = emb.embed("mix the batter")
    b = TrigramEmbedder().embed("mix the batter")
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-6)
    assert a.shape == (256,)


def test_short_text_reserved_vector():
    emb = TrigramEmbedder(dim=16)
    for text in ("", "a", "ab"):
        vec = emb.embed(text)
        assert vec[0] == 1.0 and np.all(vec[1:] == 0)


@pytest.mark.parametrize("dim", [16, 256])
def test_cached_trigram_vectors_match_the_uncached_hash(dim):
    # one embedder, which hashes each distinct trigram once, reused across
    # texts that share trigrams, repeat them, are too short for one, or are
    # not ASCII, whose trigrams hash their UTF-8 bytes
    emb = TrigramEmbedder(dim=dim)
    texts = ["mix the batter", "ab", "", "mix the batter well", "aaaaaa",
             "crème brûlée", "烤南瓜派", "mix the batter", "crème"]
    for text in texts:
        assert np.array_equal(emb.embed(text), reference_embed(text, dim))


def test_dim_validation():
    with pytest.raises(TaskSelectError):
        TrigramEmbedder(dim=0)


def test_similar_texts_score_higher():
    emb = TrigramEmbedder()
    query = emb.embed("make pumpkin puree")
    near = emb.embed("making pumpkin puree now")
    far = emb.embed("replace a car tire")
    assert float(query @ near) > float(query @ far)


# ---------------------------------------------------------------------------
# precomputed embeddings


class TableEmbedder:
    """Vectors computed by an outside text encoder, looked up by exact text."""

    def __init__(self, table):
        self.table = table

    def embed(self, text):
        return np.asarray(self.table[text], dtype=np.float32)


def test_precomputed_lookup_and_errors():
    # the votes follow the given vectors, not the trigrams of the texts
    arts = two_articles()
    emb = TableEmbedder({arts[0].title: [1.0, 0.0], arts[1].title: [0.0, 1.0],
                         "a flat car tire": [0.9, 0.1],
                         "whisk": [0.2, 0.8], "jack": [0.0, 3.0]})
    ranking = rank_tasks(emb, ["a flat car tire", "whisk", "jack"], arts)
    assert ranking.ranked == (("tire", 2), ("bake", 1))
    # a caption the table lacks fails loudly instead of voting
    with pytest.raises(KeyError, match="unseen"):
        rank_tasks(emb, ["unseen"], arts)


# ---------------------------------------------------------------------------
# voting


def two_articles():
    return (
        make_article("bake", 2, title="bake a chocolate cake"),
        make_article("tire", 2, title="replace a flat car tire"),
    )


def test_exact_title_caption_votes_for_its_task():
    arts = two_articles()
    ranking = rank_tasks(TrigramEmbedder(), ["replace a flat car tire"], arts)
    assert ranking.best == "tire"
    assert ranking.ranked == (("tire", 1), ("bake", 0))


def test_majority_vote_and_conservation():
    arts = two_articles()
    texts = ["bake a chocolate cake", "chocolate cake time",
             "replace a flat car tire"]
    ranking = rank_tasks(TrigramEmbedder(), texts, arts, video_id="v9")
    assert ranking.video_id == "v9"
    assert ranking.best == "bake"
    assert sum(v for _, v in ranking.ranked) == len(texts)


def test_vote_order_invariant_to_caption_order():
    arts = two_articles()
    texts = ["bake a chocolate cake", "replace a flat car tire",
             "chocolate cake time"]
    a = rank_tasks(TrigramEmbedder(), texts, arts)
    b = rank_tasks(TrigramEmbedder(), list(reversed(texts)), arts)
    assert a.ranked == b.ranked


def test_tie_breaks_to_earlier_article():
    arts = two_articles()
    texts = ["bake a chocolate cake", "replace a flat car tire"]
    ranking = rank_tasks(TrigramEmbedder(), texts, arts)
    assert ranking.ranked[0] == ("bake", 1)


def test_no_captions_falls_to_first_article():
    ranking = rank_tasks(TrigramEmbedder(), [], two_articles())
    assert ranking.best == "bake"
    assert all(v == 0 for _, v in ranking.ranked)


def test_empty_article_list_rejected():
    with pytest.raises(TaskSelectError):
        rank_tasks(TrigramEmbedder(), ["anything"], [])


# ---------------------------------------------------------------------------
# corpus-level assignment


def small_corpus():
    return generate_synthetic(SynthConfig(
        num_tasks=3, steps_per_task=(3, 3), videos_per_task=4,
        frames_range=(24, 32), seed=11))


def test_metadata_strategy_returns_recorded_tasks():
    corpus = small_corpus()
    assignment = assign_articles(corpus, strategy="metadata")
    assert set(assignment) == {v.id for v in corpus.videos}
    for v in corpus.videos:
        assert assignment[v.id] == v.task_id


def test_metadata_strategy_requires_task_ids():
    art = make_article("taskA", 2)
    video = make_video("v0", np.zeros((4, 4)), [Segment(0, 1)], task_id=None)
    corpus = Corpus((video,), {"taskA": art}, (4, 3, 3))
    with pytest.raises(TaskSelectError, match="task_id"):
        assign_articles(corpus, strategy="metadata")


def test_top1_assignment_valid_and_deterministic():
    corpus = small_corpus()
    a = assign_articles(corpus, strategy="top1", embedder=TrigramEmbedder())
    b = assign_articles(corpus, strategy="top1", embedder=TrigramEmbedder())
    assert a == b
    valid = set(corpus.articles)
    assert all(t in valid for t in a.values())
    assert set(a) == {v.id for v in corpus.videos}


def test_top1_recovers_synthetic_tasks():
    # titles seed narration text in the generator, so voting should mostly win
    corpus = small_corpus()
    assignment = assign_articles(corpus, strategy="top1",
                                 embedder=TrigramEmbedder())
    hits = sum(assignment[v.id] == v.task_id for v in corpus.videos)
    assert hits / len(corpus.videos) >= 0.9


def test_top1_assignment_equals_per_video_ranking():
    # assign_articles embeds the titles once per call; each video must still
    # get the task rank_tasks ranks first for it alone
    corpus = small_corpus()
    articles = [corpus.articles[t] for t in sorted(corpus.articles)]
    emb = TrigramEmbedder()
    assignment = assign_articles(corpus, strategy="top1", embedder=emb)
    assert len(set(assignment.values())) == 3
    assert assignment == {v.id: rank_tasks(emb, v.narration_texts, articles, v.id).best
                          for v in corpus.videos}


def test_random_top5_seeded_and_valid():
    corpus = small_corpus()
    emb = TrigramEmbedder()
    a = assign_articles(corpus, strategy="random_top5", embedder=emb, seed=5)
    b = assign_articles(corpus, strategy="random_top5", embedder=emb, seed=5)
    c = assign_articles(corpus, strategy="random_top5", embedder=emb, seed=6)
    assert a == b
    assert any(a[k] != c[k] for k in a) or a == c  # different seed may differ
    valid = set(corpus.articles)
    assert all(t in valid for t in a.values())


def test_unknown_strategy_rejected():
    with pytest.raises(TaskSelectError, match="strategy"):
        assign_articles(small_corpus(), strategy="best_effort")
