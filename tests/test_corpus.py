"""Data model validation, the synthetic generator, persistence, and batching."""

import dataclasses
import json

import numpy as np
import pytest

from stepalign.corpus import (Corpus, CorpusError, LabelSource, Segment,
                              SynthConfig, VideoRecord, batch_iter,
                              generate_synthetic, read_corpus, split_corpus,
                              write_corpus)
from stepalign.pseudolabel import PseudoLabel
from stepalign.tensorio import FormatError, read_tensors, write_tensors

from conftest import make_article, make_video


# ---------------------------------------------------------------------------
# records


def test_segment_invariants():
    s = Segment(2, 5)
    assert len(s) == 4
    assert s.contains(2) and s.contains(5) and not s.contains(6)
    assert Segment(0, 0).clipped(1) == Segment(0, 0)
    assert Segment(3, 9).clipped(5) == Segment(3, 4)
    assert Segment(5, 9).clipped(5) is None
    for bad in [(-1, 2), (4, 3)]:
        with pytest.raises(CorpusError):
            Segment(*bad)


def test_video_record_validation():
    with pytest.raises(CorpusError, match="disagree"):
        make_video("v", np.zeros((4, 4)), [Segment(0, 1)],
                   narr_feats=np.zeros((2, 3)))
    with pytest.raises(CorpusError, match="outside"):
        make_video("v", np.zeros((4, 4)), [Segment(0, 4)])
    with pytest.raises(CorpusError, match="outside"):
        make_video("v", np.zeros((4, 4)), [], gt={0: (Segment(2, 9),)})
    with pytest.raises(CorpusError, match="gt_narration_steps"):
        make_video("v", np.zeros((4, 4)), [Segment(0, 1)], gt_narr=(0, 1))


def test_video_arrays_frozen():
    v = make_video("v", np.zeros((4, 4)), [])
    with pytest.raises(ValueError):
        v.frame_features[0, 0] = 1.0


def test_corpus_validation():
    art = make_article("taskA", 2)
    good = make_video("v", np.zeros((4, 4)), [], task_id="taskA")
    with pytest.raises(CorpusError, match="unknown task"):
        Corpus((dataclasses.replace(good, task_id="ghost"),),
               {"taskA": art}, (4, 3, 3))
    with pytest.raises(CorpusError, match="D_v"):
        Corpus((good,), {"taskA": art}, (5, 3, 3))
    with pytest.raises(CorpusError, match="D_s"):
        Corpus((good,), {"taskA": art}, (4, 3, 9))
    c = Corpus((good,), {"taskA": art}, (4, 3, 3))
    assert c.video_by_id("v") is good
    with pytest.raises(KeyError):
        c.video_by_id("missing")


# ---------------------------------------------------------------------------
# synthetic generator


def test_generator_deterministic():
    cfg = SynthConfig(num_tasks=2, videos_per_task=3, seed=11)
    a, b = generate_synthetic(cfg), generate_synthetic(cfg)
    assert [v.id for v in a.videos] == [v.id for v in b.videos]
    for va, vb in zip(a.videos, b.videos):
        assert va.frame_features.tobytes() == vb.frame_features.tobytes()
        assert va.narration_features.tobytes() == vb.narration_features.tobytes()
        assert va.narration_texts == vb.narration_texts
        assert va.narration_spans == vb.narration_spans
        assert va.gt_step_segments == vb.gt_step_segments
    for t in a.articles:
        assert (a.articles[t].step_features.tobytes()
                == b.articles[t].step_features.tobytes())
        assert a.articles[t].step_texts == b.articles[t].step_texts


def test_zero_noise_degenerate_case():
    cfg = SynthConfig(num_tasks=1, steps_per_task=4, videos_per_task=1,
                      frames_range=(40, 40), noise_std=0.0, p_miss_step=0.0,
                      seed=3)
    corpus = generate_synthetic(cfg)
    video = corpus.videos[0]
    gt = video.gt_step_segments
    assert sorted(gt) == [0, 1, 2, 3]
    assert all(len(segs) == 1 for segs in gt.values())
    # left-to-right in article order, non-overlapping, inside [0, T)
    starts = [gt[s][0].start for s in range(4)]
    ends = [gt[s][0].end for s in range(4)]
    assert starts == sorted(starts)
    assert all(e < video.num_frames for e in ends)
    assert all(ends[i] < starts[i + 1] for i in range(3))
    for s in range(4):
        seg = gt[s][0]
        block = video.frame_features[seg.start:seg.end + 1]
        # no noise: every frame of a segment is the same mapped unit latent
        assert np.all(block == block[0])
        assert np.linalg.norm(block[0]) == pytest.approx(1.0, abs=1e-5)
    assert len(video.narration_spans) == 4
    assert video.gt_narration_steps == (0, 1, 2, 3)


def test_step_frames_separable_from_background_only_by_direction():
    cfg = SynthConfig(num_tasks=1, steps_per_task=4, videos_per_task=2,
                      noise_std=0.0, p_miss_step=0.0, seed=5)
    corpus = generate_synthetic(cfg)
    for video in corpus.videos:
        in_seg = np.zeros(video.num_frames, dtype=bool)
        for segs in video.gt_step_segments.values():
            for seg in segs:
                in_seg[seg.start:seg.end + 1] = True
        norms = np.linalg.norm(video.frame_features, axis=1)
        # background frames match step frames in norm, so magnitude alone
        # cannot identify step content
        assert np.allclose(norms, 1.0, atol=1e-4)


def test_realized_step_count_mean():
    # each of 6 steps kept independently with probability 0.5, at least one
    # forced: the mean sits near 6*0.5 + (1/64)
    cfg = SynthConfig(num_tasks=1, steps_per_task=6, videos_per_task=1000,
                      frames_range=(64, 96), p_miss_step=0.5, seed=2)
    corpus = generate_synthetic(cfg)
    counts = [len(v.gt_step_segments) for v in corpus.videos]
    assert abs(np.mean(counts) - 3.0) <= 0.2
    assert min(counts) >= 1


def test_at_least_one_step_survives_certain_miss():
    cfg = SynthConfig(num_tasks=1, steps_per_task=4, videos_per_task=20,
                      p_miss_step=1.0, seed=9)
    corpus = generate_synthetic(cfg)
    assert all(len(v.gt_step_segments) == 1 for v in corpus.videos)


def test_distractor_narrations_marked_unalignable():
    cfg = SynthConfig(num_tasks=3, steps_per_task=4, videos_per_task=4,
                      p_distract_narration=1.0, seed=4)
    corpus = generate_synthetic(cfg)
    flags = [f for v in corpus.videos for f in v.gt_narration_steps]
    assert any(f is None for f in flags)
    assert any(f is not None for f in flags)
    for v in corpus.videos:
        starts = [s.start for s in v.narration_spans]
        assert starts == sorted(starts)


def test_narrations_share_tokens_with_title():
    corpus = generate_synthetic(SynthConfig(num_tasks=2, videos_per_task=2, seed=1))
    for v in corpus.videos:
        title_tokens = set(corpus.articles[v.task_id].title.split())
        for text, step in zip(v.narration_texts, v.gt_narration_steps):
            if step is not None:
                assert title_tokens & set(text.split())


def test_generator_config_validation():
    with pytest.raises(CorpusError, match="fit"):
        SynthConfig(steps_per_task=30, frames_range=(16, 64)).validate()
    with pytest.raises(CorpusError):
        SynthConfig(p_miss_step=1.5).validate()
    with pytest.raises(CorpusError, match="latent_dim"):
        SynthConfig(latent_dim=40, dims=(48, 32, 32)).validate()
    with pytest.raises(CorpusError, match="video dim"):
        SynthConfig(latent_dim=16, background_dim=40, dims=(48, 32, 32)).validate()


# ---------------------------------------------------------------------------
# persistence


def test_corpus_round_trip_bit_exact(tmp_path):
    corpus = generate_synthetic(SynthConfig(
        num_tasks=2, videos_per_task=3, p_distract_narration=0.5, seed=6))
    write_corpus(corpus, tmp_path)
    back = read_corpus(tmp_path)
    assert back.dims == corpus.dims
    assert len(back.videos) == len(corpus.videos)
    for va, vb in zip(corpus.videos, back.videos):
        assert va.id == vb.id
        assert va.task_id == vb.task_id
        assert va.frame_features.tobytes() == vb.frame_features.tobytes()
        assert va.narration_features.tobytes() == vb.narration_features.tobytes()
        assert va.narration_texts == vb.narration_texts
        assert va.narration_spans == vb.narration_spans
        assert va.gt_step_segments == vb.gt_step_segments
        assert va.gt_narration_steps == vb.gt_narration_steps
    for t, art in corpus.articles.items():
        assert back.articles[t].title == art.title
        assert back.articles[t].step_texts == art.step_texts
        assert back.articles[t].step_features.tobytes() == art.step_features.tobytes()


def test_empty_corpus_round_trip(tmp_path):
    empty = Corpus((), {}, (4, 3, 3))
    write_corpus(empty, tmp_path)
    back = read_corpus(tmp_path)
    assert len(back.videos) == 0 and not back.articles


def test_write_leaves_a_manifest_and_one_feature_file(tmp_path):
    corpus = generate_synthetic(SynthConfig(num_tasks=2, videos_per_task=3, seed=0))
    write_corpus(corpus, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.bin",
                                                          "manifest.json"]
    arrays, _ = read_tensors(tmp_path / "features.bin")
    assert list(arrays)[:2] == [f"videos/{corpus.videos[0].id}/frames",
                                f"videos/{corpus.videos[0].id}/narr"]
    assert len(arrays) == 2 * len(corpus.videos) + len(corpus.articles)


def test_read_rejects_truncated_feature_file(tmp_path):
    corpus = generate_synthetic(SynthConfig(num_tasks=1, videos_per_task=1, seed=0))
    write_corpus(corpus, tmp_path)
    victim = tmp_path / "features.bin"
    victim.write_bytes(victim.read_bytes()[:-8])
    with pytest.raises(FormatError, match="truncated"):
        read_corpus(tmp_path)


def test_read_names_the_video_whose_block_disagrees(tmp_path):
    corpus = generate_synthetic(SynthConfig(num_tasks=1, videos_per_task=3, seed=0))
    write_corpus(corpus, tmp_path)
    victim = corpus.videos[1].id
    arrays, meta = read_tensors(tmp_path / "features.bin")
    frames = arrays[f"videos/{victim}/frames"]
    # the same floats under another shape: only the manifest can tell
    arrays[f"videos/{victim}/frames"] = frames.reshape(frames.shape[1], -1)
    write_tensors(tmp_path / "features.bin", arrays, meta)
    with pytest.raises(FormatError, match=f"video {victim}: shape mismatch"):
        read_corpus(tmp_path)
    del arrays[f"videos/{victim}/frames"]
    write_tensors(tmp_path / "features.bin", arrays, meta)
    with pytest.raises(FormatError, match=f"video {victim}: .*no block"):
        read_corpus(tmp_path)
    article = next(iter(corpus.articles))
    arrays[f"videos/{victim}/frames"] = frames
    del arrays[f"articles/{article}/steps"]
    write_tensors(tmp_path / "features.bin", arrays, meta)
    with pytest.raises(FormatError, match=f"article {article}: .*no block"):
        read_corpus(tmp_path)


def test_read_refuses_a_format_1_corpus(tmp_path):
    corpus = generate_synthetic(SynthConfig(num_tasks=1, videos_per_task=1, seed=0))
    write_corpus(corpus, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["format_version"] == 2
    manifest["format_version"] = 1
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorpusError, match="format_version 1"):
        read_corpus(tmp_path)


def test_read_rejects_unknown_task_reference(tmp_path):
    corpus = generate_synthetic(SynthConfig(num_tasks=1, videos_per_task=1, seed=0))
    write_corpus(corpus, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["videos"][0]["task_id"] = "ghost"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorpusError, match="ghost"):
        read_corpus(tmp_path)


def test_read_rejects_bad_manifest(tmp_path):
    with pytest.raises(CorpusError, match="manifest"):
        read_corpus(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(CorpusError, match="JSON"):
        read_corpus(tmp_path)
    (tmp_path / "manifest.json").write_text('{"format_version": 99}')
    with pytest.raises(CorpusError, match="format_version"):
        read_corpus(tmp_path)


# ---------------------------------------------------------------------------
# batching


def _single_video_corpus(t=5, spans=(Segment(1, 3),)):
    art = make_article("taskA", 2)
    v = make_video("v", np.ones((t, 4)), list(spans), task_id="taskA")
    return Corpus((v,), {"taskA": art}, (4, 3, 3))


def test_span_rasterization():
    batch = next(batch_iter(_single_video_corpus(), 4, 64, None))
    assert batch.y_nv[0, 0].tolist() == [0, 1, 1, 1, 0]
    assert batch.sup_nv[0, 0]
    # steps carry no labels under timestamp supervision
    assert not batch.sup_sv.any()
    assert batch.y_sv.sum() == 0


def test_padding_masks():
    art = make_article("taskA", 2)
    va = make_video("a", np.ones((4, 4)), [Segment(0, 1)], task_id="taskA")
    vb = make_video("b", np.ones((7, 4)), [Segment(2, 4), Segment(5, 6)],
                    task_id="taskA")
    corpus = Corpus((va, vb), {"taskA": art}, (4, 3, 3))
    batch = next(batch_iter(corpus, 2, 64, None))
    assert batch.frames.shape == (2, 7, 4)
    assert batch.frame_mask[0].tolist() == [True] * 4 + [False] * 3
    assert batch.frame_mask[1].all()
    assert batch.narration_mask[0].tolist() == [True, False]
    # padding carries zero features and zero labels
    assert batch.frames[0, 4:].sum() == 0
    assert batch.y_nv[0, :, 4:].sum() == 0
    assert batch.y_nv[0, 1].sum() == 0


def test_truncation_drops_fully_clipped_narrations():
    corpus = _single_video_corpus(t=10, spans=(Segment(0, 2), Segment(8, 9)))
    batch = next(batch_iter(corpus, 1, 5, None))
    assert batch.frames.shape[1] == 5
    assert batch.narration_index == ((0,),)
    assert batch.sup_nv[0].tolist() == [True]
    assert batch.y_nv[0, 0].tolist() == [1, 1, 1, 0, 0]


def test_narration_span_clipped_at_truncation_edge():
    corpus = _single_video_corpus(t=10, spans=(Segment(3, 8),))
    batch = next(batch_iter(corpus, 1, 5, None))
    assert batch.y_nv[0, 0].tolist() == [0, 0, 0, 1, 1]


def test_shuffle_determinism_and_coverage():
    corpus = generate_synthetic(SynthConfig(num_tasks=2, videos_per_task=5, seed=0))
    runs = []
    for _ in range(2):
        ids = [vid for b in batch_iter(corpus, 3, 64, 123) for vid in b.video_ids]
        runs.append(ids)
    assert runs[0] == runs[1]
    assert sorted(runs[0]) == sorted(v.id for v in corpus.videos)
    unshuffled = [vid for b in batch_iter(corpus, 3, 64, None) for vid in b.video_ids]
    assert unshuffled == [v.id for v in corpus.videos]


def test_pseudo_label_source():
    corpus = _single_video_corpus()
    store = {("v", 0): PseudoLabel("v", 0, Segment(2, 4), 0.9),
             ("v", 1): PseudoLabel("v", 1, None, 0.1)}
    batch = next(batch_iter(corpus, 1, 64, None,
                            LabelSource.PROVIDED_PSEUDO, pseudo_store=store))
    assert batch.sup_sv[0].tolist() == [True, False]
    assert batch.y_sv[0, 0].tolist() == [0, 0, 1, 1, 1]
    assert batch.y_sv[0, 1].sum() == 0
    with pytest.raises(CorpusError, match="pseudo_store"):
        next(batch_iter(corpus, 1, 64, None, LabelSource.PROVIDED_PSEUDO))


def test_pseudo_label_fully_truncated_becomes_unsupervised():
    corpus = _single_video_corpus(t=10, spans=(Segment(0, 1),))
    store = {("v", 0): PseudoLabel("v", 0, Segment(6, 8), 0.9)}
    batch = next(batch_iter(corpus, 1, 4, None,
                            LabelSource.PROVIDED_PSEUDO, pseudo_store=store))
    assert not batch.sup_sv[0, 0]


def test_assignment_override():
    art_a, art_b = make_article("taskA", 2), make_article("taskB", 3)
    v = make_video("v", np.ones((4, 4)), [], task_id="taskA")
    corpus = Corpus((v,), {"taskA": art_a, "taskB": art_b}, (4, 3, 3))
    batch = next(batch_iter(corpus, 1, 64, None, assignment={"v": "taskB"}))
    np.testing.assert_array_equal(batch.steps[0], art_b.step_features)
    with pytest.raises(CorpusError, match="unknown task"):
        next(batch_iter(corpus, 1, 64, None, assignment={"v": "ghost"}))


def test_empty_corpus_yields_no_batches():
    assert list(batch_iter(Corpus((), {}, (4, 3, 3)), 2, 64, None)) == []


def test_batch_size_validation():
    with pytest.raises(CorpusError):
        next(batch_iter(Corpus((), {}, (4, 3, 3)), 0, 64, None))
    with pytest.raises(CorpusError):
        next(batch_iter(Corpus((), {}, (4, 3, 3)), 2, 0, None))


# ---------------------------------------------------------------------------
# splitting


def test_split_corpus_stratified():
    corpus = generate_synthetic(SynthConfig(num_tasks=3, videos_per_task=10, seed=8))
    train, held = split_corpus(corpus, 0.2, seed=1)
    assert len(train.videos) + len(held.videos) == len(corpus.videos)
    assert not {v.id for v in train.videos} & {v.id for v in held.videos}
    held_tasks = {v.task_id for v in held.videos}
    assert held_tasks == set(corpus.articles)  # every task holds something out
    # deterministic
    train2, held2 = split_corpus(corpus, 0.2, seed=1)
    assert [v.id for v in held2.videos] == [v.id for v in held.videos]
    assert [v.id for v in split_corpus(corpus, 0.2, seed=2)[1].videos] \
        != [v.id for v in held.videos]


def test_split_corpus_edge_cases():
    corpus = generate_synthetic(SynthConfig(num_tasks=1, videos_per_task=4, seed=0))
    train, held = split_corpus(corpus, 0.0, seed=0)
    assert len(train.videos) == 4 and len(held.videos) == 0
    with pytest.raises(CorpusError):
        split_corpus(corpus, 1.0, seed=0)
    single = Corpus(corpus.videos[:1], corpus.articles, corpus.dims)
    train, held = split_corpus(single, 0.5, seed=0)
    assert len(train.videos) == 1 and len(held.videos) == 0
