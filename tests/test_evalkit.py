"""Grounding metrics: IoU, blob proposals, recalls, AUC, and aggregation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stepalign
from stepalign.corpus import Segment
from stepalign.encoder import AlignmentSet
from stepalign.evalkit import (
    EvalError,
    MetricReport,
    alignability_auc,
    blob_detect,
    evaluate_predictions,
    evaluate_video,
    interval_iou,
    merge_reports,
    narration_recall_at_1,
    read_predictions,
    step_recall_at_1,
    step_recall_at_k_iou,
)

from conftest import make_video


def test_iou_values():
    assert interval_iou(Segment(2, 5), Segment(2, 5)) == 1.0
    assert interval_iou(Segment(0, 3), Segment(4, 9)) == 0.0
    assert interval_iou(Segment(0, 10), Segment(5, 15)) == pytest.approx(0.375)


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(30)
    for _ in range(200):
        a = sorted(rng.integers(0, 30, size=2))
        b = sorted(rng.integers(0, 30, size=2))
        sa, sb = Segment(*map(int, a)), Segment(*map(int, b))
        iou = interval_iou(sa, sb)
        assert iou == interval_iou(sb, sa)
        assert 0.0 <= iou <= 1.0
        assert (iou == 1.0) == (sa == sb)


# ---------------------------------------------------------------------------
# blob proposals


def test_two_blob_worked_example():
    blobs = blob_detect(np.array([0.1, 0.9, 0.1, 0.8, 0.1]), 0.5, 0.7)
    assert blobs == [(Segment(1, 1), 0.9), (Segment(3, 3), 0.8)]


def test_monotone_row_single_blob():
    blobs = blob_detect(np.linspace(0.0, 1.0, 8), 0.0, 0.7)
    assert len(blobs) == 1
    seg, score = blobs[0]
    assert score == 1.0 and seg.end == 7


def test_everything_below_min_score_is_empty():
    assert blob_detect(np.array([0.1, 0.2, 0.1]), 0.5, 0.7) == []


def test_plateau_seeds_once_at_left_edge():
    blobs = blob_detect(np.array([0.1, 0.8, 0.8, 0.8, 0.1]), 0.5, 0.9)
    assert len(blobs) == 1
    assert blobs[0] == (Segment(1, 3), 0.8)


def test_weaker_blob_stops_at_claimed_frames():
    # the second seed would absorb index 2 were it not already claimed
    scores = np.array([0.9, 0.88, 1.0, 0.3])
    blobs = blob_detect(scores, 0.0, 0.95)
    assert blobs == [(Segment(2, 2), 1.0), (Segment(0, 1), 0.9)]


def test_seed_inside_claimed_territory_dropped():
    # the local max at index 3 is swallowed by the stronger blob's expansion
    scores = np.array([1.0, 0.95, 0.9, 0.96, 0.3])
    blobs = blob_detect(scores, 0.0, 0.9)
    assert blobs == [(Segment(0, 3), 1.0)]


# with no seed floor the first proposal is the pseudo-label segment: the first
# argmax, grown while scores stay >= zeta * peak

def test_first_proposal_worked_example():
    blobs = blob_detect(np.array([0.1, 0.5, 0.9, 0.8, 0.6, 0.2]), -np.inf, 0.7)
    assert blobs[0] == (Segment(2, 3), 0.9)


def test_first_proposal_of_constant_row_spans_everything():
    assert blob_detect(np.full(4, 0.5), -np.inf, 0.7) == [(Segment(0, 3), 0.5)]


def test_first_proposal_of_single_frame():
    assert blob_detect(np.array([0.4]), -np.inf, 0.7) == [(Segment(0, 0), 0.4)]


def test_first_proposal_peak_tie_takes_lowest_index():
    blobs = blob_detect(np.array([0.1, 0.8, 0.2, 0.8, 0.1]), -np.inf, 0.9)
    assert blobs[0] == (Segment(1, 1), 0.8)


def test_blob_invariants():
    rng = np.random.default_rng(31)
    for trial in range(300):
        t = int(rng.integers(1, 50))
        scores = rng.uniform(-1, 1, size=t)
        drawn = float(rng.uniform(-1, 1))
        zeta = float(rng.uniform(0.1, 1.0))
        for min_score in (drawn, -np.inf):  # -inf: every local maximum seeds
            blobs = blob_detect(scores, min_score, zeta)
            if min_score == -np.inf:
                # the strongest seed is the first argmax, as labeling assumes
                assert blobs[0][0].start <= int(np.argmax(scores)) <= blobs[0][0].end
                assert blobs[0][1] == scores.max()
            seen = np.zeros(t, dtype=bool)
            prev = np.inf
            for seg, score in blobs:
                assert score <= prev  # strongest first
                prev = score
                assert score >= min_score
                span = np.arange(seg.start, seg.end + 1)
                assert not seen[span].any()  # disjoint
                # growth stops at a claimed frame or one below the threshold
                for edge in (seg.start - 1, seg.end + 1):
                    if 0 <= edge < t:
                        assert seen[edge] or scores[edge] < zeta * score
                seen[span] = True
                assert score in scores[span]  # the seed sits inside its segment
                if score > 0:
                    assert np.all(scores[span] >= zeta * score - 1e-12)
                else:
                    # a nonpositive seed has its threshold above itself
                    assert len(seg) == 1


def test_blob_input_validation():
    with pytest.raises(EvalError):
        blob_detect(np.array([]), 0.0, 0.7)
    with pytest.raises(EvalError):
        blob_detect(np.array([0.1, np.inf]), 0.0, 0.7)
    with pytest.raises(EvalError):
        blob_detect(np.zeros((2, 2)), 0.0, 0.7)


# ---------------------------------------------------------------------------
# recalls


def test_step_recall_at_1_values():
    m = np.array([
        [0.1, 0.9, 0.2, 0.1],   # argmax 1, inside [0, 1]
        [0.8, 0.1, 0.2, 0.3],   # argmax 0, outside [2, 3]
        [0.1, 0.2, 0.3, 0.9],   # argmax 3, inside [3, 3]
        [0.9, 0.1, 0.1, 0.8],   # argmax 0, inside [0, 0]
    ])
    gt = {0: (Segment(0, 1),), 1: (Segment(2, 3),),
          2: (Segment(3, 3),), 3: (Segment(0, 0),)}
    r = step_recall_at_1(m, gt)
    assert (r.numerator, r.denominator) == (3, 4)
    assert r.value == 0.75
    assert step_recall_at_1(m, {0: (Segment(0, 1),)}).value == 1.0
    assert step_recall_at_1(m, {1: (Segment(2, 3),)}).value == 0.0


def test_step_recall_rejects_missing_rows():
    with pytest.raises(EvalError, match="step 5"):
        step_recall_at_1(np.zeros((2, 4)), {5: (Segment(0, 1),)})


def test_recall_at_1_invariant_to_increasing_transforms():
    rng = np.random.default_rng(32)
    m = rng.uniform(-1, 1, size=(3, 10))
    gt = {0: (Segment(1, 3),), 1: (Segment(5, 9),), 2: (Segment(0, 0),)}
    base = step_recall_at_1(m, gt)
    warped = step_recall_at_1(3.0 * m + 2.0, gt)
    assert (base.numerator, base.denominator) == (warped.numerator,
                                                  warped.denominator)


def test_recall_at_k_iou_worked_cases():
    # a single plateau blob [0, 10] against gt [5, 15]: IoU = 0.375
    row = np.zeros(20)
    row[0:11] = 1.0
    m = row[None]
    gt = {0: (Segment(5, 15),)}
    hit = step_recall_at_k_iou(m, gt, k=1, iou_threshold=0.3, zeta=0.9)
    miss = step_recall_at_k_iou(m, gt, k=1, iou_threshold=0.5, zeta=0.9)
    assert hit.name == "recall@1_iou0.3"
    assert (hit.numerator, hit.denominator) == (1, 1)
    assert (miss.numerator, miss.denominator) == (0, 1)


def test_recall_at_k_second_proposal_counts():
    scores = np.array([0.1, 0.9, 0.1, 0.8, 0.1])
    m = scores[None]
    gt = {0: (Segment(3, 3),)}  # matches the weaker blob exactly
    at1 = step_recall_at_k_iou(m, gt, k=1, iou_threshold=0.5, min_score=0.5)
    at2 = step_recall_at_k_iou(m, gt, k=2, iou_threshold=0.5, min_score=0.5)
    assert at1.numerator == 0
    assert at2.numerator == 1


def test_recall_monotone_in_k_and_threshold():
    rng = np.random.default_rng(33)
    for _ in range(50):
        m = rng.uniform(-1, 1, size=(2, 25))
        gt = {}
        for s in range(2):
            a, b = sorted(rng.integers(0, 25, size=2))
            gt[s] = (Segment(int(a), int(b)),)
        prev = -1
        for k in (1, 2, 4):
            r = step_recall_at_k_iou(m, gt, k=k, iou_threshold=0.4,
                                     min_score=-1.0)
            assert r.numerator >= prev
            prev = r.numerator
        loose = step_recall_at_k_iou(m, gt, k=2, iou_threshold=0.2,
                                     min_score=-1.0)
        tight = step_recall_at_k_iou(m, gt, k=2, iou_threshold=0.8,
                                     min_score=-1.0)
        assert loose.numerator >= tight.numerator


def test_recall_at_k_matches_direct_oracle():
    rng = np.random.default_rng(34)
    for trial in range(200):
        s, t = int(rng.integers(1, 4)), int(rng.integers(4, 20))
        m = rng.uniform(-1, 1, size=(s, t))
        k = int(rng.integers(1, 4))
        thr = float(rng.uniform(0.1, 0.9))
        gt = {}
        for row in range(s):
            n_seg = int(rng.integers(1, 3))
            segs = []
            for _ in range(n_seg):
                a, b = sorted(rng.integers(0, t, size=2))
                segs.append(Segment(int(a), int(b)))
            gt[row] = tuple(segs)
        got = step_recall_at_k_iou(m, gt, k=k, iou_threshold=thr,
                                   min_score=-1.0, zeta=0.7)
        hits = total = 0
        for row, segs in gt.items():
            props = [sg for sg, _ in blob_detect(m[row], -1.0, 0.7)[:k]]
            for true_seg in segs:
                total += 1
                hits += any(interval_iou(p, true_seg) >= thr for p in props)
        assert (got.numerator, got.denominator) == (hits, total), f"trial {trial}"


def test_narration_recall_excludes_unalignable():
    a_nv = np.array([
        [0.9, 0.1, 0.1],   # step 0, argmax 0 inside [0, 1] -> hit
        [0.1, 0.1, 0.9],   # unalignable, skipped
        [0.9, 0.1, 0.1],   # step 1, argmax 0 outside [2, 2] -> miss
        [0.1, 0.1, 0.9],   # step 7 absent from gt, skipped
    ])
    steps = [0, None, 1, 7]
    gt = {0: (Segment(0, 1),), 1: (Segment(2, 2),)}
    r = narration_recall_at_1(a_nv, steps, gt)
    assert (r.numerator, r.denominator) == (1, 2)


def test_narration_recall_fraction():
    # ten narrations, six land inside their segments
    rows = []
    steps = []
    for i in range(10):
        row = np.zeros(10)
        row[i] = 1.0  # argmax at i: inside [0, 5] for the first six rows only
        rows.append(row)
        steps.append(0)
    gt = {0: (Segment(0, 5),)}
    r = narration_recall_at_1(np.array(rows), steps, gt)
    assert r.value == pytest.approx(0.6)
    assert (r.numerator, r.denominator) == (6, 10)


# ---------------------------------------------------------------------------
# AUC


def test_auc_closed_forms():
    assert alignability_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert alignability_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    assert alignability_auc([0.9, 0.7, 0.4, 0.2], [1, 0, 1, 0]) == 0.75
    assert alignability_auc([0.1, 0.2], [0, 1]) == 1.0
    assert alignability_auc([0.2, 0.1], [0, 1]) == 0.0


def test_auc_ranks_match_scipy_rankdata():
    from scipy.stats import rankdata
    rng = np.random.default_rng(11)
    for n in (2, 7, 40):
        scores = rng.integers(0, 4, size=n).astype(float)  # heavy ties
        ranks = rankdata(scores)
        # one positive at i gives AUC = (rank_i - 1) / n_neg, so every rank shows
        for i in range(n):
            labels = np.arange(n) == i
            assert alignability_auc(scores, labels) == (ranks[i] - 1) / (n - 1)
        labels = rng.random(n) < 0.5
        labels[:2] = [True, False]
        n_pos = labels.sum()
        u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
        assert alignability_auc(scores, labels) == u / (n_pos * (n - n_pos))


def test_import_loads_no_scipy_module():
    code = ("import stepalign, stepalign.cli, sys; "
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "assert not loaded, loaded")
    src = Path(stepalign.__file__).resolve().parent.parent
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_non_finite_scores_rejected(bad):
    with pytest.raises(EvalError, match="non-finite"):
        alignability_auc([0.1, bad, 0.3], [1, 0, 0])


def test_auc_single_class_rejected():
    with pytest.raises(EvalError):
        alignability_auc([0.1, 0.9], [1, 1])
    with pytest.raises(EvalError):
        alignability_auc([0.1, 0.9], [0, 0])
    with pytest.raises(EvalError):
        alignability_auc([0.1, 0.9], [0])


def test_auc_matches_pairwise_count():
    rng = np.random.default_rng(35)
    for _ in range(100):
        n = int(rng.integers(3, 20))
        scores = np.round(rng.uniform(0, 1, size=n), 1)  # force ties
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        got = alignability_auc(scores, labels)
        pos = scores[labels]
        neg = scores[~labels]
        wins = sum((p > n_).sum() + 0.5 * (p == n_).sum() for p, n_ in
                   [(pos[:, None], neg[None, :])])
        expected = float(wins / (len(pos) * len(neg)))
        assert got == pytest.approx(expected, abs=1e-12)


def test_auc_invariant_to_increasing_transform():
    rng = np.random.default_rng(36)
    scores = rng.uniform(-1, 1, size=30)
    labels = rng.random(30) < 0.4
    labels[:2] = [True, False]
    base = alignability_auc(scores, labels)
    assert alignability_auc(np.exp(scores), labels) == pytest.approx(base)


# ---------------------------------------------------------------------------
# per-video wrapper and aggregation


def test_merge_reports_micro_average():
    merged = merge_reports([
        MetricReport("step_r1", 3, 4),
        MetricReport("step_r1", 1, 4),
        MetricReport("narration_r1", 2, 2),
    ])
    assert merged["step_r1"].value == 0.5
    assert (merged["step_r1"].numerator, merged["step_r1"].denominator) == (4, 8)
    assert merged["narration_r1"].value == 1.0
    assert np.isnan(MetricReport("x", 0, 0).value)


def alignment_with(a_sv, a_nv=None, narration_index=()):
    a_sv = np.asarray(a_sv, dtype=np.float64)
    s, t = a_sv.shape
    a_nv = np.zeros((0, t)) if a_nv is None else np.asarray(a_nv, np.float64)
    return AlignmentSet("v0", a_nv, a_sv, np.zeros((s, a_nv.shape[0])),
                        a_sv, a_sv, tuple(narration_index))


def test_evaluate_video_combines_metrics():
    video = make_video("v0", np.zeros((6, 4), np.float32),
                       [Segment(0, 2), Segment(4, 5)],
                       gt={0: (Segment(0, 2),), 1: (Segment(4, 5),)},
                       gt_narr=(0, 1))
    a_sv = np.array([[0.9, 0.8, 0.7, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0, 0.9, 0.8]])
    a_nv = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
    al = alignment_with(a_sv, a_nv, narration_index=(0, 1))
    out = evaluate_video(al, video, ks=(1,), iou_thresholds=(0.5,))
    assert out["step_r1"].value == 1.0
    assert out["recall@1_iou0.5"].value == 1.0
    assert (out["narration_r1"].numerator,
            out["narration_r1"].denominator) == (1, 2)


def test_narration_timestamp_baseline_reads_span_middles():
    # a model that points every narration at frame 0: the baseline ignores it
    gt = {0: (Segment(0, 2),), 1: (Segment(4, 4),)}
    spans = [Segment(0, 3),   # step 0, middle 1 in [0, 2] -> hit
             Segment(2, 5),   # step 1, middle 3 outside [4, 4] -> miss
             Segment(0, 5),   # distractor, excluded
             Segment(4, 7)]   # step 1, cut to [4, 5] by the crop: middle 4 -> hit
    video = make_video("v0", np.zeros((8, 4), np.float32), spans, gt=gt,
                       gt_narr=(0, 1, None, 1))
    a_nv = np.zeros((4, 6))
    a_nv[:, 0] = 1.0
    al = alignment_with(np.zeros((2, 6)), a_nv, narration_index=(0, 1, 2, 3))
    out = evaluate_video(al, video)
    timestamp = out["narration_r1_timestamp"]
    assert (timestamp.numerator, timestamp.denominator) == (2, 3)
    assert out["narration_r1"].denominator == 3


def test_evaluate_video_matrix_selection_and_errors():
    video = make_video("v0", np.zeros((4, 4), np.float32), [Segment(0, 1)],
                       gt={0: (Segment(0, 1),)})
    good = np.array([[0.9, 0.8, 0.0, 0.0]])
    bad = np.array([[0.0, 0.0, 0.9, 0.8]])
    al = AlignmentSet("v0", np.zeros((0, 4)), good, np.zeros((1, 0)),
                      bad, bad, ())
    assert evaluate_video(al, video, matrix="direct_sv")["step_r1"].value == 1.0
    assert evaluate_video(al, video, matrix="indirect")["step_r1"].value == 0.0
    with pytest.raises(EvalError, match="unknown matrix"):
        evaluate_video(al, video, matrix="other")
    no_gt = make_video("v1", np.zeros((4, 4), np.float32), [Segment(0, 1)])
    with pytest.raises(EvalError, match="ground truth"):
        evaluate_video(al, no_gt)


# ---------------------------------------------------------------------------
# external predictions


def test_predictions_round_trip_and_scoring(tmp_path):
    path = tmp_path / "preds.jsonl"
    rows = [
        {"video_id": "v0", "step": 0, "segments": [[0, 2]]},
        {"video_id": "v0", "step": 1, "segments": [[9, 9], [4, 5]]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    preds = read_predictions(path)
    assert preds[("v0", 0)] == [Segment(0, 2)]
    assert preds[("v0", 1)] == [Segment(9, 9), Segment(4, 5)]

    video = make_video("v0", np.zeros((12, 4), np.float32),
                       [Segment(0, 2), Segment(4, 5)],
                       gt={0: (Segment(0, 2),), 1: (Segment(4, 5),)})
    out = evaluate_predictions(preds, [video], ks=(1, 2),
                               iou_thresholds=(0.5,))
    assert out["recall@1_iou0.5"].value == 0.5   # step 1's best guess misses
    assert out["recall@2_iou0.5"].value == 1.0


def test_missing_prediction_scores_zero_not_error():
    video = make_video("v0", np.zeros((8, 4), np.float32), [Segment(0, 1)],
                       gt={0: (Segment(0, 1),)})
    out = evaluate_predictions({}, [video])
    assert out["recall@1_iou0.5"].value == 0.0
    assert out["recall@1_iou0.5"].denominator == 1


def test_duplicate_and_malformed_predictions_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    row = {"video_id": "v0", "step": 0, "segments": [[0, 1]]}
    path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(EvalError, match="duplicate"):
        read_predictions(path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"video_id": "v0"}\n')
    with pytest.raises(EvalError, match="bad prediction"):
        read_predictions(bad)
