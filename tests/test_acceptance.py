"""Acceptance gate: one test per shipped guarantee, each runnable standalone.

Criteria 6 and 7 share a module-scoped fixture that trains the full
curriculum on five seeds through scripts/ablate.py's run_seed, which trains
the package's default configs, and reads its records; everything else is
oracle-checked in seconds.
"""

import math
import time

import mpmath
import numpy as np
import pytest

import ablate
from stepalign.autodiff import Tensor
from stepalign.cli import _write_alignment_csv, _write_pgm
from stepalign.corpus import (Batch, Segment, SynthConfig, generate_synthetic,
                              read_corpus, write_corpus)
from stepalign.encoder import (ModelConfig, forward_batch, fuse,
                               indirect_alignment, init_params,
                               load_checkpoint, save_checkpoint)
from stepalign.evalkit import (alignability_auc, blob_detect, interval_iou,
                               narration_recall_at_1, step_recall_at_1,
                               step_recall_at_k_iou)
from stepalign.objective import LossConfig, gradients, info_nce, total_loss
from stepalign.pseudolabel import PseudoConfig, generate_pseudolabels
from stepalign.taskselect import TrigramEmbedder, assign_articles, rank_tasks
from stepalign.trainer import TrainConfig, train

# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs Richardson-extrapolated central differences


def _random_batch(rng, lengths, dims):
    """A batch of one video per (frames, narrations, steps) in lengths, each
    padded to the longest, with random features and labels on its own
    frames."""
    b = len(lengths)
    t_max, n_max, s_max = (max(sizes) for sizes in zip(*lengths))
    frames, narrations, steps = (
        np.zeros((b, rows, dim)) for rows, dim in zip((t_max, n_max, s_max), dims))
    masks = [np.zeros((b, rows), bool) for rows in (t_max, n_max, s_max)]
    y_nv, y_sv = np.zeros((b, n_max, t_max)), np.zeros((b, s_max, t_max))
    for i, (t, n, s) in enumerate(lengths):
        for feats, mask, rows in zip((frames, narrations, steps), masks, (t, n, s)):
            feats[i, :rows] = rng.normal(size=(rows, feats.shape[2]))
            mask[i, :rows] = True
        for y, rows in ((y_nv, n), (y_sv, s)):
            for k in range(rows):
                pos = rng.choice(t, size=int(rng.integers(1, t + 1)), replace=False)
                y[i, k, pos] = 1.0
    frame_mask, narration_mask, step_mask = masks
    return Batch(
        video_ids=tuple(f"g{i}" for i in range(b)),
        frames=frames, narrations=narrations, steps=steps,
        frame_mask=frame_mask, narration_mask=narration_mask, step_mask=step_mask,
        y_nv=y_nv, y_sv=y_sv, sup_nv=narration_mask, sup_sv=step_mask,
        narration_index=tuple(tuple(range(n)) for _, n, _ in lengths))


_FD_CONFIG = ModelConfig(feature_dims=(8, 8, 8), model_dim=8, num_layers=1,
                         num_heads=2, mlp_hidden=8, ffn_dim=16, max_frames=8,
                         max_narrations=4, dropout=0.0)


def _check_gradients(params, batch, label):
    """Every gradient of the loss above 1e-6 against finite differences, to
    a relative 1e-4; returns how many were checked."""
    out = forward_batch(params, _FD_CONFIG, batch)
    total, _ = total_loss(out, batch, LossConfig())
    grads = gradients(total, params)

    def loss_value():
        a = forward_batch(params, _FD_CONFIG, batch)
        return float(total_loss(a, batch, LossConfig())[0].data)

    def central(flat, i, h):
        keep = flat[i]
        flat[i] = keep + h
        hi = loss_value()
        flat[i] = keep - h
        lo = loss_value()
        flat[i] = keep
        return (hi - lo) / (2.0 * h)

    step = 1e-4
    checked = 0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            if abs(gflat[i]) <= 1e-6:
                continue
            # a central difference errs by O(h^2); combining two step
            # sizes cancels that term, leaving O(h^4)
            fd = (4.0 * central(flat, i, step / 2) - central(flat, i, step)) / 3.0
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd))
            assert rel < 1e-4, (
                f"{label} {name}[{i}]: analytic {gflat[i]:.3e} "
                f"vs finite-difference {fd:.3e} (rel {rel:.2e})")
            checked += 1
    return checked


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        params = init_params(_FD_CONFIG, seed, dtype=np.float64)
        batch = _random_batch(rng, [(6, 2, 2)], _FD_CONFIG.feature_dims)
        # the filter must not have skipped everything
        assert _check_gradients(params, batch, f"seed {seed}") > 200
    assert time.monotonic() - start < 60.0


def test_criterion_1_holds_on_a_ragged_batch():
    # three videos whose frame, narration and step counts all differ, so
    # padded frames, narrations and steps, key masks and the per-video loops
    # of mlp and attention are all inside the checked loss
    start = time.monotonic()
    rng = np.random.default_rng(105)
    params = init_params(_FD_CONFIG, 5, dtype=np.float64)
    batch = _random_batch(rng, [(6, 2, 2), (4, 3, 1), (5, 1, 3)],
                          _FD_CONFIG.feature_dims)
    assert not (batch.frame_mask.all() or batch.narration_mask.all()
                or batch.step_mask.all())
    assert _check_gradients(params, batch, "ragged") > 200
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# criterion 2: loss exactness


def _loss_of(a, y, sup=None, mask=None, eta=0.07):
    a = np.asarray(a, dtype=np.float64)[None]
    y = np.asarray(y, dtype=np.float64)[None]
    b, r, t = a.shape
    sup = np.ones((b, r), bool) if sup is None else sup
    mask = np.ones((b, t), bool) if mask is None else mask
    return float(info_nce(Tensor(a), y, sup, mask, eta).data[0])


def test_criterion_2_loss_exactness():
    assert abs(_loss_of([[0.3, 0.3, 0.3, 0.3]], [[0, 0, 1, 0]])
               - math.log(4)) < 1e-9
    assert abs(_loss_of([[0.7, 0.7]], [[1, 0]]) - math.log(2)) < 1e-9

    mpmath.mp.dps = 50
    rng = np.random.default_rng(42)
    for trial in range(100):
        r, t = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        a = rng.uniform(-1, 1, size=(1, r, t))
        mask = rng.random((1, t)) < 0.8
        mask[0, 0] = True
        y = np.zeros((1, r, t))
        sup = np.zeros((1, r), bool)
        for k in range(r):
            if rng.random() < 0.75:
                valid = np.flatnonzero(mask[0])
                pos = rng.choice(valid, size=int(rng.integers(1, len(valid) + 1)),
                                 replace=False)
                y[0, k, pos] = 1.0
                sup[0, k] = True
        got = float(info_nce(Tensor(a), y, sup, mask, 0.07).data[0])

        rows = []
        for k in range(r):
            if not sup[0, k]:
                continue
            num = den = mpmath.mpf(0)
            for tt in range(t):
                if mask[0, tt]:
                    e = mpmath.e ** (mpmath.mpf(a[0, k, tt]) / mpmath.mpf(0.07))
                    den += e
                    if y[0, k, tt]:
                        num += e
            rows.append(-mpmath.log(num / den))
        expected = float(sum(rows) / len(rows)) if rows else 0.0
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-9), f"trial {trial}"


# ---------------------------------------------------------------------------
# criterion 3: pseudo-label oracle equivalence


def _oracle_segment(scores, zeta):
    p = int(np.argmax(scores))
    ok = scores >= zeta * scores[p]
    s = p
    while s > 0 and ok[s - 1]:
        s -= 1
    e = p
    while e < len(scores) - 1 and ok[e + 1]:
        e += 1
    return p, Segment(s, e)


def _alignment_stub(matrix, video_id):
    from stepalign.encoder import AlignmentSet
    matrix = np.asarray(matrix, dtype=np.float64)
    s, t = matrix.shape
    return AlignmentSet(video_id, np.zeros((0, t)), matrix,
                        np.zeros((s, 0)), np.zeros((s, t)), matrix, ())


def test_criterion_3_pseudo_label_oracle_equivalence():
    rng = np.random.default_rng(17)
    for trial in range(1000):
        t = int(rng.integers(1, 65))
        scores = rng.uniform(-1, 1, size=t)
        if rng.random() < 0.2:
            scores[rng.integers(t)] = scores.max()
        zeta = float(rng.uniform(0.05, 1.0))
        # labels take blob_detect's first proposal with every local max a seed
        p, seg = _oracle_segment(scores, zeta)
        assert blob_detect(scores, -np.inf, zeta)[0] == (seg, scores[p]), \
            f"row {trial}"

    # keep flags on full matrices, gamma filter included
    cfg = PseudoConfig()
    for trial in range(100):
        s, t = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        m = rng.uniform(-1, 1, size=(s, t))
        labels = generate_pseudolabels([_alignment_stub(m, f"v{trial}")], cfg)
        for k in range(s):
            lab = labels.get((f"v{trial}", k))
            p, seg = _oracle_segment(m[k], cfg.zeta)
            expect_kept = m[k, p] > 0.0 and m[k, p] >= cfg.gamma
            assert lab.kept == expect_kept
            assert lab.segment == (seg if expect_kept else None)

    # monotone filtering: a higher bar keeps a subset
    m = rng.uniform(-1, 1, size=(8, 50))
    kept = []
    for gamma in (0.1, 0.4, 0.7, 0.95):
        labels = generate_pseudolabels([_alignment_stub(m, "v")],
                                       PseudoConfig(gamma=gamma))
        kept.append({(l.video_id, l.step) for l in labels if l.kept})
    for tighter, looser in zip(kept[1:], kept):
        assert tighter <= looser


# ---------------------------------------------------------------------------
# criterion 4: indirect pathway exactness


def test_criterion_4_indirect_pathway_exactness():
    rng = np.random.default_rng(7)
    xi = 0.07
    for trial in range(100):
        s, n, t = (int(v) for v in rng.integers(1, 9, size=3))
        a_sn = rng.uniform(-1, 1, size=(1, s, n))
        a_nv = rng.uniform(-1, 1, size=(1, n, t))
        a_sv = rng.uniform(-1, 1, size=(1, s, t))
        mask = np.ones((1, n), bool)

        got = indirect_alignment(Tensor(a_sn), Tensor(a_nv), mask, xi).data[0]

        logits = a_sn[0] / xi
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        expected = w @ a_nv[0]
        np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-9,
                                   err_msg=f"trial {trial}")

        # each output row is a convex combination of narration rows
        lo = a_nv[0].min(axis=0)
        hi = a_nv[0].max(axis=0)
        assert np.all(got >= lo[None, :] - 1e-9)
        assert np.all(got <= hi[None, :] + 1e-9)

        fused = fuse(Tensor(a_sv), Tensor(got[None])).data
        assert np.array_equal(fused, (a_sv + got[None]) * 0.5)


# ---------------------------------------------------------------------------
# criterion 5: metric oracle equivalence


def _oracle_blobs(scores, min_score, zeta):
    t = len(scores)
    seeds = [i for i in range(t)
             if scores[i] >= min_score
             and (i == 0 or scores[i] > scores[i - 1])
             and (i == t - 1 or scores[i] >= scores[i + 1])]
    claimed = set()
    blobs = []
    for p in sorted(seeds, key=lambda i: (-scores[i], i)):
        if p in claimed:
            continue
        thr = zeta * scores[p]
        lo = p
        while lo - 1 >= 0 and lo - 1 not in claimed and scores[lo - 1] >= thr:
            lo -= 1
        hi = p
        while hi + 1 < t and hi + 1 not in claimed and scores[hi + 1] >= thr:
            hi += 1
        claimed.update(range(lo, hi + 1))
        blobs.append((Segment(lo, hi), float(scores[p])))
    return blobs


def _random_gt(rng, rows, t):
    gt = {}
    for s in range(rows):
        segs = []
        for _ in range(int(rng.integers(1, 3))):
            a, b = sorted(rng.integers(0, t, size=2))
            segs.append(Segment(int(a), int(b)))
        gt[s] = tuple(segs)
    return gt


def test_criterion_5_metric_oracle_equivalence():
    rng = np.random.default_rng(34)

    for _ in range(200):  # step R@1
        s, t = int(rng.integers(1, 5)), int(rng.integers(2, 24))
        m = rng.uniform(-1, 1, size=(s, t))
        gt = _random_gt(rng, s, t)
        got = step_recall_at_1(m, gt)
        hits = sum(any(seg.contains(int(np.argmax(m[k]))) for seg in segs)
                   for k, segs in gt.items())
        assert (got.numerator, got.denominator) == (hits, len(gt))

    for _ in range(200):  # recall@K at IoU, proposals re-derived independently
        s, t = int(rng.integers(1, 4)), int(rng.integers(4, 24))
        m = rng.uniform(-1, 1, size=(s, t))
        gt = _random_gt(rng, s, t)
        k = int(rng.integers(1, 4))
        thr = float(rng.uniform(0.1, 0.9))
        got = step_recall_at_k_iou(m, gt, k=k, iou_threshold=thr,
                                   min_score=-1.0, zeta=0.7)
        hits = total = 0
        for row, segs in gt.items():
            props = [sg for sg, _ in _oracle_blobs(m[row], -1.0, 0.7)[:k]]
            for true_seg in segs:
                total += 1
                hits += any(interval_iou(p, true_seg) >= thr for p in props)
        assert (got.numerator, got.denominator) == (hits, total)

    for _ in range(200):  # narration R@1 with unalignable rows
        n, t = int(rng.integers(1, 6)), int(rng.integers(2, 24))
        a_nv = rng.uniform(-1, 1, size=(n, t))
        gt = _random_gt(rng, 3, t)
        steps = [None if rng.random() < 0.3 else int(rng.integers(0, 5))
                 for _ in range(n)]
        got = narration_recall_at_1(a_nv, steps, gt)
        hits = total = 0
        for row, sstep in enumerate(steps):
            if sstep is None or sstep not in gt:
                continue
            total += 1
            hits += any(seg.contains(int(np.argmax(a_nv[row])))
                        for seg in gt[sstep])
        assert (got.numerator, got.denominator) == (hits, total)

    for _ in range(200):  # AUC vs pairwise win counting
        n = int(rng.integers(3, 20))
        scores = np.round(rng.uniform(0, 1, size=n), 1)
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        pos, neg = scores[labels], scores[~labels]
        wins = ((pos[:, None] > neg[None, :]).sum()
                + 0.5 * (pos[:, None] == neg[None, :]).sum())
        assert alignability_auc(scores, labels) == pytest.approx(
            float(wins / (len(pos) * len(neg))), abs=1e-12)

    assert alignability_auc([0.9, 0.7, 0.4, 0.2], [1, 0, 1, 0]) == 0.75


# ---------------------------------------------------------------------------
# criteria 6 and 7: the full curriculum on five seeds


DESK_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def curriculum_runs():
    start = time.monotonic()
    # each trial is seeded end to end: corpus draw, split, and training
    runs = [ablate.run_seed(seed, {}) for seed in DESK_SEEDS]
    return runs, time.monotonic() - start


def test_criterion_6_end_to_end_grounding(curriculum_runs):
    runs, elapsed = curriculum_runs
    passes = 0
    for run in runs:
        trained = ablate._r1(run["step_r1_no_narrations"]["fused"])
        untrained = ablate._r1(run["untrained_fused_no_narrations"])
        narration = ablate._r1(run["narration_r1"])
        chance = run["held_out_gt_coverage"]
        ok = (trained >= 0.80
              and untrained <= chance + 0.10
              and narration >= 0.85)
        passes += ok
    assert passes >= 4, f"grounding criteria met on only {passes}/5 seeds"
    assert elapsed < 900.0, f"curriculum took {elapsed:.0f}s, budget is 900s"


def test_criterion_7_fusion_benefit(curriculum_runs):
    runs, _ = curriculum_runs
    passes = sum(run["criterion_7"] for run in runs)
    assert passes >= 4, f"fusion helped on only {passes}/5 seeds"


# ---------------------------------------------------------------------------
# criterion 8: task selection on a clean corpus


def test_criterion_8_task_selection_fidelity():
    corpus = generate_synthetic(SynthConfig(num_tasks=8, videos_per_task=25,
                                            seed=3))
    assert len(corpus.videos) == 200
    embedder = TrigramEmbedder()
    assignment = assign_articles(corpus, "top1", embedder)
    agree = np.mean([assignment[v.id] == v.task_id for v in corpus.videos])
    assert agree >= 0.95, f"top1 agreement {agree:.3f} below 0.95"

    articles = [corpus.articles[t] for t in sorted(corpus.articles)]
    for v in corpus.videos:
        ranking = rank_tasks(embedder, v.narration_texts, articles, v.id)
        assert sum(votes for _, votes in ranking.ranked) == len(v.narration_texts)


# ---------------------------------------------------------------------------
# criterion 9: determinism and byte-exact round trips


def test_criterion_9_determinism_and_round_trips(tmp_path):
    synth = SynthConfig(num_tasks=2, steps_per_task=(3, 3), videos_per_task=6,
                        frames_range=(24, 32), dims=(12, 8, 8), latent_dim=6,
                        background_dim=4, noise_std=0.0, p_miss_step=0.2,
                        seed=1)
    corpus = generate_synthetic(synth)
    mc = ModelConfig(feature_dims=corpus.dims, model_dim=16, num_layers=1,
                     num_heads=2, mlp_hidden=16, ffn_dim=32, max_frames=32,
                     max_narrations=8, dropout=0.1)
    tc = TrainConfig(epochs=3, batch_size=4, teacher_pre_epochs=1,
                     max_frames=32, seed=9)
    pc = PseudoConfig()
    for d in ("a", "b"):
        train(corpus, mc, tc, LossConfig(), pc, workdir=tmp_path / d)
    log_a = (tmp_path / "a" / "train_log.jsonl").read_bytes()
    log_b = (tmp_path / "b" / "train_log.jsonl").read_bytes()
    assert log_a == log_b and len(log_a) > 0

    # corpus round trip preserves every array bit for bit
    write_corpus(corpus, tmp_path / "corpus")
    loaded = read_corpus(tmp_path / "corpus")
    assert loaded.dims == corpus.dims
    for orig, back in zip(corpus.videos, loaded.videos):
        assert orig.id == back.id
        assert orig.frame_features.tobytes() == back.frame_features.tobytes()
        assert orig.narration_features.tobytes() == back.narration_features.tobytes()
        assert orig.narration_spans == back.narration_spans
        assert orig.gt_step_segments == back.gt_step_segments
    for task in corpus.articles:
        assert (corpus.articles[task].step_features.tobytes()
                == loaded.articles[task].step_features.tobytes())

    # checkpoint round trip, mixed dtypes
    rng = np.random.default_rng(0)
    arrays = {"w32": rng.normal(size=(3, 4)).astype(np.float32),
              "w64": rng.normal(size=(2, 2)),
              "empty": np.zeros((0, 5), np.float32)}
    save_checkpoint(tmp_path / "rt.ckpt", arrays, meta={"note": "x"})
    back, meta = load_checkpoint(tmp_path / "rt.ckpt")
    assert meta["note"] == "x"
    for name, a in arrays.items():
        assert back[name].dtype == a.dtype
        assert back[name].tobytes() == a.tobytes()

    # golden bytes for both emitters
    _write_pgm(tmp_path / "g.pgm", np.array([[1.0, -1.0, 0.0]]))
    assert (tmp_path / "g.pgm").read_bytes() == (b"P5\n3 1\n255\n"
                                                 + bytes([255, 0, 128]))
    _write_alignment_csv(tmp_path / "g.csv", np.array([[0.1234567, -1.0]]))
    assert (tmp_path / "g.csv").read_bytes() == (b"row,frame,score\r\n"
                                                 b"0,0,0.123457\r\n"
                                                 b"0,1,-1.000000\r\n")
