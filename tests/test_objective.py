"""Alignment loss: closed-form values, invariances, and the gradient contract."""

import math

import mpmath
import numpy as np
import pytest

from stepalign.autodiff import Tensor
from stepalign.corpus import Segment, Corpus
from stepalign.encoder import forward_batch, init_params, ModelConfig
from stepalign.objective import LossConfig, gradients, info_nce, total_loss

from conftest import make_article, make_video, one_batch


def loss_of(a, y, sup=None, mask=None, eta=0.07):
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if a.ndim == 2:
        a, y = a[None], y[None]
    b, r, t = a.shape
    sup = np.ones((b, r), dtype=bool) if sup is None else np.asarray(sup, bool)
    mask = np.ones((b, t), dtype=bool) if mask is None else np.asarray(mask, bool)
    return info_nce(Tensor(a), y, sup, mask, eta)


def test_uniform_scores_single_positive_gives_log_t():
    out = loss_of([[0.3, 0.3, 0.3, 0.3]], [[0, 0, 1, 0]])
    assert abs(float(out.data[0]) - math.log(4)) < 1e-9


def test_two_frame_symmetric_case_gives_log_2():
    for a in (-3.0, 0.0, 0.07, 11.0):
        out = loss_of([[a, a]], [[1, 0]])
        assert abs(float(out.data[0]) - math.log(2)) < 1e-9


def test_all_positive_row_contributes_zero():
    out = loss_of([[0.9, -0.2, 0.4]], [[1, 1, 1]])
    assert float(out.data[0]) == 0.0


def test_unsupervised_video_contributes_zero():
    out = loss_of([[0.9, -0.2]], [[0, 0]], sup=[[False]])
    assert float(out.data[0]) == 0.0


def test_padded_frames_excluded():
    # the padded frame carries an enormous score; only masking can hide it
    masked = loss_of([[0.2, 0.5, 99.0]], [[1, 0, 0]],
                     mask=[[True, True, False]])
    reference = loss_of([[0.2, 0.5]], [[1, 0]])
    assert abs(float(masked.data[0]) - float(reference.data[0])) < 1e-9


def test_row_shift_invariance():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, size=(1, 3, 8))
    y = np.zeros_like(a)
    y[0, :, [1, 4, 6]] = 1.0
    base = loss_of(a, y).data
    shifted = a.copy()
    shifted[0, 1] += 57.0
    assert np.all(np.abs(loss_of(shifted, y).data - base) < 1e-6)


def test_supervised_row_without_positive_rejected():
    with pytest.raises(ValueError, match="no positive"):
        loss_of([[0.1, 0.2]], [[0, 0]])
    # positives only at padded frames count as none
    with pytest.raises(ValueError, match="no positive"):
        loss_of([[0.1, 0.2]], [[0, 1]], mask=[[True, False]])


def test_eta_and_shape_validation():
    with pytest.raises(ValueError, match="eta"):
        loss_of([[0.1]], [[1]], eta=0.0)
    with pytest.raises(ValueError, match="labels shape"):
        info_nce(Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2, 4)),
                 np.ones((1, 2), bool), np.ones((1, 3), bool), 0.07)
    with pytest.raises(ValueError, match="eta"):
        LossConfig(eta=-1.0).validate()
    with pytest.raises(ValueError, match="weights"):
        LossConfig(lambda_nv=-0.1).validate()


def test_matches_extended_precision_oracle():
    rng = np.random.default_rng(42)
    mpmath.mp.dps = 50
    for trial in range(100):
        r, t = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        a = rng.uniform(-1, 1, size=(1, r, t))
        mask = rng.random((1, t)) < 0.8
        mask[0, 0] = True
        y = np.zeros((1, r, t))
        sup = np.zeros((1, r), dtype=bool)
        for k in range(r):
            if rng.random() < 0.75:
                valid = np.flatnonzero(mask[0])
                pos = rng.choice(valid, size=rng.integers(1, len(valid) + 1),
                                 replace=False)
                y[0, k, pos] = 1.0
                sup[0, k] = True
        got = float(loss_of(a, y, sup=sup, mask=mask).data[0])

        rows = []
        for k in range(r):
            if not sup[0, k]:
                continue
            num = mpmath.mpf(0)
            den = mpmath.mpf(0)
            for tt in range(t):
                if not mask[0, tt]:
                    continue
                e = mpmath.e ** (mpmath.mpf(a[0, k, tt]) / mpmath.mpf(0.07))
                den += e
                if y[0, k, tt]:
                    num += e
            rows.append(-mpmath.log(num / den))
        expected = float(sum(rows) / len(rows)) if rows else 0.0
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-9), f"trial {trial}"


def test_increasing_a_positive_never_increases_loss():
    rng = np.random.default_rng(3)
    for trial in range(50):
        t = int(rng.integers(2, 10))
        a = rng.uniform(-1, 1, size=(1, 1, t))
        y = np.zeros((1, 1, t))
        pos = int(rng.integers(t))
        y[0, 0, pos] = 1.0
        base = float(loss_of(a, y).data[0])
        bumped = a.copy()
        bumped[0, 0, pos] += 0.05
        assert float(loss_of(bumped, y).data[0]) <= base + 1e-12


def test_loss_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.uniform(-1, 1, size=(2, 3, 6))
        y = (rng.random((2, 3, 6)) < 0.4).astype(np.float64)
        y[..., 0] = 1.0
        out = loss_of(a, y).data
        assert np.all(out >= -1e-12)


# ---------------------------------------------------------------------------
# total_loss over real batches


def _training_batch():
    rng = np.random.default_rng(5)
    art = make_article("taskA", 2, d_s=3)
    v0 = make_video("b0", rng.normal(size=(6, 4)), [Segment(0, 2)], task_id="taskA")
    v1 = make_video("b1", rng.normal(size=(5, 4)),
                    [Segment(1, 3), Segment(2, 4)], task_id="taskA")
    corpus = Corpus((v0, v1), {"taskA": art}, (4, 3, 3))
    return one_batch(corpus)


def _model(seed=0):
    cfg = ModelConfig(feature_dims=(4, 3, 3), model_dim=8, num_layers=1,
                      num_heads=2, mlp_hidden=6, ffn_dim=12, max_frames=16,
                      max_narrations=4, dropout=0.0)
    return cfg, init_params(cfg, seed)


def test_total_loss_burn_in_configuration():
    cfg, params = _model()
    batch = _training_batch()
    out = forward_batch(params, cfg, batch)
    total, report = total_loss(out, batch, LossConfig(lambda_sv=0.0))
    assert report.total == pytest.approx(report.loss_nv, abs=1e-12)
    assert report.rows_sv == 0  # timestamps only supervise narrations here
    assert float(total.data) == report.total


def test_total_loss_all_ones_labels_is_zero():
    cfg, params = _model()
    batch = _training_batch()
    batch.y_nv[:] = batch.frame_mask[:, None, :]
    batch.y_sv[:] = batch.frame_mask[:, None, :]
    batch.sup_sv[:] = batch.step_mask
    out = forward_batch(params, cfg, batch)
    total, _ = total_loss(out, batch, LossConfig())
    assert float(total.data) == 0.0


def test_total_loss_is_batch_mean():
    cfg, params = _model()
    batch = _training_batch()
    out = forward_batch(params, cfg, batch)
    total, _ = total_loss(out, batch, LossConfig())
    per_video = (info_nce(out.a_nv, batch.y_nv, batch.sup_nv,
                          batch.frame_mask, 0.07).data
                 + info_nce(out.a_sv, batch.y_sv, batch.sup_sv,
                            batch.frame_mask, 0.07).data)
    assert float(total.data) == pytest.approx(per_video.mean(), abs=1e-12)


def test_total_loss_permutation_invariant():
    rng = np.random.default_rng(6)
    a = rng.uniform(-1, 1, size=(3, 2, 5))
    y = np.zeros_like(a)
    y[:, :, 1] = 1.0
    perm = [2, 0, 1]
    direct = loss_of(a, y).data.mean()
    permuted = loss_of(a[perm], y[perm]).data.mean()
    assert direct == pytest.approx(permuted, abs=1e-12)


def test_gradients_cover_every_parameter():
    cfg, params = _model()
    batch = _training_batch()
    out = forward_batch(params, cfg, batch)
    total, _ = total_loss(out, batch, LossConfig())
    grads = gradients(total, params)
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert g.shape == params[name].data.shape
        assert np.all(np.isfinite(g))


def test_gradients_fill_zeros_for_unreached_parameters():
    cfg, params = _model()
    # a loss built from one parameter alone must not leave the rest undefined
    loss = (params["mlp_v.l1.w"] * params["mlp_v.l1.w"]).sum()
    grads = gradients(loss, params)
    assert set(grads) == set(params)
    assert np.any(grads["mlp_v.l1.w"] != 0)
    assert np.all(grads["mlp_n.l1.w"] == 0)
    assert np.all(grads["pos_v"] == 0)


def test_gradient_sign_at_positive_position():
    a = Tensor(np.array([[[0.5, 0.1, -0.3]]]), requires_grad=True)
    y = np.array([[[1.0, 0.0, 0.0]]])
    out = loss_of_tensor(a, y)
    out.sum().backward()
    assert a.grad[0, 0, 0] <= 0  # pushing the positive up lowers the loss
    assert np.all(a.grad[0, 0, 1:] >= 0)


def loss_of_tensor(a, y):
    b, r, t = a.shape
    return info_nce(a, y, np.ones((b, r), bool), np.ones((b, t), bool), 0.07)
