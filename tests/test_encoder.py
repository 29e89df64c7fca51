"""Forward model: unimodal encoders, the joint transformer, alignment matrices,
and checkpoint persistence."""

import numpy as np
import pytest
from scipy.special import erf, softmax as np_softmax

from stepalign.autodiff import Tensor
from stepalign.config import ConfigError, run_config_from_dict
from stepalign.corpus import Corpus, Segment
from stepalign.encoder import (COSINE_EPS, LAYERNORM_EPS,
                               RESIDUAL_INIT_SCALE, ModelConfig, ModelError,
                               cosine_alignment, detach_params, forward,
                               forward_batch, fuse,
                               indirect_alignment, init_params,
                               load_checkpoint, multimodal_encode,
                               params_from_arrays, save_checkpoint,
                               unimodal_encode)

from conftest import make_article, make_video, one_batch


def np_gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def tiny_config(**kw):
    base = dict(feature_dims=(4, 3, 3), model_dim=8, num_layers=1, num_heads=2,
                mlp_hidden=6, ffn_dim=12, max_frames=16, max_narrations=4,
                dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# unimodal pathway


def identity_mlp_params(d, max_count):
    """gelu(x) - gelu(-x) = x, so [I, -I] in and [I; -I] out is the identity."""
    eye = np.eye(d)
    return {
        "mlp_v.l1.w": Tensor(np.hstack([eye, -eye])),
        "mlp_v.l1.b": Tensor(np.zeros((1, 2 * d))),
        "mlp_v.l2.w": Tensor(np.vstack([eye, -eye])),
        "mlp_v.l2.b": Tensor(np.zeros((1, d))),
        "pos_v": Tensor(np.zeros((max_count, d))),
    }


def test_identity_mlp_recovers_input():
    d = 4
    cfg = tiny_config(feature_dims=(d, 3, 3), model_dim=d, mlp_hidden=2 * d)
    params = identity_mlp_params(d, cfg.max_frames)
    x = np.random.default_rng(0).normal(size=(2, 5, d))
    h = unimodal_encode(params, Tensor(x), "video")
    np.testing.assert_allclose(h.data, x, atol=1e-12)


def test_identity_mlp_plus_positions():
    d = 4
    cfg = tiny_config(feature_dims=(d, 3, 3), model_dim=d, mlp_hidden=2 * d)
    params = identity_mlp_params(d, cfg.max_frames)
    pos = np.random.default_rng(1).normal(size=(cfg.max_frames, d))
    params["pos_v"] = Tensor(pos)
    x = np.random.default_rng(2).normal(size=(1, 5, d))
    h = unimodal_encode(params, Tensor(x), "video")
    np.testing.assert_allclose(h.data, x + pos[:5], atol=1e-12)


def test_unimodal_matches_straight_line_reevaluation():
    cfg = tiny_config()
    params = init_params(cfg, seed=3, dtype=np.float64)
    x = np.random.default_rng(4).normal(size=(1, 3, 4))
    h = unimodal_encode(params, Tensor(x), "video").data
    w1, b1 = params["mlp_v.l1.w"].data, params["mlp_v.l1.b"].data
    w2, b2 = params["mlp_v.l2.w"].data, params["mlp_v.l2.b"].data
    expected = np_gelu(x @ w1 + b1) @ w2 + b2 + params["pos_v"].data[:3]
    np.testing.assert_allclose(h, expected, rtol=1e-6)


def test_step_pathway_flags():
    # steps always take the narration MLP and positional table, so their
    # order is always encoded, in a table of max_narrations rows
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    x = np.random.default_rng(0).normal(size=(1, 2, 3)).astype(np.float32)
    h = unimodal_encode(params, Tensor(x), "step").data
    w1, b1 = params["mlp_n.l1.w"].data, params["mlp_n.l1.b"].data
    w2, b2 = params["mlp_n.l2.w"].data, params["mlp_n.l2.b"].data
    np.testing.assert_allclose(
        h, np_gelu(x @ w1 + b1) @ w2 + b2 + params["pos_n"].data[:2], rtol=1e-5)
    with pytest.raises(ModelError, match="positional table size 4"):
        unimodal_encode(params, Tensor(np.zeros((1, 5, 3))), "step")
    # the switches that turned either off are gone from the config file too
    for removed in ("pe_for_steps", "separate_text_mlp"):
        with pytest.raises(ConfigError, match=removed):
            run_config_from_dict({"model": {removed: False}})


def test_sequence_length_guard():
    cfg = tiny_config(max_frames=4)
    params = init_params(cfg, seed=0)
    x = Tensor(np.zeros((1, 5, 4), dtype=np.float32))
    with pytest.raises(ModelError, match="positional table"):
        unimodal_encode(params, x, "video")


def test_unknown_modality():
    cfg = tiny_config()
    with pytest.raises(ModelError, match="modality"):
        unimodal_encode(init_params(cfg, 0), Tensor(np.zeros((1, 1, 4))), "audio")


# ---------------------------------------------------------------------------
# initialization


def test_init_params_distribution_and_determinism():
    cfg = tiny_config()
    params = init_params(cfg, seed=5)
    assert np.all(params["mlp_v.l1.b"].data == 0)
    bound = 1.0 / np.sqrt(4)
    w = params["mlp_v.l1.w"].data
    assert w.shape == (4, 6) and np.abs(w).max() <= bound
    # residual output projections start damped toward identity blocks
    wo = params["layers.0.attn.wo.w"].data
    assert np.abs(wo).max() <= RESIDUAL_INIT_SCALE / np.sqrt(8) + 1e-12
    assert np.abs(params["layers.0.ffn.l2.w"].data).max() \
        <= RESIDUAL_INIT_SCALE / np.sqrt(12) + 1e-12
    assert params["pos_v"].shape == (16, 8)
    again = init_params(cfg, seed=5)
    assert all(np.array_equal(params[k].data, again[k].data) for k in params)
    other = init_params(cfg, seed=6)
    assert not np.array_equal(params["mlp_v.l1.w"].data, other["mlp_v.l1.w"].data)


def test_config_validation():
    with pytest.raises(ModelError, match="divisible"):
        tiny_config(model_dim=6, num_heads=4).validate()
    with pytest.raises(ModelError, match="xi"):
        tiny_config(xi=0.0).validate()
    with pytest.raises(ModelError, match="dropout"):
        tiny_config(dropout=1.0).validate()
    with pytest.raises(ModelError):
        tiny_config(num_layers=-1).validate()


# ---------------------------------------------------------------------------
# joint transformer


def test_zero_layer_stack_is_identity():
    cfg = tiny_config(num_layers=0)
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    tokens = Tensor(rng.normal(size=(2, 6, 8)))
    mask = np.ones((2, 6), dtype=bool)
    z = multimodal_encode(params, cfg, tokens, mask)
    assert np.array_equal(z.data, tokens.data)


def test_all_masked_row_rejected():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    with pytest.raises(ModelError, match="no valid tokens"):
        multimodal_encode(params, cfg, Tensor(np.zeros((1, 2, 8))),
                          np.zeros((1, 2), dtype=bool))


def test_token_mask_shape_guard():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    with pytest.raises(ModelError, match="token mask"):
        multimodal_encode(params, cfg, Tensor(np.zeros((1, 2, 8))),
                          np.ones((1, 3), dtype=bool))


def test_one_layer_matches_hand_computation():
    """Straight-line numpy re-evaluation of a single pre-norm block, D=2, H=1."""
    d, ffn = 2, 3
    cfg = tiny_config(feature_dims=(2, 2, 2), model_dim=d, num_layers=1,
                      num_heads=1, ffn_dim=ffn)
    rng = np.random.default_rng(9)
    names = {}
    for proj in ("wq", "wk", "wv", "wo"):
        names[f"layers.0.attn.{proj}.w"] = rng.normal(size=(d, d))
        names[f"layers.0.attn.{proj}.b"] = rng.normal(size=(1, d))
    names["layers.0.ffn.l1.w"] = rng.normal(size=(d, ffn))
    names["layers.0.ffn.l1.b"] = rng.normal(size=(1, ffn))
    names["layers.0.ffn.l2.w"] = rng.normal(size=(ffn, d))
    names["layers.0.ffn.l2.b"] = rng.normal(size=(1, d))
    for ln in ("layers.0.ln1", "layers.0.ln2", "final_ln"):
        names[f"{ln}.g"] = rng.normal(size=(1, d))
        names[f"{ln}.b"] = rng.normal(size=(1, d))
    params = {k: Tensor(v) for k, v in names.items()}

    x = rng.normal(size=(1, 2, d))
    mask = np.ones((1, 2), dtype=bool)
    z = multimodal_encode(params, cfg, Tensor(x), mask).data

    def ln(v, name):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + LAYERNORM_EPS) * names[f"{name}.g"] \
            + names[f"{name}.b"]

    n1 = ln(x, "layers.0.ln1")
    q = n1 @ names["layers.0.attn.wq.w"] + names["layers.0.attn.wq.b"]
    k = n1 @ names["layers.0.attn.wk.w"] + names["layers.0.attn.wk.b"]
    v = n1 @ names["layers.0.attn.wv.w"] + names["layers.0.attn.wv.b"]
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(d)
    attn = np_softmax(scores, axis=-1)
    x1 = x + (attn @ v) @ names["layers.0.attn.wo.w"] + names["layers.0.attn.wo.b"]
    n2 = ln(x1, "layers.0.ln2")
    f = np_gelu(n2 @ names["layers.0.ffn.l1.w"] + names["layers.0.ffn.l1.b"]) \
        @ names["layers.0.ffn.l2.w"] + names["layers.0.ffn.l2.b"]
    expected = ln(x1 + f, "final_ln")
    np.testing.assert_allclose(z, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# alignment matrices


def test_cosine_alignment_trivial_values():
    a = Tensor(np.array([[[1.0, 0.0], [0.0, 2.0], [1.0, 0.0]]]))
    b = Tensor(np.array([[[3.0, 0.0], [1.0, 1.0]]]))
    m = cosine_alignment(a, b).data[0]
    assert m[0, 0] == pytest.approx(1.0, abs=1e-7)   # parallel
    assert m[1, 0] == pytest.approx(0.0, abs=1e-7)   # orthogonal
    assert m[2, 1] == pytest.approx(0.70710678, abs=1e-7)
    assert np.all(np.abs(m) <= 1.0 + 1e-6)


def test_cosine_alignment_zero_vector_guarded():
    a = Tensor(np.zeros((1, 1, 3)))
    b = Tensor(np.ones((1, 2, 3)))
    m = cosine_alignment(a, b).data
    assert np.all(np.isfinite(m)) and np.all(m == 0.0)
    assert COSINE_EPS == 1e-8


def test_indirect_single_narration_copies_nv_row():
    a_sn = Tensor(np.array([[[0.3], [-0.8]]]))        # S=2, N=1
    a_nv = Tensor(np.array([[[0.1, 0.9, -0.4]]]))     # N=1, T=3
    mask = np.ones((1, 1), dtype=bool)
    out = indirect_alignment(a_sn, a_nv, mask, xi=0.07).data
    np.testing.assert_allclose(out[0, 0], a_nv.data[0, 0], atol=1e-9)
    np.testing.assert_allclose(out[0, 1], a_nv.data[0, 0], atol=1e-9)


@pytest.mark.parametrize("xi", [0.07, 1.0, 13.0])
def test_indirect_equal_scores_average_rows(xi):
    a_sn = Tensor(np.full((1, 1, 2), 0.4))
    a_nv = Tensor(np.array([[[1.0, 0.0, 0.5], [0.0, 1.0, 0.1]]]))
    mask = np.ones((1, 2), dtype=bool)
    out = indirect_alignment(a_sn, a_nv, mask, xi=xi).data
    np.testing.assert_allclose(out[0, 0], [0.5, 0.5, 0.3], atol=1e-9)


def test_indirect_matches_high_precision_oracle():
    rng = np.random.default_rng(6)
    a_sn = np.array([[[0.2, 0.9, 0.1]]])
    a_nv = rng.normal(size=(1, 3, 4))
    mask = np.ones((1, 3), dtype=bool)
    out = indirect_alignment(Tensor(a_sn), Tensor(a_nv), mask, xi=0.07).data
    weights = np_softmax(a_sn.astype(np.float64) / 0.07, axis=-1)
    np.testing.assert_allclose(out, weights @ a_nv, atol=1e-6)


def test_indirect_masked_narrations_excluded_and_bounded():
    rng = np.random.default_rng(7)
    for trial in range(20):
        s, n, t = rng.integers(1, 6, size=3)
        a_sn = rng.uniform(-1, 1, size=(2, s, n))
        a_nv = rng.uniform(-1, 1, size=(2, n, t))
        mask = rng.random((2, n)) < 0.7
        mask[:, 0] = True  # at least one valid narration
        poisoned = a_nv.copy()
        poisoned[~mask] = 99.0  # invalid rows must get exactly zero weight
        out = indirect_alignment(Tensor(a_sn), Tensor(poisoned), mask, 0.07).data
        for b in range(2):
            clean = a_nv[b][mask[b]]
            assert np.all(out[b] >= clean.min(axis=0) - 1e-6)
            assert np.all(out[b] <= clean.max(axis=0) + 1e-6)


def test_fuse_is_elementwise_mean():
    a = Tensor(np.array([[0.2, 0.2]]))
    b = Tensor(np.array([[0.6, 0.2]]))
    np.testing.assert_array_equal(fuse(a, b).data, [[0.4, 0.2]])
    same = fuse(a, a).data
    np.testing.assert_array_equal(same, a.data)
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    f1 = fuse(Tensor(x), Tensor(y)).data
    f2 = fuse(Tensor(3.0 * x), Tensor(3.0 * y)).data
    assert np.array_equal(np.argmax(f1, axis=1), np.argmax(f2, axis=1))


# ---------------------------------------------------------------------------
# whole-model forward


def _two_task_corpus():
    rng = np.random.default_rng(10)
    art_a = make_article("taskA", 2, d_s=3)
    art_b = make_article("taskB", 4, d_s=3)
    v0 = make_video("v0", rng.normal(size=(4, 4)), [Segment(0, 2)], task_id="taskA")
    v1 = make_video("v1", rng.normal(size=(7, 4)),
                    [Segment(0, 1), Segment(3, 6)], task_id="taskB")
    v2 = make_video("v2", rng.normal(size=(5, 4)), [], task_id="taskA")
    return Corpus((v0, v1, v2), {"taskA": art_a, "taskB": art_b}, (4, 3, 3))


def test_forward_shape_contract():
    rng = np.random.default_rng(11)
    art = make_article("taskC", 4, d_s=3)
    video = make_video("v", rng.normal(size=(12, 4)),
                       [Segment(0, 2), Segment(4, 6), Segment(8, 11)],
                       task_id="taskC")
    corpus = Corpus((video,), {"taskC": art}, (4, 3, 3))
    cfg = tiny_config()
    out = forward(init_params(cfg, 0), cfg, one_batch(corpus))[0]
    assert out.a_nv.shape == (3, 12)
    assert out.a_sv.shape == (4, 12)
    assert out.a_sn.shape == (4, 3)
    assert out.a_snv.shape == (4, 12)
    assert out.a_fused.shape == (4, 12)
    np.testing.assert_allclose(out.a_fused, (out.a_sv + out.a_snv) / 2, atol=1e-7)
    assert np.all(np.abs(out.a_nv) <= 1 + 1e-6)
    assert np.all(np.abs(out.a_sv) <= 1 + 1e-6)


def test_forward_without_narrations_falls_back_to_direct():
    cfg = tiny_config()
    corpus = _two_task_corpus()
    batch = one_batch(corpus)
    outs = {o.video_id: o for o in forward(init_params(cfg, 0), cfg, batch)}
    bare = outs["v2"]
    assert bare.a_nv.shape == (0, 5)
    assert np.array_equal(bare.a_fused, bare.a_sv)
    assert np.all(bare.a_snv == 0)


def test_padding_invariance():
    cfg = tiny_config()
    params = init_params(cfg, seed=1)
    corpus = _two_task_corpus()
    batch = one_batch(corpus)
    before = forward(params, cfg, batch)

    rng = np.random.default_rng(12)
    batch.frames[~batch.frame_mask] = rng.normal(
        size=batch.frames[~batch.frame_mask].shape).astype(np.float32)
    batch.narrations[~batch.narration_mask] = rng.normal(
        size=batch.narrations[~batch.narration_mask].shape).astype(np.float32)
    batch.steps[~batch.step_mask] = rng.normal(
        size=batch.steps[~batch.step_mask].shape).astype(np.float32)
    after = forward(params, cfg, batch)
    for x, y in zip(before, after):
        assert np.array_equal(x.a_nv, y.a_nv)
        assert np.array_equal(x.a_sv, y.a_sv)
        assert np.array_equal(x.a_sn, y.a_sn)
        assert np.array_equal(x.a_snv, y.a_snv)
        assert np.array_equal(x.a_fused, y.a_fused)


def test_batching_invariance():
    cfg = tiny_config()
    params = init_params(cfg, seed=2)
    corpus = _two_task_corpus()
    batched = {o.video_id: o for o in forward(params, cfg, one_batch(corpus))}
    for video in corpus.videos:
        solo_corpus = Corpus((video,), corpus.articles, corpus.dims)
        solo = forward(params, cfg, one_batch(solo_corpus))[0]
        ref = batched[video.id]
        for field in ("a_nv", "a_sv", "a_sn", "a_snv", "a_fused"):
            np.testing.assert_allclose(getattr(solo, field),
                                       getattr(ref, field), atol=1e-6)


def test_a_step_and_a_narration_with_the_same_features_encode_identically():
    # one text encoder: the parameters hold no step MLP or step table
    cfg = tiny_config()
    params = init_params(cfg, seed=3)
    assert sorted(k for k in params if k.startswith(("mlp_", "pos_"))) == [
        "mlp_n.l1.b", "mlp_n.l1.w", "mlp_n.l2.b", "mlp_n.l2.w",
        "mlp_v.l1.b", "mlp_v.l1.w", "mlp_v.l2.b", "mlp_v.l2.w", "pos_n", "pos_v"]
    x = Tensor(np.random.default_rng(12).normal(size=(2, 3, 3)).astype(np.float32))
    assert np.array_equal(unimodal_encode(params, x, "step").data,
                          unimodal_encode(params, x, "narration").data)
    # and, through the joint transformer, a step row lands on the narration
    # row with its features and position
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(2, 3)).astype(np.float32)
    from stepalign.corpus import Article, VideoRecord
    art = Article("taskA", "title words here", ("s0", "s1"), feats)
    video = VideoRecord(id="v", frame_features=rng.normal(size=(6, 4)).astype(np.float32),
                        narration_texts=("n0", "n1"),
                        narration_features=feats,
                        narration_spans=(Segment(0, 2), Segment(3, 5)),
                        task_id="taskA")
    corpus = Corpus((video,), {"taskA": art}, (4, 3, 3))
    mirrored = forward(params, cfg, one_batch(corpus))[0]
    assert np.all(np.diag(mirrored.a_sn) > 0.999)


def test_model_config_requires_equal_text_dims():
    # steps go through the narration MLP, so the widths must match; the
    # config says so before any parameter or corpus is touched
    cfg = tiny_config(feature_dims=(4, 3, 5))
    with pytest.raises(ModelError, match="equal narration and step dims, got 3 and 5"):
        cfg.validate()
    with pytest.raises(ModelError, match="equal narration and step dims"):
        init_params(cfg, seed=0)
    with pytest.raises(ConfigError, match="equal narration and step dims"):
        run_config_from_dict({"model": {"feature_dims": [4, 3, 5]}})


def test_dropout_only_active_with_generator():
    cfg = tiny_config(dropout=0.5)
    params = init_params(cfg, seed=4)
    corpus = _two_task_corpus()
    batch = one_batch(corpus)
    a = forward_batch(params, cfg, batch)
    b = forward_batch(params, cfg, batch)
    assert np.array_equal(a.a_sv.data, b.a_sv.data)  # inference path is pure
    rng = np.random.default_rng(15)
    c = forward_batch(params, cfg, batch, dropout_rng=rng)
    assert not np.array_equal(a.a_sv.data, c.a_sv.data)
    # same generator state reproduces the same masks
    d = forward_batch(params, cfg, batch, dropout_rng=np.random.default_rng(15))
    assert np.array_equal(c.a_sv.data, d.a_sv.data)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = tiny_config()
    params = init_params(cfg, seed=5)
    extra = {"opt.m.mlp_v.l1.w": np.random.default_rng(0).normal(size=(4, 6))}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {**{k: p.data for k, p in params.items()}, **extra},
                    meta={"epoch": 3})
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    arrays, meta = load_checkpoint(path)
    assert meta == {"epoch": 3}
    assert list(arrays) == list({**params, **extra})  # the caller's order
    for k, p in params.items():
        assert arrays[k].tobytes() == p.data.tobytes()
        assert arrays[k].dtype == np.float32
    assert arrays["opt.m.mlp_v.l1.w"].dtype == np.float64
    assert arrays["opt.m.mlp_v.l1.w"].tobytes() == extra["opt.m.mlp_v.l1.w"].tobytes()

    # a reloaded model reproduces the original forward bit-for-bit
    restored = params_from_arrays(
        {k: v for k, v in arrays.items() if not k.startswith("opt.")})
    batch = one_batch(_two_task_corpus())
    a = forward(params, cfg, batch)
    b = forward(restored, cfg, batch)
    for x, y in zip(a, b):
        assert np.array_equal(x.a_fused, y.a_fused)


def test_checkpoint_truncated_file(tmp_path):
    from stepalign.tensorio import FormatError
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 3), dtype=np.float32)})
    whole = path.read_bytes()
    for cut, match in [(whole[:-1], "truncated"), (whole[:20], "header"),
                       (whole + b"\0", "trailing")]:
        path.write_bytes(cut)
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "missing.ckpt")


def test_detach_params_shares_values_but_not_graph():
    cfg = tiny_config()
    params = init_params(cfg, seed=6)
    frozen = detach_params(params)
    assert all(not p.requires_grad for p in frozen.values())
    assert frozen["mlp_v.l1.w"].data is params["mlp_v.l1.w"].data
