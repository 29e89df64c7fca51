"""Reverse-mode engine: closed-form gradients, finite differences, broadcasting."""

import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf

from stepalign import encoder
from stepalign.autodiff import (GradientError, Node, Tensor, _normal_cdf,
                                attention, concat, dropout, layer_norm, mlp)
from stepalign.corpus import SynthConfig, generate_synthetic
from stepalign.corpus.batching import LabelSource, batch_iter
from stepalign.encoder import (MASK_FILL, ModelConfig, forward, forward_batch,
                               indirect_alignment, init_params)
from stepalign.objective import LossConfig, gradients, total_loss
from stepalign.pseudolabel import PseudoConfig
from stepalign.trainer import TrainConfig, train


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        hi = f(x)
        x[i] = orig - eps
        lo = f(x)
        x[i] = orig
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def check_grad(build, shape, seed=0, atol=1e-6, rtol=1e-5):
    """Compare backward() against finite differences for scalar-valued build."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    assert out.data.size == 1
    out.backward()
    num = numeric_grad(lambda a: float(build(Tensor(a)).data), x.copy())
    np.testing.assert_allclose(t.grad, num, atol=atol, rtol=rtol)


def test_sum_of_squares_gradient_exact():
    x = Tensor(np.array([[1.0, -2.0, 3.0]]), requires_grad=True)
    (x * x).sum().backward()
    assert np.array_equal(x.grad, np.array([[2.0, -4.0, 6.0]]))


_FD = np.random.default_rng(9)
_X, _B = _FD.normal(size=(3, 4)), _FD.normal(size=(1, 4))
_WEIGHTS = Tensor(_FD.normal(size=(3, 4)))  # so no output sum is constant
# x, wq, bq, wk, bk, wv, bv, wo and bo of attention on 2 videos of 3 tokens
# x 2 dims, 2 heads of 1 dim; in the first video key 1 is blocked, in the
# second key 2 is padding; and how each is cut from a (3, 4) input
_ATTN = [_FD.normal(size=s) for s in [(2, 3, 2)] + [(2, 2), (1, 2)] * 4]
_KEY_BIAS = np.array([[0.0, MASK_FILL, 0.3],
                      [0.2, -0.1, MASK_FILL]])[:, None, None, :]
_ATTN_CUTS = ([lambda t: t.reshape(2, 3, 2)]
              + [lambda t: t[1:, 2:], lambda t: t[2:, :2]] * 4)
# x, w1, b1, w2, b2 of an MLP on 2 videos of 3 tokens x 2 dims, hidden width 4,
# and how each is cut from a (3, 4) input
_MLP = [_FD.normal(size=s) for s in [(2, 3, 2), (2, 4), (1, 4), (4, 2), (1, 2)]]
_TOKEN_WEIGHTS = Tensor(_FD.normal(size=(2, 3, 2)))  # of mlp's and attention's outputs
_MLP_CUTS = [lambda t: t.reshape(2, 3, 2), lambda t: t[:2], lambda t: t[:1],
             lambda t: t.swapaxes(0, 1)[:, :2], lambda t: t[:1, :2]]
# a_sn and a_nv of one video, 3 steps x 4 narrations x 3 frames, narration 1
# blocked; and of 3 videos of 1 step, with different narrations blocked
_A_SN, _A_NV = Tensor(_FD.uniform(-1, 1, size=(1, 3, 4))), Tensor(_FD.normal(size=(1, 4, 3)))
_ONE_BLOCKED = np.array([[True, False, True, True]])
_A_NV3 = Tensor(_FD.normal(size=(3, 4, 2)))
_BLOCKED_PER_VIDEO = np.array([[True, True, False, True], [False, True, True, False],
                               [True] * 4])


def _attention_fd(t, operand):
    operands = [Tensor(a) for a in _ATTN]
    operands[operand] = _ATTN_CUTS[operand](t)
    return (attention(*operands, 2, 0.7, _KEY_BIAS) * _TOKEN_WEIGHTS).sum()


def _mlp_fd(t, operand):
    operands = [Tensor(a) for a in _MLP]
    operands[operand] = _MLP_CUTS[operand](t)
    return (mlp(*operands) * _TOKEN_WEIGHTS).sum()


def _indirect_fd(a_sn, a_nv, mask, xi=0.5):
    out = indirect_alignment(a_sn, a_nv, mask, xi)
    return (out * Tensor(np.arange(out.data.size).reshape(out.shape) - 2.0)).sum()


@pytest.mark.parametrize("build", [
    lambda t: (t + 2.0).sum(),
    lambda t: (Tensor(2.0) - t).sum(),
    lambda t: (t * t * 0.5).sum(),
    lambda t: (t / 3.0).sum(),
    lambda t: (Tensor(1.0) / (t * t + 1.0)).sum(),
    lambda t: ((t * t + 0.5).sqrt()).sum(),
    lambda t: (t.exp()).mean(),
    lambda t: ((t * t + 0.1).log()).sum(),
    lambda t: t.swapaxes(0, 1).reshape(12).__getitem__(slice(2, 9)).sum(),
    lambda t: t.mean(axis=0).sum(),
    lambda t: t.sum(axis=1, keepdims=True).mean(),
    lambda t: t[1:, ::2].sum() + t[np.array([0, 0, 2]), 1].sum(),
    # the softmax over narrations, built from generic nodes: with respect to
    # a_sn, to a_nv and to both at once, with one narration blocked, with
    # different ones blocked in each video, and with none blocked
    lambda t: _indirect_fd(t.reshape(1, 3, 4), _A_NV, _ONE_BLOCKED),
    lambda t: _indirect_fd(_A_SN, t.reshape(1, 4, 3), _ONE_BLOCKED),
    lambda t: _indirect_fd(t.reshape(1, 3, 4), t.swapaxes(0, 1).reshape(1, 4, 3),
                           _ONE_BLOCKED, xi=0.07),
    lambda t: _indirect_fd(t.reshape(3, 1, 4), _A_NV3, _BLOCKED_PER_VIDEO),
    lambda t: _indirect_fd(t.reshape(1, 3, 4), _A_NV, np.ones((1, 4), bool), xi=1.0),
    lambda t: _indirect_fd(_A_SN, t.reshape(1, 4, 3), np.ones((1, 4), bool), xi=1.0),
    lambda t: _mlp_fd(t, 0),
    # the fused nodes, with respect to each operand
    lambda t: (layer_norm(t, Tensor(_B), Tensor(_B), 1e-5) * _WEIGHTS).sum(),
    lambda t: (layer_norm(Tensor(_X), t, Tensor(_B), 1e-5) * _WEIGHTS).sum(),
    lambda t: (layer_norm(Tensor(_X), Tensor(_B), t, 1e-5) * _WEIGHTS).sum(),
    lambda t: _mlp_fd(t, 1),
    lambda t: _attention_fd(t, 0),
    lambda t: _attention_fd(t, 1),
    lambda t: _attention_fd(t, 2),
    lambda t: _mlp_fd(t, 3),
    lambda t: _mlp_fd(t, 4),
    lambda t: _mlp_fd(t, 2),
    lambda t: _attention_fd(t, 3),
    lambda t: _attention_fd(t, 4),
    lambda t: _attention_fd(t, 5),
    lambda t: _attention_fd(t, 6),
    lambda t: _attention_fd(t, 7),
    lambda t: _attention_fd(t, 8),
])
def test_op_gradients_match_finite_differences(build):
    check_grad(build, (3, 4))


def test_matmul_gradients():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(4, 2))
    check_grad(lambda t: (t @ Tensor(b)).sum(), (3, 4))
    a = rng.normal(size=(3, 4))
    check_grad(lambda t: (Tensor(a) @ t).sum(), (4, 2))
    # batched
    c = rng.normal(size=(2, 4, 3))
    check_grad(lambda t: (t @ Tensor(c)).sum(), (2, 5, 4))


def test_broadcast_unbroadcast():
    a = Tensor(np.ones((3, 1)), requires_grad=True)
    b = Tensor(np.ones((1, 4)), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad.shape == (3, 1) and np.all(a.grad == 4.0)
    assert b.grad.shape == (1, 4) and np.all(b.grad == 3.0)
    # broadcasting against a leading batch axis
    bias = Tensor(np.ones((1, 5)), requires_grad=True)
    x = Tensor(np.ones((2, 3, 5)))
    (x * bias).sum().backward()
    assert bias.grad.shape == (1, 5) and np.all(bias.grad == 6.0)


def test_concat_gradients():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
    assert np.array_equal(a.grad, np.array([[0.0, 1.0], [5.0, 6.0]]))
    assert np.array_equal(b.grad, np.array([[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]]))


def test_getitem_scatter_accumulates():
    x = Tensor(np.zeros(4), requires_grad=True)
    y = x[np.array([0, 0, 2])].sum()
    y.backward()
    assert x.grad.tolist() == [2.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("idx", [
    1, np.int64(-1), slice(1, 3), (slice(None), slice(2, None)),
    (Ellipsis, 0), (0, None, slice(None, None, 2)),  # basic: assigned
    (np.array([1, 1, 0]),), (slice(None), np.array([3, 0, 3])),
    (np.array([0, 1, 0]), np.array([2, 2, 2])),  # advanced, with repeats
    np.array([[True, False, True, False]] * 2),
])
def test_getitem_gradient_sums_every_pick(idx):
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    out = x[idx]
    seed = rng.normal(size=out.shape)
    out.backward(seed)
    expected = np.zeros((2, 4))
    np.add.at(expected, idx, seed)
    assert np.array_equal(x.grad, expected)


def test_reuse_accumulates_gradient():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x + x
    y.sum().backward()
    assert x.grad.tolist() == [7.0]


def test_softmax_rows_sum_to_one_and_shift_invariant():
    # routed through identity narration rows, indirect_alignment returns its
    # softmax weights over the narrations as they are
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 5, 7)) * 10
    eye, valid = Tensor(np.eye(7)[None]), np.ones((1, 7), bool)
    s = indirect_alignment(Tensor(x), eye, valid, 1.0).data
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    shifted = indirect_alignment(Tensor(x + 123.0), eye, valid, 1.0).data
    np.testing.assert_allclose(s, shifted, atol=1e-12)
    # extreme logits stay finite, and a blocked narration gets no weight
    s = indirect_alignment(Tensor(np.array([[[0.0, -1e9, 5.0]]])), Tensor(np.eye(3)[None]),
                           np.array([[True, True, False]]), 1.0).data
    assert s[0, 0, 0] == 1.0 and s[0, 0, 1] == 0.0 and s[0, 0, 2] == 0.0


def _composed_softmax(x, scale, bias):
    """softmax(x * scale + bias) built from generic nodes, as
    indirect_alignment builds it."""
    z = x * scale + Tensor(bias)
    e = (z - np.max(z.data, axis=-1, keepdims=True)).exp()
    return e / e.sum(axis=-1, keepdims=True)


def _composed_layer_norm(x, g, b, eps):
    """Layer norm built from generic nodes: run in float64, the reference
    of layer_norm."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * g + b


def _cdf_gelu(x):
    """GELU as a node that keeps its input and CDF alive: between x @ w1 + b1
    and @ w2 + b2, the reference mlp, which recomputes the hidden layer and
    its CDF in backward, must match bit for bit. The CDF is the package's,
    in x's dtype, and the pdf is rounded to it, so the GELU and its slope
    keep x's dtype."""
    data, node = x.data, x.node
    dtype = data.dtype
    cdf = _normal_cdf(data)

    def back(g):
        pdf = (np.exp(-0.5 * data ** 2) * (1.0 / np.sqrt(2.0 * np.pi))).astype(dtype)
        node._accum(g * (cdf + data * pdf))
    return Tensor._result(data * cdf, (x,), back)


def _composed_mlp(x, w1, b1, w2, b2):
    return _cdf_gelu(x @ w1 + b1) @ w2 + b2


def _assert_matches(got, want, dtype, exact):
    """An output or gradient of a fused node, from operands of dtype, against
    the same one from its composed chain: run in dtype and equal bit for bit
    when exact, else run in float64 and within 1e-12 * max|want| for float64
    operands and 1e-5 * max|want| for float32 ones."""
    assert got.dtype == dtype
    if exact:
        assert want.dtype == dtype and np.array_equal(got, want)
    else:
        assert want.dtype == np.float64
        tol = (1e-12 if dtype == np.float64 else 1e-5) * np.abs(want).max()
        assert np.abs(got - want).max() <= tol


_FUSED = {  # op, its reference, operand shapes
    "layer_norm": (lambda x, g, b: layer_norm(x, g, b, 1e-5),
                   lambda x, g, b: _composed_layer_norm(x, g, b, 1e-5),
                   [(2, 5, 6), (1, 6), (1, 6)]),
    # the GELU MLP, with the affine maps on either side of the GELU; 3 rows, so
    # the order in which the rows' weight gradients are summed shows
    "gelu": (mlp, _composed_mlp, [(3, 5, 6), (6, 7), (1, 7), (7, 6), (1, 6)]),
}


@pytest.mark.parametrize("residual", [False, True], ids=["alone", "residual"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", list(_FUSED))
def test_fused_node_matches_composed_ops_bit_for_bit(name, dtype, residual):
    # mlp against its chain in dtype, bit for bit; layer_norm against its
    # chain in float64, within tolerance. With the residual, x also feeds
    # x + op(x): its gradient then sums three or four terms, and for mlp
    # only the composed ops' order gives its bits
    fused, composed, shapes = _FUSED[name]
    exact = name == "gelu"
    rng = np.random.default_rng(8)
    data = [rng.normal(size=shape).astype(dtype) for shape in shapes]
    data[1:] = [d * 0.5 + 1.0 for d in data[1:]]  # gains and biases off 0/1
    seed = None
    outs, grads = [], []
    for build, run_dtype in ((fused, dtype), (composed, dtype if exact else np.float64)):
        operands = [Tensor(d.astype(run_dtype), requires_grad=True) for d in data]
        out = build(*operands)
        if residual:
            out = operands[0] + out
        if seed is None:
            seed = rng.normal(size=out.shape).astype(dtype)
        out.backward(seed)
        outs.append(out.data)
        grads.append([t.grad for t in operands])
    _assert_matches(*outs, dtype, exact)
    for fused_grad, composed_grad in zip(*grads):
        _assert_matches(fused_grad, composed_grad, dtype, exact)


@pytest.mark.parametrize("name", ["layer_norm", "gelu"])
def test_fused_nodes_skip_operands_without_gradient(name):
    # float64 operands: mlp matches its chain bit for bit, layer_norm within
    # 1e-12 * max|want|
    fused, composed, shapes = _FUSED[name]
    rng = np.random.default_rng(10)
    data = [rng.normal(size=shape) for shape in shapes]
    # each operand alone, and all but the input, as in the unimodal MLPs
    count = len(shapes)
    for needs in ([tuple(j == i for j in range(count)) for i in range(count)]
                  + [tuple(j > 0 for j in range(count))]):
        grads = []
        for build in (fused, composed):
            operands = [Tensor(d.copy(), requires_grad=r) for d, r in zip(data, needs)]
            out = build(*operands)
            out.backward(np.ones(out.shape))
            grads.append([t.grad for t in operands])
        for fused_grad, composed_grad, r in zip(*grads, needs):
            assert (fused_grad is None) == (composed_grad is None) == (not r)
            if r:
                _assert_matches(fused_grad, composed_grad, np.float64, name == "gelu")


def test_layer_norm_gradient_keeps_the_closed_form_invariants():
    # layer_norm's output does not change when a row is shifted, nor, with
    # eps = 0, when it is scaled; so x's gradient sums to 0 along the last
    # axis and is orthogonal to the normalised row x_hat
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(3, 5, 8)) * 3.0 + 2.0, requires_grad=True)
    g, b = (Tensor(rng.normal(size=(1, 8)) * 0.5 + 1.0) for _ in range(2))
    layer_norm(x, g, b, 0.0).backward(rng.normal(size=x.shape))
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    x_hat = centered / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True))
    tol = 1e-12 * np.abs(x.grad).max() * x.shape[-1]
    assert np.abs(x.grad.sum(axis=-1)).max() <= tol
    assert np.abs((x.grad * x_hat).sum(axis=-1)).max() <= tol


@pytest.mark.parametrize("calls", [1, 2], ids=["once", "twice"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mlp_on_constant_input_matches_composed_chain_bit_for_bit(dtype, calls):
    # the unimodal MLPs: x is a batch of features, with no node; the teacher
    # runs both narrations and steps through one MLP, so with two calls each
    # weight receives two gradients
    rng = np.random.default_rng(15)
    shapes = _FUSED["gelu"][2]
    xs = [rng.normal(size=(3, 5 + k, 6)).astype(dtype) for k in range(calls)]
    weights = [(rng.normal(size=s) * 0.5 + 1.0).astype(dtype) for s in shapes[1:]]
    seed = rng.normal(size=(3, sum(x.shape[1] for x in xs), 6))
    outs, grads = [], []
    for build in (mlp, _composed_mlp):
        leaves = [Tensor(w.copy(), requires_grad=True) for w in weights]
        out = concat([build(Tensor(x), *leaves) for x in xs], axis=1)
        out.backward(seed)
        outs.append(out.data)
        grads.append([t.grad for t in leaves])
    assert outs[0].dtype == outs[1].dtype
    assert np.array_equal(outs[0], outs[1])
    for fused_grad, composed_grad in zip(*grads):
        assert fused_grad.dtype == composed_grad.dtype == dtype
        assert np.array_equal(fused_grad, composed_grad)


def _heads(t, num_heads):
    b, n, d = t.shape
    return t.reshape(b, n, num_heads, d // num_heads).swapaxes(1, 2)


def _composed_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, num_heads, scale, bias):
    """Attention and its projections built from generic nodes: run in
    float64, the reference of the attention node within tolerance."""
    q, k, v = (_heads(x @ w + c, num_heads) for w, c in ((wq, bq), (wk, bk), (wv, bv)))
    p = _composed_softmax(q @ k.swapaxes(-1, -2), scale, bias)
    return (p @ v).swapaxes(1, 2).reshape(*x.shape) @ wo + bo


def _qkv_attention(q, k, v, scale, bias):
    """softmax(q @ k^T * scale + bias) @ v with the heads merged, as one node
    on q, k and v, (B, H, n, dh), that forms the softmax gradient in closed
    form per video, in the attention node's arithmetic."""
    b, h, n, dh = q.shape
    scale = np.asarray(scale, q.dtype)
    bias = np.broadcast_to(bias, (b,) + np.shape(bias)[1:])
    p = []
    for i in range(b):
        z = q.data[i] @ k.data[i].swapaxes(-1, -2) * scale + bias[i]
        z = np.exp(z - z.max(axis=-1, keepdims=True))
        p.append(z / z.sum(axis=-1, keepdims=True))
    out = np.stack([p[i] @ v.data[i] for i in range(b)]).swapaxes(1, 2)
    nq, nk, nv = q.node, k.node, v.node

    def back(g):
        g_o = g.reshape(b, n, h, dh).swapaxes(1, 2)
        g_q, g_k, g_v = [], [], []
        for i in range(b):
            g_v.append(p[i].swapaxes(-1, -2) @ g_o[i])
            g_s = g_o[i] @ v.data[i].swapaxes(-1, -2)
            g_s = (g_s - (g_s * p[i]).sum(axis=-1, keepdims=True)) * p[i] * scale
            g_q.append(g_s @ k.data[i])
            g_k.append(g_s.swapaxes(-1, -2) @ q.data[i])
        for node, grads in ((nv, g_v), (nq, g_q), (nk, g_k)):
            if node is not None:
                node._accum(np.stack(grads))
    return Tensor._result(out.reshape(b, n, h * dh), (q, k, v), back)


def _chained_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, num_heads, scale, bias):
    """Four x @ w + b maps around _qkv_attention: the chain whose bits the
    attention node keeps, in both directions."""
    q, k, v = (_heads(x @ w + c, num_heads) for w, c in ((wq, bq), (wk, bk), (wv, bv)))
    return _qkv_attention(q, k, v, scale, bias) @ wo + bo


@pytest.mark.parametrize("operands", ["qkv", "q", "k", "v", "projections",
                                      "shared_bias", "one_video"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_attention_matches_composed_ops_bit_for_bit(dtype, operands):
    # against the chain of four x @ w + b maps around a q, k, v attention
    # node, run in dtype, bit for bit; and against the same computation
    # built from generic nodes in float64, within 1e-12 * max|want| for
    # float64 operands and 1e-5 * max|want| for float32 ones. "projections"
    # makes every operand a leaf that requires a gradient, as the encoder
    # does, so x's gradient sums three terms in the order the chain's graph
    # walk gives them; "qkv" makes every weight and bias a leaf but not x,
    # and "q", "k" and "v" those of one projection and of the output;
    # "shared_bias" gives the three videos one (1, 1, 1, n) bias, which the
    # node broadcasts instead of indexing, and zero-pads them to lengths 4,
    # 5 and 6; "one_video" is a batch of one video. The other cases pad the
    # first video to 4 tokens and block two keys inside the second
    rng = np.random.default_rng(11)
    b, h, n, dh = (1 if operands == "one_video" else 3), 2, 6, 4
    d = h * dh
    keys = np.ones((b, n), dtype=bool)
    keys[0, 4:] = False  # a padded video
    keys[1:2, 1] = keys[1:2, 3] = False  # blocked keys inside a video
    bias = np.where(keys, 0.0, MASK_FILL).astype(dtype)[:, None, None, :]
    if operands == "shared_bias":
        bias = np.where(np.arange(n) < n - 1, 0.0, MASK_FILL).astype(dtype)
        bias = bias[None, None, None, :]
    data = [rng.normal(size=shape).astype(dtype)
            for shape in [(b, n, d)] + [(d, d), (1, d)] * 4]
    if operands == "shared_bias":
        data[0][0, 4:] = data[0][1, 5:] = 0.0
    seed = rng.normal(size=(b, n, d)).astype(dtype)
    names = ["x"] + [f"{proj}{part}" for proj in "qkvo" for part in "wb"]
    needs_grad = {"qkv": "qkvo", "q": "qo", "k": "ko", "v": "vo"}.get(operands)
    outs, grads = [], []
    for build, run_dtype in ((attention, dtype), (_chained_attention, dtype),
                             (_composed_attention, np.float64)):
        leaves = [Tensor(a.astype(run_dtype),
                         requires_grad=needs_grad is None or name[0] in needs_grad)
                  for a, name in zip(data, names)]
        out = build(*leaves, h, 1.0 / np.sqrt(dh), bias)
        out.backward(seed)
        outs.append(out.data)
        grads.append([t.grad for t in leaves])
    _assert_matches(outs[0], outs[1], dtype, exact=True)
    _assert_matches(outs[0], outs[2], dtype, exact=False)
    for fused_grad, chained_grad, composed_grad, t, name in zip(*grads, leaves, names):
        assert ((fused_grad is None) == (chained_grad is None) == (composed_grad is None)
                == (not t.requires_grad))
        if not t.requires_grad:
            continue
        _assert_matches(fused_grad, chained_grad, dtype, exact=True)
        if name == "kb":
            # q . bk adds the same to every key's score of a query, which the
            # softmax ignores: bk's gradient is 0 up to rounding, judged at
            # wk's scale
            scale = np.abs(grads[2][names.index("kw")]).max()
            assert np.abs(fused_grad).max() <= (1e-12 if dtype == np.float64 else 1e-5) * scale
        else:
            _assert_matches(fused_grad, composed_grad, dtype, exact=False)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_dropout_matches_product_with_scaled_mask_bit_for_bit(dtype):
    rng = np.random.default_rng(12)
    x_data = rng.normal(size=(2, 5, 6)).astype(dtype)
    keep = rng.random(x_data.shape) >= 0.1
    keep_float = keep.astype(dtype) / (1.0 - 0.1)
    seed = rng.normal(size=x_data.shape)
    outs, grads = [], []
    for build in (lambda x: dropout(x, keep, 0.1),
                  lambda x: x * Tensor(keep_float)):
        x = Tensor(x_data.copy(), requires_grad=True)
        out = build(x)
        out.backward(seed)
        outs.append(out.data)
        grads.append(x.grad)
    assert outs[0].dtype == outs[1].dtype == grads[0].dtype == grads[1].dtype == dtype
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(grads[0], grads[1])


def test_gelu_values():
    # gelu(0) = 0, gelu is odd-symmetric around the identity: g(x) - g(-x) = x;
    # identity weights and zero biases leave gelu(x) as it is
    x = np.linspace(-3, 3, 13)
    eye, zero = Tensor(np.eye(1)), Tensor(np.zeros((1, 1)))
    g = mlp(Tensor(x.reshape(13, 1, 1)), eye, zero, eye, zero).data.reshape(13)
    assert g[6] == 0.0
    np.testing.assert_allclose(g - g[::-1], x, atol=1e-12)


def _exact_cdf(x):
    return 0.5 * (1.0 + erf(x.astype(np.float64) / np.sqrt(2.0)))


def test_float32_normal_cdf_is_within_a_few_ulps_of_scipy():
    # the rational erf against scipy's erf of the same float32 points:
    # 2.28e-7 at worst, against 6e-8 for one float32 ulp just below 1
    x = np.linspace(-12.0, 12.0, 2_000_001).astype(np.float32)
    x_before = x.copy()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _normal_cdf(x)
    assert got.dtype == np.float32 and got.shape == x.shape
    assert np.array_equal(x, x_before)
    assert np.abs(got - _exact_cdf(x)).max() <= 3e-7
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], np.float32)
    assert np.array_equal(_normal_cdf(edges), [0.5, 0.5, 1.0, 0.0, np.nan],
                          equal_nan=True)


def test_float64_normal_cdf_is_within_a_few_ulps_of_scipy():
    # the C library's erf: finite differences of float64 models need an erf
    # much closer than the float32 rational's. The CDF's error is at most one
    # float64 ulp of 1, 2.2e-16, and 0 on most points
    rng = np.random.default_rng(11)
    for x in (rng.normal(size=(3, 10_001)) * 3.0, np.linspace(-40.0, 40.0, 80_001)):
        got = _normal_cdf(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.abs(got - _exact_cdf(x)).max() <= 2 * np.spacing(1.0)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    assert np.array_equal(_normal_cdf(edges), [0.5, 0.5, 1.0, 0.0, np.nan],
                          equal_nan=True)


def test_backward_error_contracts():
    with pytest.raises(GradientError):
        Tensor(np.ones(3)).backward()  # no recorded graph
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GradientError, match="scalar"):
        (t * 2).backward()
    with pytest.raises(GradientError, match="shape"):
        (t * 2).backward(np.ones(4))
    with pytest.raises(GradientError, match="matmul"):
        Tensor(np.ones(3), requires_grad=True) @ Tensor(np.ones((3, 2)))


def test_detach_blocks_gradient_flow():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = (x * 3).detach()
    assert not y.requires_grad
    z = x * y
    z.sum().backward()
    assert x.grad.tolist() == [6.0]


def test_deep_chain_avoids_recursion_limit():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.001
    y.sum().backward()
    assert x.grad.tolist() == [1.0]


def test_backward_releases_intermediates():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([0.5, 0.25, 2.0]), requires_grad=True)
    hidden = (x * w).exp()
    probe = weakref.ref(hidden.data)
    loss = (hidden * hidden).sum()
    del hidden
    assert probe() is not None  # the closures still hold it before backward
    loss.backward()
    assert probe() is None


def test_release_keeps_leaf_gradients():
    rng = np.random.default_rng(3)
    a_data, b_data = rng.normal(size=(4, 3)), rng.normal(size=(3, 5))
    a = Tensor(a_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    grads = []
    for _ in range(2):  # leaves outlive each graph, like parameters across steps
        a.grad = b.grad = None
        (_composed_softmax(a @ b, 1.0, 0.0) * (a @ b)).sum().backward()
        grads.append((a.grad, b.grad))
    assert all(np.array_equal(g, h) for g, h in zip(*grads))
    # closed form of the same expression, written out by hand
    z = a_data @ b_data
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    dz = p + p * (z - (p * z).sum(axis=-1, keepdims=True))
    np.testing.assert_allclose(a.grad, dz @ b_data.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(b.grad, a_data.T @ dz, rtol=1e-12, atol=1e-12)


def test_second_backward_raises():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = x * x
    loss = y.sum()
    loss.backward()
    assert x.grad.tolist() == [4.0, 6.0]
    with pytest.raises(GradientError, match="already released"):
        loss.backward()
    # a new loss built on a released node is refused too, not zero-filled
    with pytest.raises(GradientError, match="already released"):
        (y * 2.0).sum().backward()


@pytest.mark.parametrize("build", [
    lambda x, c: x + c,
    lambda x, c: x * c,
    lambda x, c: x / c,
    lambda x, c: x @ c,
    lambda x, c: concat([x, c], axis=1),
], ids=["add", "mul", "div", "matmul", "concat"])
def test_constant_operand_gets_no_gradient(build):
    x = Tensor(np.ones((3, 3)), requires_grad=True)
    c = Tensor(np.full((3, 3), 2.0))
    build(x, c).sum().backward()
    assert x.grad is not None
    assert c.grad is None


def _curriculum_step():
    """Model, parameters and first training batch at curriculum sizes."""
    corpus = generate_synthetic(SynthConfig(num_tasks=4, videos_per_task=25, seed=7))
    mc = ModelConfig(feature_dims=corpus.dims, model_dim=64, num_layers=2,
                     num_heads=4, dropout=0.1)
    batch = next(batch_iter(corpus, 8, 128, 7, LabelSource.ASR_TIMESTAMPS))
    return mc, init_params(mc, 7), batch


def test_training_step_accumulates_only_into_tensors_that_require_grad(monkeypatch):
    # curriculum sizes: masks, attention biases, dropout keeps, loss weights
    # and the input features all enter the graph as constant operands, which
    # get no node; so every leaf node a gradient reaches is a parameter's
    mc, params, batch = _curriculum_step()
    receivers = []
    accum = Node._accum

    def recording_accum(self, grad):
        receivers.append(self)
        accum(self, grad)
    monkeypatch.setattr(Node, "_accum", recording_accum)
    alignments = forward_batch(params, mc, batch,
                               dropout_rng=np.random.default_rng(7))
    loss, _ = total_loss(alignments, batch, LossConfig())
    gradients(loss, params)
    leaves = {id(r) for r in receivers if r.backward is None}
    assert leaves and leaves <= {id(p.node) for p in params.values()}
    assert len(receivers) > len(leaves)
    assert all(p.grad is not None for p in params.values())


def _captured(fn) -> list:
    """What a function's closure holds, through the functions, tuples and
    lists it holds."""
    found, todo = [], [fn]
    while todo:
        value = todo.pop()
        if isinstance(value, (tuple, list)):
            todo.extend(value)
        elif callable(value):
            todo.extend(cell.cell_contents
                        for cell in getattr(value, "__closure__", None) or ())
        else:
            found.append(value)
    return found


def _held_arrays(loss) -> list[np.ndarray]:
    """The distinct arrays the graph under loss keeps alive, from forward to
    backward: nodes hold no array, so these are the arrays the backward
    closures of its nodes capture. A view counts as the array that owns its
    memory."""
    held, seen, stack = {}, set(), [loss.node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for array in _captured(node.backward):
            if isinstance(array, np.ndarray):
                owner = array if array.base is None else array.base
                held[id(owner)] = owner
        stack.extend(node.parents)
    return list(held.values())


def _count(arrays, shape) -> int:
    return sum(a.shape == shape for a in arrays)


def _curriculum_graph():
    mc, params, batch = _curriculum_step()
    alignments = forward_batch(params, mc, batch,
                               dropout_rng=np.random.default_rng(7))
    loss, _ = total_loss(alignments, batch, LossConfig())
    n_tok = sum(m.shape[1] for m in (batch.frame_mask, batch.narration_mask,
                                     batch.step_mask))
    return mc, len(batch.video_ids), n_tok, _held_arrays(loss)


def test_attention_keeps_no_score_sized_array():
    # the attention node recomputes q @ k^T and the probabilities in
    # backward; as a chain it kept both, 2 (B, H, n, n) arrays per layer
    mc, b, n_tok, held = _curriculum_graph()
    assert _count(held, (b, mc.num_heads, n_tok, n_tok)) == 0


def _attention_operands(b, n, d, seed):
    """x, the weights and biases of attention, all requiring a gradient, key
    biases that pad the videos to lengths from n / 2 to n, and an output
    gradient."""
    rng = np.random.default_rng(seed)
    operands = [Tensor(rng.normal(size=shape) * scale, requires_grad=True)
                for shape, scale in [((b, n, d), 1.0)] + [((d, d), 0.2), ((1, d), 1.0)] * 4]
    keys = np.arange(n) < np.linspace(n // 2, n, b)[:, None]
    bias = np.where(keys[:, None, None, :], 0.0, MASK_FILL)
    return operands, bias, rng.normal(size=(b, n, d))


def _attention_peaks(b, n, d, h):
    """Peak traced bytes above the inputs of attention's forward, and of its
    forward and backward."""
    operands, bias, seed = _attention_operands(b, n, d, 13)
    tracemalloc.start()
    try:
        inputs = tracemalloc.get_traced_memory()[0]
        out = attention(*operands, h, 1.0 / np.sqrt(d // h), bias)
        forward_peak = tracemalloc.get_traced_memory()[1] - inputs
        out.backward(seed)
        peak = tracemalloc.get_traced_memory()[1] - inputs
    finally:
        tracemalloc.stop()
    assert all(t.grad.shape == t.shape for t in operands)
    return forward_peak, peak


def test_attention_never_allocates_a_score_sized_array():
    # forward and backward work one video at a time: the peak above the
    # inputs holds the output, x's gradient and a few (H, n, n) blocks.
    # Multiplying the whole batch at once allocated q @ k^T and its scaled
    # copy side by side, two (B, H, n, n) arrays
    b, h, n, dh = 8, 4, 176, 16
    _, peak = _attention_peaks(b, n, h * dh, h)
    assert peak < b * h * n * n * np.dtype(np.float64).itemsize


def test_attention_never_allocates_a_token_sized_q_k_or_v():
    # the projections run one video at a time too. Forward's peak above the
    # inputs holds the output, (B, n, d), and one video's arrays: 1.4
    # (B, n, d) arrays here, against 6.2 when x @ w + b nodes made q, k and
    # v and kept them. Backward adds x's gradient and the weights': 3.4 in
    # all, against 8.4 when q, k and v also got whole-batch gradients
    b, n, d, h = 16, 48, 64, 2
    forward_peak, peak = _attention_peaks(b, n, d, h)
    token_sized = b * n * d * np.dtype(np.float64).itemsize
    assert forward_peak < 2 * token_sized
    assert peak < 5 * token_sized


def test_attention_keeps_only_its_input_and_weights():
    # what backward reads: x, the weights and biases the projections are
    # recomputed from, and the key biases; no q, k, v, probabilities or
    # output. bo's gradient is the output gradient's, so bo is not kept
    operands, bias, _ = _attention_operands(2, 5, 4, 19)
    held = _held_arrays(attention(*operands, 2, 0.5, bias))
    assert sorted(map(id, held)) == sorted([id(t.data) for t in operands[:-1]] + [id(bias)])


def test_fused_nodes_keep_the_token_sized_arrays_down():
    # a node keeps only what its backward reads: x @ w + b its input, not its
    # output; layer_norm its input and (B, n, 1) statistics; mlp its input,
    # not the hidden layer or its GELU. 60 (B, n, model_dim) and 8
    # (B, n, ffn_dim) arrays when each was a chain of generic nodes, 30 and 4
    # while every node kept its output, 21 and 2 while the FFN's GELU node
    # kept its input, the first FFN product's sum, and 15 once attention
    # took its projections and kept only its input, not q, k, v and its
    # output
    mc, b, n_tok, held = _curriculum_graph()
    assert _count(held, (b, n_tok, mc.model_dim)) <= 15
    assert _count(held, (b, n_tok, mc.ffn_dim)) == 0


def test_training_graph_bytes_stay_bounded():
    # every array the graph holds, parameters included: 44.0 MB while
    # attention was a chain that kept q @ k^T and the probabilities and
    # dropout kept float64 masks, 28.5 MB with the attention node, 26.4 MB
    # with the dropout node's bool masks and 15.0 MB once nodes kept only
    # what their backward reads, 10.9 MB once the FFN's hidden layer was
    # recomputed in backward, 6.0 MB once Python and NumPy scalar
    # constants stopped promoting float32 activations to float64, and
    # 4.05 MB once attention recomputed its projections in backward
    *_, held = _curriculum_graph()
    assert sum(a.nbytes for a in held) <= 4_053_632


def test_activations_stay_in_the_parameters_dtype():
    # float32 parameters and features: no token-sized array the graph holds
    # is float64, so float64 is left to the loss's (B, rows, T) arrays, and
    # forward scores in float32. While constants were 0-d float64 arrays,
    # every activation after the first unimodal product was promoted
    mc, b, n_tok, held = _curriculum_graph()
    token_sized = [a for a in held if a.shape[:2] == (b, n_tok)]
    assert token_sized
    assert all(a.dtype != np.float64 for a in token_sized)
    _, params, batch = _curriculum_step()
    for al in forward(params, mc, batch):
        for m in (al.a_nv, al.a_sv, al.a_sn, al.a_snv, al.a_fused):
            assert m.dtype == np.float32


def test_inference_forward_frees_each_activation_once_read():
    # a score-sized eval batch, 8 videos of 64-256 frames, 254 tokens: with
    # no graph, an activation goes once the next op has read it, so forward's
    # peak above the inputs holds a few (B, n, d) arrays and one video's FFN
    # hidden layer and its CDF's temporaries, all float32: 2.94 MB, 5.7
    # (B, n, d) float32 arrays. While _encode held the three unimodal outputs
    # beside their concatenation, the layer loop held each sublayer's output
    # past its residual add and q, k and v were made for the whole batch, it
    # was 5.81 MB, 11.2 arrays; while the CDF was computed in float64 with a
    # fixed 1.5 MB of scratch, 3.97 MB, 7.6 arrays
    corpus = generate_synthetic(SynthConfig(num_tasks=1, videos_per_task=8,
                                            frames_range=(64, 256), seed=1))
    mc = ModelConfig(feature_dims=corpus.dims)
    params = init_params(mc, 0)
    batch = next(batch_iter(corpus, 8, mc.max_frames, None))
    n_tok = sum(m.shape[1] for m in (batch.frame_mask, batch.narration_mask,
                                     batch.step_mask))
    assert (len(batch.video_ids), n_tok) == (8, 254)
    tracemalloc.start()
    try:
        inputs = tracemalloc.get_traced_memory()[0]
        forward(params, mc, batch)
        peak = tracemalloc.get_traced_memory()[1] - inputs
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * n_tok * mc.model_dim * np.dtype(np.float32).itemsize


_KEEP = np.random.default_rng(16).random((2, 5, 6)) >= 0.1
_PADDED_KEYS = np.where(np.arange(5) < np.array([[4], [5]]), 0.0, MASK_FILL)[:, None, None, :]
_HOLDERS = {  # fused op, its composed reference, operand shapes
    "layer_norm": _FUSED["layer_norm"],
    "mlp": _FUSED["gelu"],
    "attention": (lambda *operands: attention(*operands, 2, 0.5, _PADDED_KEYS),
                  lambda *operands: _composed_attention(*operands, 2, 0.5, _PADDED_KEYS),
                  [(2, 5, 8)] + [(8, 8), (1, 8)] * 4),
    "dropout": (lambda x: dropout(x, _KEEP, 0.1),
                lambda x: x * Tensor(_KEEP.astype(x.dtype) / (1.0 - 0.1)),
                [_KEEP.shape]),
}


@pytest.mark.parametrize("name", list(_HOLDERS))
def test_fused_node_holds_fewer_graph_bytes_than_its_chain(name):
    # the rule for fusing: a fused node earns its code only by keeping fewer
    # bytes alive for backward than the chain of generic ops it stands for
    fused, composed, shapes = _HOLDERS[name]
    rng = np.random.default_rng(17)
    data = [rng.normal(size=shape) for shape in shapes]
    held = []
    for build in (fused, composed):
        out = build(*(Tensor(d, requires_grad=True) for d in data))
        held.append(sum(a.nbytes for a in _held_arrays(out)))
    assert held[0] < held[1]


def test_affine_map_keeps_only_what_a_fused_node_would():
    # why x @ w + b is two generic nodes: they keep only x and w, all that
    # the backward of a fused node would read
    x, w, b = (Tensor(np.ones(shape), requires_grad=True)
               for shape in [(2, 5, 6), (6, 3), (1, 3)])
    held = _held_arrays(x @ w + b)
    assert sorted(map(id, held)) == sorted([id(x.data), id(w.data)])


def test_graph_drops_the_outputs_no_backward_reads(monkeypatch):
    # the attention and FFN outputs feed only dropout, and each residual
    # branch's dropout output only an addition; no backward reads them, so
    # their arrays go as soon as forward drops their tensors, long before
    # backward
    probes = {"attention": [], "ffn": [], "dropout": []}
    attention_, mlp, dropout_ = encoder._attention, encoder._mlp, encoder._dropout

    def probe(kind, out):
        probes[kind].append(weakref.ref(out.data))
        return out
    monkeypatch.setattr(encoder, "_attention", lambda *args: probe(
        "attention", attention_(*args)))
    monkeypatch.setattr(encoder, "_mlp", lambda params, name, x: (
        probe("ffn", mlp(params, name, x)) if name.endswith(".ffn")
        else mlp(params, name, x)))
    monkeypatch.setattr(encoder, "_dropout", lambda x, rate, rng: probe(
        "dropout", dropout_(x, rate, rng)))
    mc, params, batch = _curriculum_step()
    alignments = forward_batch(params, mc, batch,
                               dropout_rng=np.random.default_rng(7))
    loss, _ = total_loss(alignments, batch, LossConfig())  # the graph lives on
    # the first dropout is the token embeddings', the residual stream itself
    residual = probes["dropout"][1:]
    assert len(probes["attention"]) == len(probes["ffn"]) == mc.num_layers
    assert len(residual) == 2 * mc.num_layers
    assert all(ref() is None for ref in probes["attention"] + probes["ffn"] + residual)
    assert probes["dropout"][0]() is not None


def test_mlp_never_allocates_a_hidden_layer_sized_array():
    # forward and backward work one video at a time: the peak above the
    # inputs holds the output and x's gradient, (B, n, d) each, and a few of
    # one row's (n, ffn) temporaries, all in the operands' dtype. With the
    # hidden layer as a node of its own, forward kept h, (B, n, ffn), and
    # backward added up to three more arrays of that size. In units of
    # (B, n, ffn) arrays of the operands' dtype, the peak is 1.17 in float64
    # and 1.24 in float32; while the CDF was computed in float64 with a
    # fixed 1.5 MB of scratch, it was 1.74 and 2.61. A float64 copy of one
    # float32 row's hidden layer adds 0.25, so float32 allocates none
    b, n, ffn, d = 8, 140, 256, 64
    for dtype, bound in [(np.float64, 1.2), (np.float32, 1.3)]:
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(b, n, d)).astype(dtype), requires_grad=True)
        weights = [Tensor((rng.normal(size=shape) * scale).astype(dtype),
                          requires_grad=True)
                   for shape, scale in [((d, ffn), 0.1), ((1, ffn), 1.0),
                                        ((ffn, d), 0.1), ((1, d), 1.0)]]
        seed = rng.normal(size=(b, n, d)).astype(dtype)
        tracemalloc.start()
        try:
            inputs = tracemalloc.get_traced_memory()[0]
            mlp(x, *weights).backward(seed)
            peak = tracemalloc.get_traced_memory()[1] - inputs
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and x.grad.dtype == dtype
        assert all(w.grad.shape == w.shape for w in weights)
        assert peak < bound * b * n * ffn * np.dtype(dtype).itemsize


def test_training_with_the_mlp_node_matches_the_composed_chain(tmp_path, monkeypatch):
    # one teacher and one main epoch, dropout on, 4 videos a batch: the
    # teacher runs narrations and steps through mlp_n, so its weights take
    # two gradients a step, and the initial labels come from the teacher
    corpus = generate_synthetic(SynthConfig(
        num_tasks=2, steps_per_task=(3, 3), videos_per_task=4,
        frames_range=(24, 40), seed=3))
    mc = ModelConfig(feature_dims=corpus.dims, model_dim=16, num_layers=1,
                     num_heads=2, mlp_hidden=12, ffn_dim=24, max_frames=40,
                     max_narrations=8, dropout=0.1)
    cfg = TrainConfig(epochs=1, batch_size=4, teacher_pre_epochs=1,
                      max_frames=40, seed=2)
    pseudo = PseudoConfig()

    def composed(params, name, x):
        return _composed_mlp(x, *(params[f"{name}.{k}"]
                                  for k in ("l1.w", "l1.b", "l2.w", "l2.b")))
    runs = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(encoder, "_mlp", composed)
        workdir = tmp_path / ("composed" if patch else "node")
        result = train(corpus, mc, cfg, LossConfig(), pseudo, workdir=workdir)
        runs.append((result, (workdir / "pseudo" / "initial.jsonl").read_bytes()))
    (node, node_labels), (chain, chain_labels) = runs
    assert [e["stage"] for e in node.history] == ["teacher", "main"]
    assert node_labels == chain_labels
    for name, p in node.params.items():
        assert np.array_equal(p.data, chain.params[name].data)
        assert np.array_equal(node.opt_state.m[name], chain.opt_state.m[name])
        assert np.array_equal(node.opt_state.v[name], chain.opt_state.v[name])


def test_subtraction_is_one_node_with_exact_gradients(monkeypatch):
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    nodes = []
    make = Tensor._result.__func__

    def counting_result(cls, data, parents, backward):
        nodes.append(data.shape)
        return make(cls, data, parents, backward)
    monkeypatch.setattr(Tensor, "_result", classmethod(counting_result))
    out = a - b
    monkeypatch.undo()
    assert nodes == [(3, 4)] and np.array_equal(out.data, a.data - b.data)
    seed = rng.normal(size=(3, 4))
    out.backward(seed)
    assert np.array_equal(a.grad, seed)
    assert np.array_equal(b.grad, -seed.sum(axis=1, keepdims=True))
