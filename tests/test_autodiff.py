"""Reverse-mode engine: closed-form gradients, finite differences, broadcasting."""

import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf

from stepalign import encoder
from stepalign.autodiff import (GradientError, Node, Tensor, _normal_cdf,
                                attention, concat, dropout, layer_norm, mlp,
                                unpack)
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
# x, wq, bq, wk, bk, wv, bv, wo and bo of attention on 2 videos of 2 and 4
# tokens, packed into 6 rows x 2 dims, 2 heads of 1 dim; and how each is cut
# from a (3, 4) input
_ATTN = [_FD.normal(size=s) for s in [(6, 2)] + [(2, 2), (1, 2)] * 4]
_ATTN_BOUNDS = np.array([0, 2, 6])
_ATTN_CUTS = ([lambda t: t.reshape(6, 2)]
              + [lambda t: t[1:, 2:], lambda t: t[2:, :2]] * 4)
# x, w1, b1, w2, b2 of an MLP on 2 videos of 3 tokens x 2 dims, hidden width 4,
# and how each is cut from a (3, 4) input
_MLP = [_FD.normal(size=s) for s in [(2, 3, 2), (2, 4), (1, 4), (4, 2), (1, 2)]]
_TOKEN_WEIGHTS = Tensor(_FD.normal(size=(2, 3, 2)))  # of mlp's and attention's outputs
_PACKED_WEIGHTS = Tensor(_TOKEN_WEIGHTS.data.reshape(6, 2))
_MLP_CUTS = [lambda t: t.reshape(2, 3, 2), lambda t: t[:2], lambda t: t[:1],
             lambda t: t.swapaxes(0, 1)[:, :2], lambda t: t[:1, :2]]
# a_sn and a_nv of one video, 3 steps x 4 narrations x 3 frames, narration 1
# blocked; and of 3 videos of 1 step, with different narrations blocked
_A_SN, _A_NV = Tensor(_FD.uniform(-1, 1, size=(1, 3, 4))), Tensor(_FD.normal(size=(1, 4, 3)))
_ONE_BLOCKED = np.array([[True, False, True, True]])
_A_NV3 = Tensor(_FD.normal(size=(3, 4, 2)))
_BLOCKED_PER_VIDEO = np.array([[True, True, False, True], [False, True, True, False],
                               [True] * 4])
# g and b of the layer norm in front of attention and the packed mlp, over
# their 2 dims, and how each is cut from a (3, 4) input; eps is large, so
# that x's gradient through the norm of 2 numbers is not ~0
_NORM = [_FD.normal(size=(1, 2)) * 0.5 + 1.0, _FD.normal(size=(1, 2))]
_NORM_CUTS = [lambda t: t[:1, 1:3], lambda t: t[2:, 2:]]
_NORM_EPS = 0.5


def _attention_fd(t, operand):
    # operands 0-8: x and the weights and biases; 9 and 10: the norm's g and b
    operands = [Tensor(a) for a in _ATTN + _NORM]
    operands[operand] = (_ATTN_CUTS + _NORM_CUTS)[operand](t)
    *operands, g, b = operands
    return (attention(*operands, 2, 0.7, _ATTN_BOUNDS, (g, b, _NORM_EPS))
            * _PACKED_WEIGHTS).sum()


def _mlp_fd(t, operand, packed=False, normed=False):
    # packed: the same 12 input numbers as 6 rows of 2 videos, 2 and 4 long;
    # normed: with the layer norm folded in, operands 5 and 6 its g and b
    operands = [Tensor(a) for a in _MLP + _NORM]
    operands[operand] = (_MLP_CUTS + _NORM_CUTS)[operand](t)
    *operands, g, b = operands
    if packed:
        operands[0] = operands[0].reshape(6, 2)
        norm = (g, b, _NORM_EPS) if normed else None
        return (mlp(*operands, _ATTN_BOUNDS, norm) * _PACKED_WEIGHTS).sum()
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
    # mlp on packed rows, with respect to x, w1 and b1
    lambda t: _mlp_fd(t, 0, packed=True),
    lambda t: _mlp_fd(t, 1, packed=True),
    lambda t: _mlp_fd(t, 2, packed=True),
    # the layer norm folded into attention and the packed mlp: with respect
    # to its g and b, and, for mlp, to x through it (attention's x cases
    # above go through it too)
    lambda t: _attention_fd(t, 9),
    lambda t: _attention_fd(t, 10),
    lambda t: _mlp_fd(t, 0, packed=True, normed=True),
    lambda t: _mlp_fd(t, 5, packed=True, normed=True),
    lambda t: _mlp_fd(t, 6, packed=True, normed=True),
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
    in x's dtype, and so is the pdf, 1 / sqrt(2 pi) included, so the GELU
    and its slope keep x's dtype."""
    data, node = x.data, x.node
    dtype = data.dtype
    cdf = _normal_cdf(data)

    def back(g):
        pdf = np.exp(-0.5 * data ** 2) * dtype.type(1.0 / np.sqrt(2.0 * np.pi))
        assert pdf.dtype == dtype
        node._accum(g * (cdf + data * pdf))
    return Tensor._result(data * cdf, (x,), back)


def _composed_mlp(x, w1, b1, w2, b2):
    return _cdf_gelu(x @ w1 + b1) @ w2 + b2


def _per_video(op, x, bounds, *operands):
    """op run on each video's rows of the packed (sum n_i, d) x alone, video
    i's rows being x[bounds[i]:bounds[i + 1]], its outputs concatenated:
    the chain whose bits mlp and attention keep on packed rows. Each weight
    and bias gradient is formed from one video's rows and summed over the
    videos in order."""
    return concat([op(x[lo:hi], *operands) for lo, hi in zip(bounds[:-1], bounds[1:])],
                  axis=0)


def _per_video_mlp(x, w1, b1, w2, b2, bounds):
    return _per_video(_composed_mlp, x, bounds, w1, b1, w2, b2)


_BOUNDS = np.array([0, 3, 4, 12])  # 3 packed videos of 3, 1 and 8 rows


def _with_norm(node, x, *operands, **kwargs):
    """node on x with the layer norm in front of it folded in, g and b being
    the last two operands, eps 1e-5: as the encoder runs attention and the
    FFN"""
    *operands, g, b = operands
    return node(x, *operands, norm=(g, b, 1e-5), **kwargs)


def _norm_then(chain, x, *operands, norm=layer_norm):
    """chain on the layer norm of x, g and b being the last two operands,
    eps 1e-5: what a node with the norm folded in stands for"""
    *operands, g, b = operands
    return chain(norm(x, g, b, 1e-5), *operands)


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
    # the GELU MLP, with the affine maps on either side of the GELU; 3 videos,
    # so the order in which their weight and bias gradients are summed shows:
    # one per batch row, as the unimodal MLPs run, against the chain on the
    # batch, and packed, as the FFN runs, against the chain on each video
    "gelu": (mlp, _composed_mlp, [(3, 5, 6), (6, 7), (1, 7), (7, 6), (1, 6)]),
    "gelu_packed": (lambda x, *w: mlp(x, *w, _BOUNDS),
                    lambda x, *w: _per_video_mlp(x, *w, _BOUNDS),
                    [(12, 6), (6, 7), (1, 7), (7, 6), (1, 6)]),
    # the packed FFN and attention with the layer norm in front of them
    # folded in, g and b last, against layer_norm followed by the node
    # without a norm; attention always takes a norm, so for it layer_norm
    # is followed by the chain the node stands for, its projections around
    # a q, k, v node on each video
    "gelu_normed": (lambda *t: _with_norm(mlp, *t, bounds=_BOUNDS),
                    lambda *t: _norm_then(lambda z, *w: mlp(z, *w, _BOUNDS), *t),
                    [(12, 6), (6, 7), (1, 7), (7, 6), (1, 6), (1, 6), (1, 6)]),
    "attention_normed": (
        lambda *t: _with_norm(attention, *t, num_heads=2, scale=0.05, bounds=_BOUNDS),
        lambda *t: _norm_then(lambda z, *w: _per_video(_chained_attention, z, _BOUNDS,
                                                       *w, 2, 0.05), *t),
        [(12, 8)] + [(8, 8), (1, 8)] * 4 + [(1, 8)] * 2),
}


@pytest.mark.parametrize("residual", [False, True], ids=["alone", "residual"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", list(_FUSED))
def test_fused_node_matches_composed_ops_bit_for_bit(name, dtype, residual):
    # mlp and attention against their chains in dtype, bit for bit;
    # layer_norm against its chain in float64, within tolerance. With the
    # residual, x also feeds x + op(x): its gradient then sums three or four
    # terms, and for mlp only the composed ops' order gives its bits
    fused, composed, shapes = _FUSED[name]
    exact = name != "layer_norm"
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


@pytest.mark.parametrize("name", list(_FUSED))
def test_fused_nodes_skip_operands_without_gradient(name):
    # float64 operands: mlp and attention match their chains bit for bit,
    # layer_norm within 1e-12 * max|want|
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
                _assert_matches(fused_grad, composed_grad, np.float64,
                                name != "layer_norm")


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
    """(..., n, d) -> (..., H, n, d / H)"""
    *lead, n, d = t.shape
    return t.reshape(*lead, n, num_heads, d // num_heads).swapaxes(-3, -2)


def _composed_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, num_heads, scale,
                        bias=0.0):
    """Attention and its projections built from generic nodes: run in
    float64 on one video's (n, d) rows, the reference of the attention node
    within tolerance; or on padded (B, n, d) tokens with a key bias that
    blocks the padding, the form the node had before it took packed rows."""
    q, k, v = (_heads(x @ w + c, num_heads) for w, c in ((wq, bq), (wk, bk), (wv, bv)))
    p = _composed_softmax(q @ k.swapaxes(-1, -2), scale, bias)
    return (p @ v).swapaxes(-3, -2).reshape(*x.shape) @ wo + bo


def _qkv_attention(q, k, v, scale):
    """softmax(q @ k^T * scale) @ v with the heads merged, as one node on one
    video's q, k and v, (H, n, dh), that forms the softmax gradient in closed
    form, in the attention node's arithmetic."""
    h, n, dh = q.shape
    scale = np.asarray(scale, q.dtype)
    z = q.data @ k.data.swapaxes(-1, -2) * scale
    z = np.exp(z - z.max(axis=-1, keepdims=True))
    p = z / z.sum(axis=-1, keepdims=True)
    out = (p @ v.data).swapaxes(0, 1).reshape(n, h * dh)
    nq, nk, nv = q.node, k.node, v.node

    def back(g):
        g_o = g.reshape(n, h, dh).swapaxes(0, 1)
        g_s = g_o @ v.data.swapaxes(-1, -2)
        g_s = (g_s - (g_s * p).sum(axis=-1, keepdims=True)) * p * scale
        for node, grad in ((nv, p.swapaxes(-1, -2) @ g_o), (nq, g_s @ k.data),
                           (nk, g_s.swapaxes(-1, -2) @ q.data)):
            if node is not None:
                node._accum(grad)
    return Tensor._result(out, (q, k, v), back)


def _chained_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, num_heads, scale):
    """Four x @ w + b maps around _qkv_attention on one video's rows: run on
    each video (_per_video), the chain whose bits the attention node keeps,
    in both directions."""
    q, k, v = (_heads(x @ w + c, num_heads) for w, c in ((wq, bq), (wk, bk), (wv, bv)))
    return _qkv_attention(q, k, v, scale) @ wo + bo


def _bounds(lengths) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(lengths)])


@pytest.mark.parametrize("operands", ["qkv", "q", "k", "v", "projections",
                                      "one_token_video", "one_video"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_attention_matches_composed_ops_bit_for_bit(dtype, operands):
    # the node takes the layer norm in front of it: against layer_norm and
    # the chain of four x @ w + b maps around a q, k, v attention node, run
    # on each video's rows alone, in dtype, bit for bit; and against the
    # same computation built from generic nodes in float64, within
    # 1e-12 * max|want| for float64 operands and 1e-5 * max|want| for
    # float32 ones. "projections" makes every operand a leaf that requires a
    # gradient, as the encoder does, so x's gradient sums three terms in the
    # order the chain's graph walk gives them, and goes through the norm;
    # "qkv" makes every weight and bias a leaf but not x and the norm's g
    # and b, and "q", "k" and "v" those of one projection and of the output.
    # x packs videos of 4, 6 and 5 tokens; "one_token_video" packs videos of
    # 4, 1 and 6 tokens, and "one_video" one video of 6
    rng = np.random.default_rng(11)
    lengths = {"one_video": [6], "one_token_video": [4, 1, 6]}.get(operands, [4, 6, 5])
    bounds = _bounds(lengths)
    h, dh = 2, 4
    d, scale = h * dh, 1.0 / np.sqrt(dh)
    data = [rng.normal(size=shape).astype(dtype)
            for shape in [(bounds[-1], d)] + [(d, d), (1, d)] * 4]
    seed = rng.normal(size=(bounds[-1], d)).astype(dtype)
    data += [(rng.normal(size=(1, d)) * 0.5 + c).astype(dtype) for c in (1.0, 0.0)]
    names = ["x"] + [f"{proj}{part}" for proj in "qkvo" for part in "wb"] + ["ng", "nb"]
    needs_grad = {"qkv": "qkvo", "q": "qo", "k": "ko", "v": "vo"}.get(operands)
    outs, grads = [], []
    for build, run_dtype in (
            (lambda *t: _with_norm(attention, *t, num_heads=h, scale=scale,
                                   bounds=bounds), dtype),
            (lambda *t: _norm_then(lambda z, *w: _per_video(
                _chained_attention, z, bounds, *w, h, scale), *t), dtype),
            (lambda *t: _norm_then(lambda z, *w: _per_video(
                _composed_attention, z, bounds, *w, h, scale), *t,
                norm=_composed_layer_norm), np.float64)):
        leaves = [Tensor(a.astype(run_dtype),
                         requires_grad=needs_grad is None or name[0] in needs_grad)
                  for a, name in zip(data, names)]
        out = build(*leaves)
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


def test_packed_attention_matches_the_padded_form_with_a_key_bias():
    # before it took packed rows, the node ran on padded (B, n, d) tokens
    # with MASK_FILL added to the padded keys' scores. On the valid rows the
    # packed node gives that form's output and every gradient within
    # 1e-12 * max|want| in float64; only summation orders differ, as the
    # softmax now sums over a video's n_i keys, not n. The layer norm in
    # front of it runs on the packed rows in both
    rng = np.random.default_rng(20)
    h, dh, n = 2, 4, 7
    d = h * dh
    mask = np.arange(n) < np.array([[4], [7], [2]])
    bounds = _bounds(mask.sum(axis=1))
    bias = np.where(mask, 0.0, MASK_FILL)[:, None, None, :]
    data = [rng.normal(size=shape) for shape in [(bounds[-1], d)] + [(d, d), (1, d)] * 4]
    seed = rng.normal(size=(bounds[-1], d))
    data += [rng.normal(size=(1, d)) * 0.5 + c for c in (1.0, 0.0)]
    outs, grads = [], []
    for build in (lambda *t: _with_norm(attention, *t, num_heads=h, scale=0.5,
                                        bounds=bounds),
                  lambda *t: _norm_then(lambda z, *w: _composed_attention(
                      unpack(z, mask), *w, h, 0.5, bias)[mask], *t)):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in data]
        out = build(*leaves)
        out.backward(seed)
        outs.append(out.data)
        grads.append([t.grad for t in leaves])
    _assert_matches(*outs, np.float64, exact=False)
    for i, (packed, padded) in enumerate(zip(*grads)):
        if i == 4:  # bk's gradient is 0 up to rounding, judged at wk's scale
            assert np.abs(packed - padded).max() <= 1e-12 * np.abs(grads[1][3]).max()
        else:
            _assert_matches(packed, padded, np.float64, exact=False)


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
    masks = (batch.frame_mask, batch.narration_mask, batch.step_mask)
    n_tok = sum(m.shape[1] for m in masks)
    rows = sum(int(m.sum()) for m in masks)  # the valid tokens, packed
    return mc, len(batch.video_ids), n_tok, rows, _held_arrays(loss)


def test_attention_keeps_no_score_sized_array():
    # the attention node recomputes q @ k^T and the probabilities in
    # backward; as a chain it kept both, 2 (B, H, n, n) arrays per layer
    mc, b, n_tok, _, held = _curriculum_graph()
    assert _count(held, (b, mc.num_heads, n_tok, n_tok)) == 0


def _attention_operands(b, n, d, seed):
    """x, packing b videos of n / 2 to n tokens, the weights and biases of
    attention and the g and b of its norm, all requiring a gradient, the
    videos' row bounds, and an output gradient."""
    rng = np.random.default_rng(seed)
    bounds = _bounds(np.ceil(np.linspace(n // 2, n, b)).astype(int))
    operands = [Tensor(rng.normal(size=shape) * scale, requires_grad=True)
                for shape, scale in [((bounds[-1], d), 1.0)]
                + [((d, d), 0.2), ((1, d), 1.0)] * 4]
    seed = rng.normal(size=(bounds[-1], d))
    operands += [Tensor(rng.normal(size=(1, d)) * 0.5 + c, requires_grad=True)
                 for c in (1.0, 0.0)]
    return operands, bounds, seed


def _attention_peaks(b, n, d, h):
    """Peak traced bytes above the inputs of attention's forward, and of its
    forward and backward, and the bytes of its input x."""
    operands, bounds, seed = _attention_operands(b, n, d, 13)
    tracemalloc.start()
    try:
        inputs = tracemalloc.get_traced_memory()[0]
        out = _with_norm(attention, *operands, num_heads=h,
                         scale=1.0 / np.sqrt(d // h), bounds=bounds)
        forward_peak = tracemalloc.get_traced_memory()[1] - inputs
        out.backward(seed)
        peak = tracemalloc.get_traced_memory()[1] - inputs
    finally:
        tracemalloc.stop()
    assert all(t.grad.shape == t.shape for t in operands)
    return forward_peak, peak, operands[0].data.nbytes


def test_attention_never_allocates_a_score_sized_array():
    # forward and backward work one video at a time: the peak above the
    # inputs holds the output, x's gradient and a few (H, n, n) blocks.
    # Multiplying the whole batch at once allocated q @ k^T and its scaled
    # copy side by side, two (B, H, n, n) arrays
    b, h, n, dh = 8, 4, 176, 16
    _, peak, _ = _attention_peaks(b, n, h * dh, h)
    assert peak < b * h * n * n * np.dtype(np.float64).itemsize


def test_attention_never_allocates_a_token_sized_q_k_or_v():
    # the projections run one video at a time too, and so does the norm in
    # front of them. Forward's peak above the inputs holds the output, the
    # size of the packed x, and one video's arrays: 1.7 x-sized arrays here
    # (1.6 without the norm), against 6.2 (B, n, d) arrays when x @ w + b
    # nodes made q, k and v of the padded batch and kept them. Backward adds
    # the normalised rows' gradient, the weights' and the norm's backward,
    # whose x_hat and one temporary come beside x's gradient, formed in the
    # rows' gradient's buffer: 4.9 in all (3.6 without the norm), against
    # 8.4 when q, k and v also got whole-batch gradients
    b, n, d, h = 16, 48, 64, 2
    forward_peak, peak, x_bytes = _attention_peaks(b, n, d, h)
    assert forward_peak < 2 * x_bytes
    assert peak < 5 * x_bytes


def test_attention_keeps_only_its_input_and_weights():
    # what backward reads: x, the g and b of its norm and the norm's
    # (sum n_i, 1) means and 1 / std, from which the normalised rows are
    # recomputed, and the weights and biases the projections are recomputed
    # from; no normalised rows, q, k, v, probabilities or output, and no
    # key mask. bo's gradient is the output gradient's, so bo is not kept
    operands, bounds, _ = _attention_operands(2, 5, 4, 19)
    held = _held_arrays(_with_norm(attention, *operands, num_heads=2, scale=0.5,
                                   bounds=bounds))
    stats = [a for a in held if a.shape == (bounds[-1], 1)]
    assert len(stats) == 2
    assert (sorted(id(a) for a in held if a.shape != (bounds[-1], 1))
            == sorted(id(t.data) for i, t in enumerate(operands) if i != 8))


def test_fused_nodes_keep_the_token_sized_arrays_down():
    # a node keeps only what its backward reads: x @ w + b its input, not its
    # output; layer_norm its input and (B, n, 1) statistics; mlp its input,
    # not the hidden layer or its GELU. 60 (B, n, model_dim) and 8
    # (B, n, ffn_dim) arrays when each was a chain of generic nodes, 30 and 4
    # while every node kept its output, 21 and 2 while the FFN's GELU node
    # kept its input, the first FFN product's sum, and 15 once attention
    # took its projections and kept only its input, not q, k, v and its
    # output. Since the transformer runs on the packed valid tokens, they
    # are (sum n_i, model_dim) rows, 780 of the batch's 952 token slots
    # here: 14 while the norm in front of each attention and FFN was a node
    # of its own, whose output the next node kept; with the norm folded in,
    # 2 * num_layers + 1 float32 arrays, the residual stream in front of
    # each sublayer and of the final norm, and as many bool dropout masks,
    # those of the token embeddings and of each residual branch. The one
    # (B, n, model_dim) array left is the transformer's output, scattered
    # back for the heads
    mc, b, n_tok, rows, held = _curriculum_graph()
    packed = [a.dtype for a in held if a.shape == (rows, mc.model_dim)]
    assert packed.count(np.float32) == 2 * mc.num_layers + 1
    assert packed.count(bool) == 2 * mc.num_layers + 1 == 5
    assert len(packed) == 2 * (2 * mc.num_layers + 1)
    assert _count(held, (b, n_tok, mc.model_dim)) <= 1
    assert _count(held, (rows, mc.ffn_dim)) == _count(held, (b, n_tok, mc.ffn_dim)) == 0


def test_training_graph_bytes_stay_bounded():
    # every array the graph holds, parameters included: 44.0 MB while
    # attention was a chain that kept q @ k^T and the probabilities and
    # dropout kept float64 masks, 28.5 MB with the attention node, 26.4 MB
    # with the dropout node's bool masks and 15.0 MB once nodes kept only
    # what their backward reads, 10.9 MB once the FFN's hidden layer was
    # recomputed in backward, 6.0 MB once Python and NumPy scalar
    # constants stopped promoting float32 activations to float64, 4.05 MB
    # once attention recomputed its projections in backward, 3.59 MB once
    # the transformer ran on the packed valid tokens alone, and 2.79 MB once
    # attention and the FFN took the norm in front of them and kept the
    # residual stream, not its normalised copy
    *_, held = _curriculum_graph()
    assert sum(a.nbytes for a in held) <= 2_791_064


def test_activations_stay_in_the_parameters_dtype():
    # float32 parameters and features: no token-sized array the graph holds
    # is float64, so float64 is left to the loss's (B, rows, T) arrays, and
    # forward scores in float32. While constants were 0-d float64 arrays,
    # every activation after the first unimodal product was promoted
    mc, b, n_tok, rows, held = _curriculum_graph()
    token_sized = [a for a in held if a.shape[:2] == (b, n_tok) or a.shape[:1] == (rows,)]
    assert len(token_sized) > 10
    assert all(a.dtype != np.float64 for a in token_sized)
    _, params, batch = _curriculum_step()
    for al in forward(params, mc, batch):
        for m in (al.a_nv, al.a_sv, al.a_sn, al.a_snv, al.a_fused):
            assert m.dtype == np.float32


def test_inference_forward_frees_each_activation_once_read():
    # a score-sized eval batch, 8 videos of 64-256 frames, 254 tokens: with
    # no graph, an activation goes once the next op has read it, so forward's
    # peak above the inputs holds a few (B, n, d) arrays and one video's FFN
    # hidden layer and its CDF's temporaries, all float32: 1.98 MB, 3.8
    # (B, n, d) float32 arrays, as the transformer runs on the 1,084 valid
    # tokens of the batch's 2,032 token slots and the norm in front of each
    # attention and FFN normalises one video's rows at a time. While _encode
    # held the three unimodal outputs beside their concatenation, the layer
    # loop held each sublayer's output past its residual add and q, k and v
    # were made for the whole batch, it was 5.81 MB, 11.2 arrays; while the
    # CDF was computed in float64 with a fixed 1.5 MB of scratch, 3.97 MB,
    # 7.6 arrays; while the transformer ran on the padded tokens, 2.94 MB,
    # 5.7 arrays; and while those norms normalised all the rows at once,
    # 2.18 MB, 4.2 arrays
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
    assert peak < 4 * 8 * n_tok * mc.model_dim * np.dtype(np.float32).itemsize


_KEEP = np.random.default_rng(16).random((2, 5, 6)) >= 0.1
_HOLDERS = {  # fused op, its composed reference, operand shapes
    "layer_norm": _FUSED["layer_norm"],
    "mlp": _FUSED["gelu"],
    # attention with its norm against the generic chain of both; the
    # packed FFN with its norm against layer_norm followed by mlp
    "attention": (lambda *t: _with_norm(attention, *t, num_heads=2, scale=0.5,
                                        bounds=_bounds([4, 5])),
                  lambda *t: _norm_then(lambda z, *w: _per_video(
                      _composed_attention, z, _bounds([4, 5]), *w, 2, 0.5), *t,
                      norm=_composed_layer_norm),
                  [(9, 8)] + [(8, 8), (1, 8)] * 4 + [(1, 8)] * 2),
    "mlp_normed": (lambda *t: _with_norm(mlp, *t, bounds=_bounds([4, 5])),
                   lambda *t: _norm_then(lambda z, *w: mlp(z, *w, _bounds([4, 5])), *t),
                   [(9, 8), (8, 16), (1, 16), (16, 8), (1, 8), (1, 8), (1, 8)]),
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
    monkeypatch.setattr(encoder, "_mlp", lambda params, name, x, bounds=None, norm=None: (
        probe("ffn", mlp(params, name, x, bounds, norm)) if name.endswith(".ffn")
        else mlp(params, name, x, bounds, norm)))
    monkeypatch.setattr(encoder, "_dropout", lambda x, mask, rate, rng: probe(
        "dropout", dropout_(x, mask, rate, rng)))
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

    def composed(params, name, x, bounds=None, norm=None):
        weights = [params[f"{name}.{k}"] for k in ("l1.w", "l1.b", "l2.w", "l2.b")]
        if bounds is None:  # a unimodal MLP
            return _composed_mlp(x, *weights)
        # the FFN, on packed rows, after the layer norm folded into its node
        return _per_video_mlp(layer_norm(x, *norm), *weights, bounds)
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
