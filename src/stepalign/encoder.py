"""Three-modality alignment model.

Frames and texts are lifted into a shared space by two two-layer MLPs plus
learned positional embeddings, one for frames and one for texts: article
steps are sentences like narrations, so they take the narration MLP and
positional table. The three modalities are concatenated into one token
sequence, whose valid tokens run through a pre-norm transformer so each can
condition on the others. Alignment scores are cosine similarities between
the contextualized tokens:

    a_nv  narration x frame        a_sv  step x frame
    a_sn  step x narration
    a_snv step x frame routed through narrations: softmax(a_sn / xi) @ a_nv
    a_fused = (a_sv + a_snv) / 2, or a_sv for a video without narrations

The indirect pathway lets noisy narrations vote on where a step lives even
when the step text itself matches the frames poorly. Training needs only the
first two (forward_batch); forward builds all five, detached. The
narration-only teacher is this same model, trained with lambda_sv = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from . import tensorio
from .autodiff import Tensor, attention, concat, dropout, layer_norm, mlp, unpack
from .corpus.batching import Batch

LAYERNORM_EPS = 1e-5
COSINE_EPS = 1e-8
# drives the masked logits of info_nce's and indirect_alignment's softmaxes to
# exp-underflow zero; attention runs on valid tokens and needs no mask
MASK_FILL = -1e9
RESIDUAL_INIT_SCALE = 0.1  # residual branch output projections start damped


class ModelError(ValueError):
    """Configuration or parameter problems detected before any math runs."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; defaults are the desk-scale model."""

    feature_dims: tuple[int, int, int] = (48, 32, 32)
    model_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    mlp_hidden: int = 64
    ffn_dim: int = 256
    max_frames: int = 256
    max_narrations: int = 32  # rows of the text table: narrations and steps
    dropout: float = 0.1
    xi: float = 0.07

    def validate(self) -> None:
        if self.model_dim % self.num_heads != 0:
            raise ModelError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}")
        positives = ("model_dim", "num_heads", "mlp_hidden", "ffn_dim",
                     "max_frames", "max_narrations")
        for name in positives:
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")
        if self.num_layers < 0:
            raise ModelError("num_layers must be >= 0")
        if any(d < 1 for d in self.feature_dims):
            raise ModelError(f"feature_dims must be positive, got {self.feature_dims}")
        _, d_n, d_s = self.feature_dims
        if d_n != d_s:
            raise ModelError(f"steps are encoded as narrations, so they need equal "
                             f"narration and step dims, got {d_n} and {d_s}")
        if not self.xi > 0:
            raise ModelError(f"xi must be > 0, got {self.xi}")
        if not (0.0 <= self.dropout < 1.0):
            raise ModelError(f"dropout must be in [0, 1), got {self.dropout}")


# ---------------------------------------------------------------------------
# parameters


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> dict[str, Tensor]:
    """Fresh trainable parameters; every array is 2-D so checkpoints stay flat."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    d = config.model_dim
    params: dict[str, Tensor] = {}

    def linear(name: str, d_in: int, d_out: int) -> None:
        bound = 1.0 / np.sqrt(d_in)
        params[f"{name}.w"] = Tensor(
            rng.uniform(-bound, bound, size=(d_in, d_out)).astype(dtype), True)
        params[f"{name}.b"] = Tensor(np.zeros((1, d_out), dtype=dtype), True)

    def mlp(name: str, d_in: int) -> None:
        linear(f"{name}.l1", d_in, config.mlp_hidden)
        linear(f"{name}.l2", config.mlp_hidden, d)

    def layernorm(name: str) -> None:
        params[f"{name}.g"] = Tensor(np.ones((1, d), dtype=dtype), True)
        params[f"{name}.b"] = Tensor(np.zeros((1, d), dtype=dtype), True)

    d_v, d_n, _ = config.feature_dims
    mlp("mlp_v", d_v)
    mlp("mlp_n", d_n)

    def positions(name: str, count: int) -> None:
        params[name] = Tensor(rng.normal(0.0, 0.02, size=(count, d)).astype(dtype), True)

    positions("pos_v", config.max_frames)
    positions("pos_n", config.max_narrations)

    for i in range(config.num_layers):
        layernorm(f"layers.{i}.ln1")
        for proj in ("wq", "wk", "wv", "wo"):
            linear(f"layers.{i}.attn.{proj}", d, d)
        layernorm(f"layers.{i}.ln2")
        linear(f"layers.{i}.ffn.l1", d, config.ffn_dim)
        linear(f"layers.{i}.ffn.l2", config.ffn_dim, d)
        # blocks start near identity: at init attention is near uniform, so an
        # undamped output projection adds one shared vector to every token,
        # which pins all cross-modal cosines near 1 and breaks any absolute
        # confidence threshold downstream
        params[f"layers.{i}.attn.wo.w"].data *= RESIDUAL_INIT_SCALE
        params[f"layers.{i}.ffn.l2.w"].data *= RESIDUAL_INIT_SCALE
    if config.num_layers > 0:
        layernorm("final_ln")
    return params


def detach_params(params: Mapping[str, Tensor]) -> dict[str, Tensor]:
    return {k: v.detach() for k, v in params.items()}


# ---------------------------------------------------------------------------
# forward pieces


def _mlp(params, name: str, x: Tensor, bounds=None, norm=None) -> Tensor:
    return mlp(x, params[f"{name}.l1.w"], params[f"{name}.l1.b"],
               params[f"{name}.l2.w"], params[f"{name}.l2.b"], bounds, norm)


def _norm(params, name: str) -> tuple[Tensor, Tensor, float]:
    """The gain, bias and eps of the layer norm called name."""
    return params[f"{name}.g"], params[f"{name}.b"], LAYERNORM_EPS


_UNIMODAL = {"video": ("mlp_v", "pos_v"), "narration": ("mlp_n", "pos_n"),
             "step": ("mlp_n", "pos_n")}


def unimodal_encode(params, x: Tensor, modality: str) -> Tensor:
    """MLP projection plus positional embedding for one modality.

    x is (B, n, D_mod). "step" reads the narration MLP and table, so a step
    and a narration with the same features and position encode identically.
    """
    if modality not in _UNIMODAL:
        raise ModelError(f"unknown modality {modality!r}")
    mlp_name, pos_name = _UNIMODAL[modality]
    pos, n = params[pos_name], x.shape[1]
    if n > pos.shape[0]:
        raise ModelError(
            f"{modality} count {n} exceeds positional table size {pos.shape[0]}")
    return _mlp(params, mlp_name, x) + pos[:n]


def _attention(params, name: str, x: Tensor, bounds: np.ndarray,
               num_heads: int, norm) -> Tensor:
    return attention(x, *(params[f"{name}.{proj}.{part}"]
                          for proj in ("wq", "wk", "wv", "wo") for part in ("w", "b")),
                     num_heads, 1.0 / np.sqrt(x.shape[-1] // num_heads), bounds, norm)


def _dropout(x: Tensor, token_mask: np.ndarray, rate: float, rng) -> Tensor:
    """Inverted dropout on the packed rows x; identity when no generator is
    supplied (inference). The uniforms are drawn over the padded
    token_mask.shape + (d,) and the valid tokens' kept, so a token's mask
    does not depend on how much padding its batch has."""
    if rng is None or rate <= 0.0:
        return x
    keep = rng.random(token_mask.shape + x.shape[-1:]) >= rate
    return dropout(x, keep[token_mask], rate)


def multimodal_encode(params, config: ModelConfig, x: Tensor,
                      token_mask: np.ndarray, dropout_rng=None) -> Tensor:
    """Joint transformer over the [video; narration; step] tokens x, (B, T+N+S, d).

    token_mask is (B, T+N+S) bool. The valid tokens are gathered once into
    one packed (sum n_i, d) array, video by video, and every layer runs on
    those rows alone: a video's tokens attend to its own valid tokens only,
    so padding can neither leak into valid positions nor cost compute (the
    variable-length layout of FlashAttention-2, Dao, 2023; packing without
    cross-contamination, Krell et al., 2021). The result is scattered back
    once into zeros of shape (B, T+N+S, d): padded positions come out 0.
    With zero layers this is the identity on the valid tokens.
    Each layer is pre-norm: attention reads layers.{i}.ln1 of the residual
    stream and the FFN layers.{i}.ln2 of it, each norm folded into its
    node, which keeps the stream rather than its normalised copy; the
    final norm is a layer_norm node of its own.
    Passing a dropout_rng enables train-mode dropout on the token embeddings
    and both residual branches; besides regularizing, this stops the token
    cloud from collapsing onto a few directions, which would saturate every
    cosine score near 1 and blind the absolute pseudo-label filter. No
    sublayer output is held past its residual add, so at inference each
    activation goes once the next op has read it.
    """
    if x.shape[1] != token_mask.shape[1]:
        raise ModelError(
            f"token mask covers {token_mask.shape[1]} tokens, model has {x.shape[1]}")
    counts = token_mask.sum(axis=1)
    if not counts.all():
        raise ModelError("a batch row has no valid tokens")
    bounds = np.concatenate([[0], np.cumsum(counts)])
    h = x[token_mask]
    del x  # at inference nothing else holds the padded tokens, so they go now
    h = _dropout(h, token_mask, config.dropout, dropout_rng)
    for i in range(config.num_layers):
        h = h + _dropout(_attention(params, f"layers.{i}.attn", h, bounds,
                                    config.num_heads, _norm(params, f"layers.{i}.ln1")),
                         token_mask, config.dropout, dropout_rng)
        h = h + _dropout(_mlp(params, f"layers.{i}.ffn", h, bounds,
                              _norm(params, f"layers.{i}.ln2")),
                         token_mask, config.dropout, dropout_rng)
    if config.num_layers > 0:
        h = layer_norm(h, *_norm(params, "final_ln"))
    return unpack(h, token_mask)


def _unit_rows(x: Tensor) -> Tensor:
    norm_sq = (x * x).sum(axis=-1, keepdims=True)
    return x / (norm_sq + COSINE_EPS).sqrt()


def cosine_alignment(h_a: Tensor, h_b: Tensor) -> Tensor:
    """Pairwise cosine similarity, (B, n_a, n_b)."""
    return _unit_rows(h_a) @ _unit_rows(h_b).swapaxes(-1, -2)


def indirect_alignment(a_sn: Tensor, a_nv: Tensor, narration_mask: np.ndarray,
                       xi: float) -> Tensor:
    """Step-video scores routed through narrations.

    Rows are convex combinations of valid narration rows of a_nv: the softmax
    weights are nonnegative and sum to one, with invalid narrations forced to
    exactly zero weight by the additive mask. The softmax is built from
    generic nodes; only forward calls this, on detached tensors, so no
    training graph holds it and a fused node would save nothing.
    """
    bias = np.where(narration_mask, 0.0, MASK_FILL).astype(a_sn.dtype)
    z = a_sn * (1.0 / xi) + bias[:, None, :]
    e = (z - z.data.max(axis=-1, keepdims=True)).exp()
    return (e / e.sum(axis=-1, keepdims=True)) @ a_nv


def fuse(a_sv: Tensor, a_snv: Tensor) -> Tensor:
    return (a_sv + a_snv) * 0.5


# ---------------------------------------------------------------------------
# whole-model forward


@dataclass
class BatchAlignments:
    """The two heads the loss reads, graph-bearing, padded shapes."""

    a_nv: Tensor
    a_sv: Tensor


@dataclass
class AlignmentSet:
    """Detached per-video similarity matrices, trimmed to true sizes, in the
    parameters' dtype: float32 for float32 params."""

    video_id: str
    a_nv: np.ndarray   # (N, T)
    a_sv: np.ndarray   # (S, T)
    a_sn: np.ndarray   # (S, N)
    a_snv: np.ndarray  # (S, T)
    a_fused: np.ndarray
    narration_index: tuple[int, ...] = ()


def _encode(params, config: ModelConfig, batch: Batch,
            dropout_rng=None) -> tuple[Tensor, Tensor, Tensor]:
    """Frame, narration and step tokens out of the joint transformer."""
    token_mask = np.concatenate(
        [batch.frame_mask, batch.narration_mask, batch.step_mask], axis=1)
    z = multimodal_encode(
        params, config,
        concat([unimodal_encode(params, Tensor(batch.frames), "video"),
                unimodal_encode(params, Tensor(batch.narrations), "narration"),
                unimodal_encode(params, Tensor(batch.steps), "step")], axis=1),
        token_mask, dropout_rng=dropout_rng)
    t, n = batch.frames.shape[1], batch.narrations.shape[1]
    return z[:, :t], z[:, t:t + n], z[:, t + n:]


def forward_batch(params, config: ModelConfig, batch: Batch,
                  dropout_rng=None) -> BatchAlignments:
    """Training entry point: a_nv and a_sv with graph attached. dropout_rng,
    when given, turns on train-mode dropout inside the joint transformer.
    """
    z_v, z_n, z_s = _encode(params, config, batch, dropout_rng)
    return BatchAlignments(cosine_alignment(z_n, z_v), cosine_alignment(z_s, z_v))


def forward(params, config: ModelConfig, batch: Batch) -> list[AlignmentSet]:
    """Inference entry point: all five heads, detached, per video, trimmed.

    Videos with no usable narrations get a_snv = 0 and a_fused = a_sv: the
    indirect pathway has nothing to route through there.
    """
    z_v, z_n, z_s = _encode(detach_params(params), config, batch)
    a_nv = cosine_alignment(z_n, z_v)
    a_sv = cosine_alignment(z_s, z_v)
    a_sn = cosine_alignment(z_s, z_n)
    a_snv = indirect_alignment(a_sn, a_nv, batch.narration_mask, config.xi)
    a_fused = fuse(a_sv, a_snv).data
    bare = ~batch.narration_mask.any(axis=1)
    a_snv.data[bare] = 0.0
    a_fused[bare] = a_sv.data[bare]
    sizes = zip(*(m.sum(axis=1) for m in
                  (batch.frame_mask, batch.narration_mask, batch.step_mask)))
    return [AlignmentSet(video_id=vid,
                         a_nv=a_nv.data[i, :n, :t].copy(),
                         a_sv=a_sv.data[i, :s, :t].copy(),
                         a_sn=a_sn.data[i, :s, :n].copy(),
                         a_snv=a_snv.data[i, :s, :t].copy(),
                         a_fused=a_fused[i, :s, :t].copy(),
                         narration_index=batch.narration_index[i])
            for i, (vid, (t, n, s)) in enumerate(zip(batch.video_ids, sizes))]


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, arrays: Mapping[str, np.ndarray],
                    meta: Optional[dict] = None) -> None:
    """tensorio.write_tensors, under the name perfbench times checkpoint writes by."""
    tensorio.write_tensors(path, arrays, meta)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """tensorio.read_tensors, under the name perfbench times checkpoint loads by."""
    return tensorio.read_tensors(path)


def params_from_arrays(arrays: Mapping[str, np.ndarray]) -> dict[str, Tensor]:
    return {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
