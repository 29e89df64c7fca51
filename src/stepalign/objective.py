"""Alignment training objective.

For one video with similarity matrix A (rows x frames), labels Y, and a set
of supervised rows, the per-video loss is

    H(Y, A) = -(1/K') sum_k log( sum_t Y_kt exp(A_kt / eta)
                                / sum_t     exp(A_kt / eta) )

with both sums over valid frames only and k ranging over the K' supervised
rows. A row with several positive frames pools them in the numerator, so the
model is rewarded for putting mass anywhere inside the labeled span rather
than on one arbitrary frame. K' = 0 contributes exactly zero.

Cosine inputs are bounded, so A/eta stays within about +/-14.3 at eta=0.07;
everything is still accumulated in float64 behind a shifted softmax because
exp ratios of hundreds of terms lose digits fast in float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .autodiff import Tensor
from .corpus.batching import Batch
from .encoder import MASK_FILL, BatchAlignments


@dataclass(frozen=True)
class LossConfig:
    eta: float = 0.07
    lambda_nv: float = 1.0
    lambda_sv: float = 1.0

    def validate(self) -> None:
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        for name in ("lambda_nv", "lambda_sv"):
            if not getattr(self, name) >= 0:
                raise ValueError(
                    f"loss weights must be >= 0, got {name}={getattr(self, name)}")


@dataclass
class LossReport:
    """Scalar diagnostics for logging; total is what gradients come from."""

    total: float
    loss_nv: float
    loss_sv: float
    rows_sv: int


def info_nce(a: Tensor, y: np.ndarray, supervised: np.ndarray,
             frame_mask: np.ndarray, eta: float) -> Tensor:
    """Per-video loss vector, shape (B,), from batched similarities (B, R, T).

    y marks positive frames per row; supervised marks rows that carry labels.
    Unsupervised rows are excluded with a hard zero weight, so neither their
    value nor their gradient can leak into the objective.
    """
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    b, r, t = a.shape
    if y.shape != (b, r, t):
        raise ValueError(f"labels shape {y.shape} does not match scores {(b, r, t)}")
    if supervised.shape != (b, r) or frame_mask.shape != (b, t):
        raise ValueError("supervision or frame mask shape mismatch")

    y_eff = (y.astype(np.float64) * frame_mask[:, None, :])
    sup = supervised.astype(np.float64)
    bad = supervised & (y_eff.sum(axis=-1) == 0)
    if bad.any():
        raise ValueError("supervised row with no positive valid frame")

    logits = a.astype(np.float64) * (1.0 / eta)
    bias = np.where(frame_mask, 0.0, MASK_FILL)[:, None, :]
    masked = logits + Tensor(bias)
    # constant shift: softmax ratios are invariant to it, so detaching is exact
    shift = Tensor(masked.data.max(axis=-1, keepdims=True))
    e = (masked - shift).exp()
    denom = e.sum(axis=-1)
    num = (e * Tensor(y_eff)).sum(axis=-1) + Tensor(1.0 - sup)  # keeps log finite
    row_loss = -(num / denom).log() * Tensor(sup)
    inv_k = 1.0 / np.maximum(sup.sum(axis=-1), 1.0)
    return row_loss.sum(axis=-1) * Tensor(inv_k)


def total_loss(alignments: BatchAlignments, batch: Batch,
               config: LossConfig) -> tuple[Tensor, LossReport]:
    """Batch-mean weighted sum of the narration-video and step-video losses."""
    config.validate()
    h_nv = info_nce(alignments.a_nv, batch.y_nv, batch.sup_nv,
                    batch.frame_mask, config.eta)
    h_sv = info_nce(alignments.a_sv, batch.y_sv, batch.sup_sv,
                    batch.frame_mask, config.eta)
    total = (h_nv * config.lambda_nv + h_sv * config.lambda_sv).mean()
    report = LossReport(
        total=float(total.data),
        loss_nv=float(h_nv.data.mean()),
        loss_sv=float(h_sv.data.mean()),
        rows_sv=int(batch.sup_sv.sum()),
    )
    return total, report


def gradients(loss: Tensor, params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Zero old grads, backprop from loss, return per-parameter gradients."""
    for p in params.values():
        p.grad = None
    loss.backward()
    return {name: (np.zeros_like(p.data) if p.grad is None else p.grad)
            for name, p in params.items()}
