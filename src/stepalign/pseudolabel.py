"""Teacher-generated step segments.

A frozen teacher scores each article step against every frame; the best frame
(the first on ties) seeds a segment that grows outward while scores stay above
a fraction zeta of the peak. That segment is evalkit.blob_detect's first
proposal with every local maximum a seed, the same rule that `stepalign eval`
scores and `stepalign infer` prints. Low-peak rows are dropped entirely (gamma
filter): a wrong label hurts more than a missing one, and most videos simply
do not show every step.

Training labels the corpus once, with the narration-trained teacher, and the
student trains on those labels for every main epoch (see trainer).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .corpus.records import Segment
from .encoder import AlignmentSet
from .evalkit import ZETA, EvalError, blob_detect


class PseudoError(ValueError):
    pass


@dataclass(frozen=True)
class PseudoConfig:
    zeta: float = ZETA           # expansion keeps frames >= zeta * peak
    gamma: float = 0.65          # rows with peak below this are discarded
    source: str = "direct_sv"    # which matrix labels come from

    def validate(self) -> None:
        if not (0.0 < self.zeta <= 1.0):
            raise PseudoError(f"zeta must be in (0, 1], got {self.zeta}")
        if not math.isfinite(self.gamma):
            raise PseudoError(f"gamma must be finite, got {self.gamma}")
        if self.source not in ("direct_sv", "fused"):
            raise PseudoError(f"unknown pseudo-label source {self.source!r}")


@dataclass(frozen=True)
class PseudoLabel:
    video_id: str
    step: int
    # discarded rows carry no segment at all; a tempting "segment anyway,
    # just flagged" representation invites accidental training on it
    segment: Optional[Segment]
    peak: float

    @property
    def kept(self) -> bool:
        return self.segment is not None


class PseudoLabelSet:
    """Lookup table (video_id, step) -> PseudoLabel with JSONL persistence."""

    def __init__(self, labels: Iterable[PseudoLabel] = (),
                 meta: Optional[dict] = None):
        self._by_key: dict[tuple[str, int], PseudoLabel] = {}
        for label in labels:
            self.add(label)
        self.meta = dict(meta or {})

    def add(self, label: PseudoLabel) -> None:
        key = (label.video_id, label.step)
        if key in self._by_key:
            raise PseudoError(f"duplicate pseudo-label for {key}")
        self._by_key[key] = label

    def get(self, key: tuple[str, int]) -> Optional[PseudoLabel]:
        return self._by_key.get(key)

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[PseudoLabel]:
        return iter(self._by_key.values())

    def coverage(self) -> float:
        if not self._by_key:
            return 0.0
        return sum(1 for l in self if l.kept) / len(self)

    def save_jsonl(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({"meta": self.meta}) + "\n")
            for key in sorted(self._by_key):
                l = self._by_key[key]
                f.write(json.dumps({
                    "video_id": l.video_id, "step": l.step, "kept": l.kept,
                    "start": l.segment.start if l.kept else None,
                    "end": l.segment.end if l.kept else None,
                    "peak": l.peak}) + "\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "PseudoLabelSet":
        path = Path(path)
        out = cls()
        with open(path) as f:
            first = f.readline()
            if not first:
                raise PseudoError(f"{path}: empty pseudo-label file")
            header = json.loads(first)
            if "meta" not in header:
                raise PseudoError(f"{path}: first line must carry the meta object")
            out.meta = header["meta"]
            for line_no, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    seg = (Segment(int(row["start"]), int(row["end"]))
                           if row["kept"] else None)
                    out.add(PseudoLabel(
                        video_id=row["video_id"], step=int(row["step"]),
                        segment=seg, peak=float(row["peak"])))
                except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
                    raise PseudoError(f"{path}:{line_no}: bad record ({e})") from e
        return out


def generate_pseudolabels(alignments: Iterable[AlignmentSet],
                          config: PseudoConfig,
                          meta: Optional[dict] = None) -> PseudoLabelSet:
    """Label every step row of every alignment set.

    A row is kept only when its peak clears gamma and is strictly positive;
    a non-positive peak means the teacher found nothing resembling the step,
    and no threshold setting should turn that into supervision.
    """
    config.validate()
    out = PseudoLabelSet(meta=meta)
    for alignment in alignments:
        matrix = alignment.a_sv if config.source == "direct_sv" else alignment.a_fused
        for s in range(matrix.shape[0]):
            try:
                segment, peak = blob_detect(matrix[s], -np.inf, config.zeta)[0]
            except EvalError as e:
                raise PseudoError(f"{alignment.video_id} step {s}: {e}") from e
            kept = peak > 0.0 and peak >= config.gamma
            out.add(PseudoLabel(video_id=alignment.video_id, step=s,
                                segment=segment if kept else None, peak=peak))
    return out

