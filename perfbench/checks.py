"""Output checks and pseudo-label quality, computed from outside the program.

Every check returns a list of problems (empty when the output is right), so a
workload can count an operation as failed when any of its checks complain.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# cosines are computed in floating point: allow rounding past +-1
COSINE_TOL = 1e-5
# a_snv rows are convex combinations of a_nv rows, exact up to rounding
CONVEX_TOL = 1e-6
IOU_HIT = 0.5


def alignment_problems(al) -> list[str]:
    """Finite matrices, cosines within [-1, 1], and a_snv inside the per-frame
    range of the valid a_nv rows (the indirect pathway is a convex mix)."""
    problems = []
    mats = {"a_nv": al.a_nv, "a_sv": al.a_sv, "a_sn": al.a_sn,
            "a_snv": al.a_snv, "a_fused": al.a_fused}
    for name, m in mats.items():
        if not np.isfinite(m).all():
            problems.append(f"{al.video_id}: {name} has non-finite entries")
    for name in ("a_nv", "a_sv", "a_sn"):
        m = mats[name]
        if m.size and np.abs(m).max() > 1.0 + COSINE_TOL:
            problems.append(f"{al.video_id}: {name} cosine outside [-1, 1] "
                            f"(max |x| {np.abs(m).max():.9g})")
    if al.a_nv.shape[0] > 0 and al.a_snv.size:
        lo, hi = al.a_nv.min(axis=0), al.a_nv.max(axis=0)
        if (al.a_snv < lo - CONVEX_TOL).any() or (al.a_snv > hi + CONVEX_TOL).any():
            problems.append(f"{al.video_id}: a_snv leaves the range of a_nv rows")
    return problems


def report_problems(reports, where: str) -> list[str]:
    """Every metric has 0 <= numerator <= denominator."""
    return [f"{where}: {r.name} {r.numerator:g}/{r.denominator:g}"
            for r in reports if not 0 <= r.numerator <= r.denominator]


def train_log_problems(workdir: Path, expected_epochs: int) -> list[str]:
    """One entry per epoch: empty when the epoch was logged once with a
    finite loss, otherwise what is wrong with it."""
    path = Path(workdir) / "train_log.jsonl"
    entries = ([json.loads(line) for line in path.read_text().splitlines() if line.strip()]
               if path.exists() else [])
    out = []
    for i in range(max(expected_epochs, len(entries))):
        loss = entries[i].get("loss") if i < len(entries) else None
        if i >= expected_epochs:
            out.append(f"{path}: line {i + 1} logs an epoch beyond {expected_epochs}")
        elif i >= len(entries):
            out.append(f"{path}: epoch {i + 1} of {expected_epochs} not logged")
        elif not isinstance(loss, (int, float)) or not math.isfinite(loss):
            out.append(f"{path}: line {i + 1} has loss {loss!r}")
        else:
            out.append("")
    return out


def infer_problems(exit_code: int, out_dir: Path, video_id: str,
                   steps: int, frames: int) -> list[str]:
    """Exit 0, an S x T alignment CSV, a P5 header for (S, T), and one
    segments line per step."""
    if exit_code != 0:
        return [f"infer {video_id}: exit code {exit_code}"]
    try:
        return _emit_problems(out_dir, video_id, steps, frames)
    except (OSError, ValueError, KeyError) as e:
        return [f"infer {video_id}: unreadable output ({e})"]


def _emit_problems(out_dir: Path, video_id: str, steps: int, frames: int) -> list[str]:
    problems = []
    csv_path = out_dir / f"{video_id}.alignment.csv"
    rows = csv_path.read_text().splitlines()
    if rows[:1] != ["row,frame,score"] or len(rows) - 1 != steps * frames:
        problems.append(f"{csv_path.name}: {len(rows) - 1} rows, expected "
                        f"{steps}x{frames}")
    pgm = (out_dir / f"{video_id}.fused.pgm").read_bytes()
    header = f"P5\n{frames} {steps}\n255\n".encode("ascii")
    if not pgm.startswith(header) or len(pgm) != len(header) + steps * frames:
        problems.append(f"{video_id}.fused.pgm: header {pgm[:20]!r} does not "
                        f"match (S, T) = ({steps}, {frames})")
    lines = (out_dir / f"{video_id}.segments.jsonl").read_text().splitlines()
    if [json.loads(line)["step"] for line in lines] != list(range(steps)):
        problems.append(f"{video_id}.segments.jsonl: {len(lines)} lines, "
                        f"expected one per step ({steps})")
    return problems


def _iou(a: tuple[int, int], b) -> float:
    inter = min(a[1], b.end) - max(a[0], b.start) + 1
    if inter <= 0:
        return 0.0
    return inter / ((a[1] - a[0] + 1) + (b.end - b.start + 1) - inter)


def pseudo_label_quality(workdir: Path, videos) -> list[dict]:
    """Score every labeling pass in workdir/pseudo against synthetic truth.

    Per pass: kept rows over all rows; precision, the share of kept rows whose
    segment overlaps a true segment of that step at IoU >= 0.5; and step
    recall, the share of steps the video really shows that got such a correct
    kept row. A label set holds one row per (video, step), so the correct kept
    rows are the recalled steps.
    """
    truth = {v.id: v.gt_step_segments for v in videos}
    passes = []
    for path in sorted((Path(workdir) / "pseudo").glob("*.jsonl")):
        header, *lines = path.read_text().splitlines()
        rows = [json.loads(line) for line in lines if line.strip()]
        kept = [r for r in rows if r["kept"]]
        correct = sum(any(_iou((r["start"], r["end"]), seg) >= IOU_HIT
                          for seg in truth[r["video_id"]].get(r["step"], ()))
                      for r in kept)
        shown = sum(len(truth[vid]) for vid in {r["video_id"] for r in rows})
        passes.append({"pass": path.stem, "epoch": json.loads(header)["meta"].get("epoch"),
                       "rows": len(rows), "kept": len(kept),
                       "correct": correct, "shown_steps": shown})
    return sorted(passes, key=lambda p: (p["epoch"] or 0, p["pass"]))
