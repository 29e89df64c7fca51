"""Train the package's default configs on several seeds and write the
held-out hits of every alignment pathway, per seed and in total, to
ABLATE_<tag>.json in the current directory.

run_seed trains one seed and returns its record; the curriculum_runs
fixture of tests/test_acceptance.py calls it for criteria 6 and 7. A seed
is generate_synthetic(SynthConfig(seed=seed)) and its 80/20 split, trained
by train() with ModelConfig(feature_dims=corpus.dims), TrainConfig(seed=seed),
LossConfig() and PseudoConfig(), the recipe `stepalign train` runs, with a
workdir in a temporary directory. Per seed it records, as [hits, rows]:

    step_r1              step R@1 of fused, direct_sv and indirect on the
                         held-out videos with their narrations
    step_r1_no_narrations  step R@1 of fused and direct_sv with the
                         narrations stripped, as `stepalign eval
                         --no-narrations` strips them
    recall@1_iou0.5      segment recall of the same three pathways: true
                         segments that the row's first blob_detect proposal
                         overlaps at IoU >= 0.5, as `stepalign eval` prints it
    recall@1_iou0.5_no_narrations  the same for fused and direct_sv with
                         the narrations stripped
    narration_r1         narration R@1 on the held-out videos
    narration_r1_timestamp  the same rows judged by the middle frame of each
                         narration's ASR span, a baseline that reads no
                         model output
    untrained_fused_no_narrations  fused step R@1 without narrations of
                         the untrained model, init_params(model, seed)

held_out_gt_coverage, the mean share of a held-out video's frames that a
step's true segments cover, and criterion_7, whether criterion 7's rule
holds on the seed (fused R@1 at least indirect's, and within 0.02 of the
better pathway). last_labels describes the label set the main epochs
trained on, the teacher's, against the training videos' ground truth: its
rows, its kept rows, the kept rows whose segment overlaps a true segment of
that step at IoU >= 0.5, and the summed lengths of the kept segments and of
all true segments, with their means. Scores go through
trainer.evaluate_corpus.

digests holds SHA-256 digests that show whether a change keeps training
and inference bit-identical: corpus/generated, of the synthetic corpus as
generate_synthetic returns it; last.ckpt, train_log.jsonl and each
pseudo/*.jsonl, of the files training wrote; and forward/held_out and
forward/held_out_no_narrations, of the five matrices that forward() returns
for every held-out video, batched as `stepalign eval` batches them, with
its narrations and with them stripped. Run the same seeds in two checkouts
and compare the digests of each run.

--set section.key=value overrides a field of one config section (corpus,
model, train, loss or pseudo) on every seed; the value is read as JSON, or
as a string when it is not JSON. The merged sections are checked as a
--config file's are, before any training. Examples:

    python3 scripts/ablate.py --tag shipped                 # seeds 0-9
    python3 scripts/ablate.py 0 3 --tag same_bits           # compare digests
    python3 scripts/ablate.py 0 1 2 --tag zeta05 --set pseudo.zeta=0.5
    python3 scripts/ablate.py --jobs 2 --set pseudo.source='"fused"'

--compare OLD.json NEW.json trains nothing: for each seed of either file,
and for the totals, it prints every count that differs, as old -> new, and
the names of the digests that differ. It exits with 0 when every seed is in
both files with the same counts and digests and the totals are the same,
and with 1 otherwise, so it is a one-command check of "same bits":

    python3 scripts/ablate.py --compare ABLATE_base.json ABLATE_mine.json

It imports the stepalign under src/ next to this script, not an installed
one. main() starts its worker processes with one BLAS thread unless the
environment sets another count, and leaves os.environ as it found it; merely
importing this module changes nothing. A seed takes about 15 s on one core;
--jobs runs seeds in that many processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from stepalign import (LabelSource, LossConfig, ModelConfig,  # noqa: E402
                       PseudoConfig, SynthConfig, TrainConfig, batch_iter,
                       forward, generate_synthetic, init_params, interval_iou,
                       merge_reports, split_corpus, train)
from stepalign.cli import _strip_narrations  # noqa: E402
from stepalign.config import (_SECTIONS, ConfigError, RunConfig,  # noqa: E402
                              build_section)
from stepalign.trainer import evaluate_corpus  # noqa: E402

IOU_HIT = 0.5
SEGMENT_R1 = f"recall@1_iou{IOU_HIT:g}"
PAIRED = ("step_r1", "step_r1_no_narrations", SEGMENT_R1,
          f"{SEGMENT_R1}_no_narrations")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NARRATION = ("narration_r1", "narration_r1_timestamp")
LABEL_COUNTS = ("rows", "kept", "kept_iou50", "kept_len_sum", "true_segments",
                "true_len_sum")


def parse_override(text: str) -> tuple[str, str, object]:
    """section.key=value, the value as JSON or else as a string."""
    name, sep, raw = text.partition("=")
    section, dot, key = name.partition(".")
    if not sep or not dot or section not in _SECTIONS:
        raise argparse.ArgumentTypeError(
            f"expected section.key=value with a section of {sorted(_SECTIONS)}, "
            f"got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return section, key, value


def with_overrides(config, section: str, overrides: dict):
    """config with overrides[section] applied, checked by build_section."""
    fields = overrides.get(section)
    if not fields:
        return config
    return build_section(type(config), {**asdict(config), **fields},
                         f"--set {section}")


def _hits(per_video: dict, metric: str) -> list[int]:
    merged = merge_reports(d[metric] for d in per_video.values() if metric in d)
    report = merged.get(metric)
    return [0, 0] if report is None else [int(report.numerator),
                                          int(report.denominator)]


def _r1(pair: list[int]) -> float:
    return pair[0] / pair[1] if pair[1] else float("nan")


def _with_means(counts: dict) -> dict:
    """counts with the mean kept and true segment lengths added."""
    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else None
    return dict(counts, kept_len_mean=ratio("kept_len_sum", "kept"),
                true_len_mean=ratio("true_len_sum", "true_segments"))


def label_quality(labels, videos) -> dict:
    """Kept and correct rows of a label set, and kept against true lengths."""
    truth = {v.id: v.gt_step_segments or {} for v in videos}
    kept = [l for l in labels if l.kept]
    correct = sum(any(interval_iou(l.segment, seg) >= IOU_HIT
                      for seg in truth[l.video_id].get(l.step, ()))
                  for l in kept)
    true_lengths = [len(seg) for segs in truth.values()
                    for group in segs.values() for seg in group]
    return _with_means({
        "epoch": labels.meta.get("epoch"), "rows": len(labels),
        "kept": len(kept), "kept_iou50": correct,
        "kept_len_sum": sum(len(l.segment) for l in kept),
        "true_segments": len(true_lengths), "true_len_sum": sum(true_lengths)})


def corpus_digest(corpus) -> str:
    """SHA-256 over each video's id, task, narration texts and spans, ground
    truth and feature bytes, then each article's id, title, step texts and
    step features."""
    h = hashlib.sha256()
    for v in corpus.videos:
        spans = [[s.start, s.end] for s in v.narration_spans]
        gt = [[step, [[s.start, s.end] for s in segs]]
              for step, segs in (v.gt_step_segments or {}).items()]
        h.update(json.dumps([v.id, v.task_id, list(v.narration_texts), spans,
                             gt, v.gt_narration_steps]).encode())
        for m in (v.frame_features, v.narration_features):
            h.update(repr((m.dtype.str, m.shape)).encode())
            h.update(m.tobytes())
    for task_id, a in corpus.articles.items():
        h.update(json.dumps([task_id, a.title, list(a.step_texts)]).encode())
        h.update(repr((a.step_features.dtype.str, a.step_features.shape)).encode())
        h.update(a.step_features.tobytes())
    return h.hexdigest()


def forward_digest(params, mc: ModelConfig, corpus) -> str:
    """SHA-256 over each video's id and the shape and bytes of its five
    forward() matrices, in corpus order, eight videos to a batch."""
    h = hashlib.sha256()
    for batch in batch_iter(corpus, 8, mc.max_frames, None,
                            LabelSource.ASR_TIMESTAMPS):
        for al in forward(params, mc, batch):
            h.update(al.video_id.encode())
            for m in (al.a_nv, al.a_sv, al.a_sn, al.a_snv, al.a_fused):
                h.update(repr((m.dtype.str, m.shape)).encode())
                h.update(m.tobytes())
    return h.hexdigest()


def mean_gt_coverage(corpus) -> float:
    """Mean share of a video's frames that one step's true segments cover."""
    fractions = []
    for v in corpus.videos:
        for segs in v.gt_step_segments.values():
            covered = sum(len(s) for s in segs)
            fractions.append(covered / v.num_frames)
    return float(np.mean(fractions))


def run_seed(seed: int, overrides: dict) -> dict:
    """Train one seed of the package's default configs and return its record."""
    corpus = generate_synthetic(with_overrides(SynthConfig(seed=seed),
                                               "corpus", overrides))
    train_part, held_out = split_corpus(corpus, 0.2, seed)
    mc = with_overrides(ModelConfig(feature_dims=corpus.dims), "model", overrides)
    tc = with_overrides(TrainConfig(seed=seed), "train", overrides)
    loss = with_overrides(LossConfig(), "loss", overrides)
    pseudo = with_overrides(PseudoConfig(), "pseudo", overrides)
    digests = {"corpus/generated": corpus_digest(corpus)}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        result = train(train_part, mc, tc, loss, pseudo, workdir=workdir)
        files = [workdir / "last.ckpt", workdir / "train_log.jsonl"]
        files += sorted((workdir / "pseudo").glob("*.jsonl"))
        digests.update((f.relative_to(workdir).as_posix(),
                        hashlib.sha256(f.read_bytes()).hexdigest()) for f in files)
    stripped = _strip_narrations(held_out)
    digests["forward/held_out"] = forward_digest(result.params, mc, held_out)
    digests["forward/held_out_no_narrations"] = forward_digest(result.params, mc,
                                                               stripped)

    def scored(corpus, matrix, params=result.params):
        return evaluate_corpus(params, mc, corpus, 8, matrix=matrix)
    with_narr = {m: scored(held_out, m) for m in ("fused", "direct_sv", "indirect")}
    no_narr = {m: scored(stripped, m) for m in ("fused", "direct_sv")}
    step_r1 = {m: _hits(pv, "step_r1") for m, pv in with_narr.items()}
    fused, direct, indirect = (_r1(step_r1[m]) for m in ("fused", "direct_sv", "indirect"))
    return {
        "seed": seed,
        "step_r1": step_r1,
        "step_r1_no_narrations": {m: _hits(pv, "step_r1") for m, pv in no_narr.items()},
        SEGMENT_R1: {m: _hits(pv, SEGMENT_R1) for m, pv in with_narr.items()},
        f"{SEGMENT_R1}_no_narrations": {m: _hits(pv, SEGMENT_R1)
                                        for m, pv in no_narr.items()},
        **{key: _hits(with_narr["fused"], key) for key in NARRATION},
        "untrained_fused_no_narrations": _hits(
            scored(stripped, "fused", init_params(mc, seed)), "step_r1"),
        "held_out_gt_coverage": mean_gt_coverage(held_out),
        # criterion 7's rule; test_criterion_7_fusion_benefit reads it
        "criterion_7": bool(fused >= indirect - 1e-9
                            and fused >= max(direct, indirect) - 0.02 - 1e-9),
        "last_labels": (label_quality(result.labels, train_part.videos)
                        if result.labels is not None else None),
        "digests": digests,
    }


def totals(runs: list[dict]) -> dict:
    def add(pairs):
        return [sum(p[0] for p in pairs), sum(p[1] for p in pairs)]
    out = {key: {m: add([r[key][m] for r in runs]) for m in runs[0][key]}
           for key in PAIRED}
    out.update({
        **{key: add([r[key] for r in runs]) for key in NARRATION},
        "criterion_7": [sum(r["criterion_7"] for r in runs), len(runs)],
    })
    labels = [r["last_labels"] for r in runs if r["last_labels"] is not None]
    if labels:
        out["last_labels"] = _with_means({k: sum(l[k] for l in labels)
                                          for k in LABEL_COUNTS})
    return out


def _table(runs: list[dict], total: dict) -> str:
    """One line per seed and one of totals, hits over rows."""
    def frac(pair):
        return f"{pair[0]}/{pair[1]}"

    def mean(value):
        return "-" if value is None else f"{value:.2f}"
    lines = ["| seed | fused | direct | indirect | fused, no narr. | direct, no narr. "
             "| narration | narration, timestamp | fused segments, IoU>=0.5 | c7 "
             "| last labels: kept, IoU>=0.5 | kept len | true len |",
             "|---|---|---|---|---|---|---|---|---|---|---|---|---|"]
    for r in runs + [dict(total, seed="total")]:
        labels = r.get("last_labels") or {}
        c7 = r["criterion_7"]
        lines.append(" | ".join([
            f"| {r['seed']}", *(frac(r["step_r1"][m]) for m in ("fused", "direct_sv", "indirect")),
            *(frac(r["step_r1_no_narrations"][m]) for m in ("fused", "direct_sv")),
            *(frac(r[key]) for key in NARRATION), frac(r[SEGMENT_R1]["fused"]),
            frac(c7) if isinstance(c7, list) else ("yes" if c7 else "no"),
            f"{labels.get('kept', '-')}, {labels.get('kept_iou50', '-')}",
            mean(labels.get("kept_len_mean")), mean(labels.get("true_len_mean"))]) + " |")
    return "\n".join(lines)


def _counts(record: dict, prefix: str = ""):
    """(dotted name, value) of every count of a record but its seed and
    digests; a [hits, rows] pair is one value."""
    for key, value in record.items():
        if key in ("seed", "digests"):
            continue
        if isinstance(value, dict):
            yield from _counts(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _show(value) -> str:
    if isinstance(value, list):
        return "/".join(map(str, value))
    return "-" if value is None else str(value)


def _differences(old: dict, new: dict) -> tuple[str, bool]:
    """The counts and the names of the digests that differ between two
    records of one seed, or between two totals, and whether any does."""
    a, b = dict(_counts(old)), dict(_counts(new))
    counts = [f"{name} {_show(a.get(name))} -> {_show(b.get(name))}"
              for name in dict.fromkeys([*a, *b]) if a.get(name) != b.get(name)]
    parts = ["; ".join(counts) or "same counts"]
    names = []
    if "digests" in old or "digests" in new:
        x, y = old.get("digests", {}), new.get("digests", {})
        names = [n for n in dict.fromkeys([*x, *y]) if x.get(n) != y.get(n)]
        parts.append("digests differ: " + ", ".join(names) if names else "same digests")
    return "; ".join(parts), bool(counts or names)


def compare(old: dict, new: dict) -> tuple[list[str], bool]:
    """One line per seed of either ABLATE record, in the old record's seed
    order, then one for the totals; and whether anything differs, a seed in
    one record only included."""
    old_runs = {r["seed"]: r for r in old["runs"]}
    new_runs = {r["seed"]: r for r in new["runs"]}
    found = []
    for seed in dict.fromkeys([*old_runs, *new_runs]):
        if seed not in new_runs or seed not in old_runs:
            side = "old" if seed in old_runs else "new"
            found.append((f"seed {seed}", (f"only in the {side} record", True)))
        else:
            found.append((f"seed {seed}", _differences(old_runs[seed], new_runs[seed])))
    found.append(("totals", _differences(old["totals"], new["totals"])))
    return ([f"{label}: {line}" for label, (line, _) in found],
            any(differs for _, (_, differs) in found))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int,
                        help="the seeds to train (default: 0-9)")
    parser.add_argument("--tag", default="run",
                        help="the output is ABLATE_<tag>.json in the current "
                             "directory (default: run)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        type=parse_override, metavar="SECTION.KEY=VALUE",
                        help="override a config field; repeatable")
    parser.add_argument("--jobs", type=int, default=1,
                        help="seeds trained at once, one process each (default: 1)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD.json", "NEW.json"),
                        help="train nothing; print what differs between two "
                             "ABLATE files, seed by seed, and exit with 1 if "
                             "anything does")
    args = parser.parse_args(argv)
    if args.compare:
        if args.seeds or args.overrides:
            parser.error("--compare trains nothing, so it takes no seeds and no --set")
        old, new = (json.loads(path.read_text()) for path in args.compare)
        lines, differ = compare(old, new)
        print("\n".join(lines))
        return int(differ)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    overrides: dict[str, dict] = {}
    for section, key, value in args.overrides:
        overrides.setdefault(section, {})[key] = value
    try:  # reject a bad override before any training
        RunConfig(**{section: with_overrides(cls(), section, overrides)
                     for section, cls in _SECTIONS.items()}).validate()
    except ConfigError as e:
        parser.error(str(e))

    seeds = list(dict.fromkeys(args.seeds or range(10)))
    # spawned workers read the BLAS thread count from the environment when
    # they import numpy; the caller's environment is restored afterwards
    unset = [var for var in BLAS_THREADS if var not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(seeds)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            runs = list(pool.map(run_seed, seeds, [overrides] * len(seeds)))
    finally:
        for var in unset:
            del os.environ[var]
    total = totals(runs)
    path = Path(f"ABLATE_{args.tag}.json")
    path.write_text(json.dumps({"seeds": seeds, "overrides": overrides,
                                "runs": runs, "totals": total}, indent=1) + "\n")
    print(_table(runs, total))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
