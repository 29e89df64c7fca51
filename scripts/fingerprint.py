"""Print SHA-256 digests of the files a training run writes and of the
trained model's alignments, to show that a change keeps training and
inference bit-identical.

For each seed, this first prints corpus/generated, a digest of the
synthetic corpus as generate_synthetic returns it, before anything is
written to disk, so a change to the generator can show that its output is
byte-identical. It then trains the acceptance-gate configuration of
tests/test_acceptance.py (that 4 x 25-video synthetic corpus, its 80/20 split,
model_dim 64, 2 layers, 8 teacher and 12 main epochs) with a workdir in a
temporary directory, and prints one line per file it wrote: the seed, the
file's path in the workdir and its digest, for last.ckpt, train_log.jsonl
and each pseudo/*.jsonl. Two more lines, forward/held_out and
forward/held_out_no_narrations, digest the five matrices that forward()
returns for every video of the held-out 20%, batched as `stepalign eval`
batches them, with its narrations and with them stripped as
`stepalign eval --no-narrations` strips them. Run it from two checkouts
and compare the output:

    python3 scripts/fingerprint.py          # seeds 0 and 3
    python3 scripts/fingerprint.py 0 1 2

It imports the stepalign under src/ next to this script, not an installed
one, and runs numpy with one BLAS thread unless the environment sets another
count. A seed takes about 30 s on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stepalign import (LabelSource, LossConfig, ModelConfig,  # noqa: E402
                       PseudoConfig, SynthConfig, TrainConfig, batch_iter,
                       forward, generate_synthetic, split_corpus, train)
from stepalign.cli import _strip_narrations  # noqa: E402


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


def fingerprint(seed: int) -> list[tuple[str, str]]:
    """(corpus/generated, SHA-256) of the generated corpus, (path in the
    workdir, SHA-256) of each file one seeded run writes, then
    (forward/..., SHA-256) of its held-out alignments."""
    corpus = generate_synthetic(SynthConfig(seed=seed))
    generated = [("corpus/generated", corpus_digest(corpus))]
    train_part, held_out = split_corpus(corpus, 0.2, seed)
    mc = ModelConfig(feature_dims=corpus.dims, model_dim=64, num_layers=2,
                     num_heads=4, dropout=0.1)
    tc = TrainConfig(epochs=12, batch_size=8, base_lr=5e-3, weight_decay=0.001,
                     teacher_pre_epochs=8, teacher_lr=2e-3, max_frames=128,
                     seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        result = train(train_part, mc, tc, LossConfig(), PseudoConfig(),
                       workdir=workdir)
        files = [workdir / "last.ckpt", workdir / "train_log.jsonl"]
        files += sorted((workdir / "pseudo").glob("*.jsonl"))
        digests = [(f.relative_to(workdir).as_posix(),
                    hashlib.sha256(f.read_bytes()).hexdigest()) for f in files]
    return generated + digests + [
        ("forward/held_out", forward_digest(result.params, mc, held_out)),
        ("forward/held_out_no_narrations",
         forward_digest(result.params, mc, _strip_narrations(held_out)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[0, 3])
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for name, digest in fingerprint(seed):
            print(f"{seed} {name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
