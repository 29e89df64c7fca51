"""Print SHA-256 digests of the files a training run writes, to show that a
change keeps training bit-identical.

For each seed, this trains the acceptance-gate configuration of
tests/test_acceptance.py (a 4 x 25-video synthetic corpus, its 80/20 split,
model_dim 64, 2 layers, 8 teacher and 12 main epochs) with a workdir in a
temporary directory, and prints one line per file it wrote: the seed, the
file's path in the workdir and its digest, for last.ckpt, train_log.jsonl
and each pseudo/*.jsonl. Run it from two checkouts and compare the output:

    python3 scripts/fingerprint.py          # seeds 0 and 3
    python3 scripts/fingerprint.py 0 1 2

It imports the stepalign under src/ next to this script, not an installed
one, and runs numpy with one BLAS thread unless the environment sets another
count. A seed takes about 30 s on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stepalign import (LossConfig, ModelConfig, PseudoConfig,  # noqa: E402
                       SynthConfig, TrainConfig, generate_synthetic,
                       split_corpus, train)


def fingerprint(seed: int) -> list[tuple[str, str]]:
    """(path in the workdir, SHA-256) of each file one seeded run writes."""
    corpus = generate_synthetic(SynthConfig(seed=seed))
    train_part, _ = split_corpus(corpus, 0.2, seed)
    mc = ModelConfig(feature_dims=corpus.dims, model_dim=64, num_layers=2,
                     num_heads=4, dropout=0.1)
    tc = TrainConfig(epochs=12, batch_size=8, base_lr=5e-3, weight_decay=0.001,
                     teacher_pre_epochs=8, teacher_lr=2e-3, max_frames=128,
                     seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        train(train_part, mc, tc, LossConfig(), PseudoConfig(), workdir=workdir)
        files = [workdir / "last.ckpt", workdir / "train_log.jsonl"]
        files += sorted((workdir / "pseudo").glob("*.jsonl"))
        return [(f.relative_to(workdir).as_posix(),
                 hashlib.sha256(f.read_bytes()).hexdigest()) for f in files]


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
