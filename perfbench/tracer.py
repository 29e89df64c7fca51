"""Span tracer that times stepalign's layers from outside the package.

Nothing under src/ is changed: while a Tracer is installed, the public
functions of each layer are replaced by timing wrappers in every stepalign
module that binds them. Binding sites matter because modules import names
directly (trainer does ``from .encoder import forward_batch``), so patching
``stepalign.encoder.forward_batch`` alone would miss the trainer's calls.

Spans (id, name, start, end, parent, op) are kept in memory and written when
the run ends. A span's self time is its duration minus the time covered by its
child spans, so self times of all spans under one root add up to the root's
duration exactly. The benchmark is a single process with one closed-loop
client, so no span ever waits on another: there is no wait time to report.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# module-level functions: (defining module, attribute, span name)
TIMED_FUNCTIONS = (
    ("stepalign.trainer", "train", "trainer.train"),
    ("stepalign.trainer", "adamw_step", "trainer.adamw"),
    ("stepalign.trainer", "label_corpus", "trainer.label_corpus"),
    ("stepalign.encoder", "save_checkpoint", "trainer.checkpoint"),
    ("stepalign.encoder", "load_checkpoint", "checkpoint.load"),
    ("stepalign.encoder", "forward", "encoder.forward"),
    ("stepalign.encoder", "forward_batch", "encoder.forward"),
    ("stepalign.encoder", "unimodal_encode", "encoder.unimodal"),
    ("stepalign.encoder", "multimodal_encode", "encoder.multimodal"),
    ("stepalign.encoder", "cosine_alignment", "encoder.heads"),
    ("stepalign.encoder", "indirect_alignment", "encoder.heads"),
    ("stepalign.encoder", "fuse", "encoder.heads"),
    ("stepalign.objective", "total_loss", "objective.loss"),
    ("stepalign.objective", "gradients", "objective.gradients"),
    ("stepalign.pseudolabel", "generate_pseudolabels", "pseudolabel.generate"),
    ("stepalign.corpus.io", "read_corpus", "corpus.read"),
    ("stepalign.evalkit", "evaluate_video", "evalkit.evaluate"),
    ("stepalign.evalkit", "merge_reports", "evalkit.evaluate"),
    ("stepalign.evalkit", "blob_detect", "evalkit.blob_detect"),
    ("stepalign.taskselect", "assign_articles", "taskselect.assign"),
    ("stepalign.cli", "main", "cli.infer"),
)
# methods: (module, class, method, span name)
TIMED_METHODS = (
    ("stepalign.autodiff", "Tensor", "backward", "autodiff.backward"),
    ("stepalign.pseudolabel", "PseudoLabelSet", "save_jsonl", "pseudolabel.save"),
)
# generators are timed per next(): wrapping the call would time nothing
TIMED_GENERATORS = (
    ("stepalign.corpus.batching", "batch_iter", "corpus.batch"),
)
SPAN_NAMES = tuple(dict.fromkeys(
    [s for *_, s in TIMED_FUNCTIONS] + [s for *_, s in TIMED_METHODS]
    + [s for *_, s in TIMED_GENERATORS]))


def _stepalign_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "stepalign" or name.startswith("stepalign."))]


class Tracer:
    """Install with ``with tracer:``; everything is restored on exit.

    ``op`` tags each span with the unit of work it belongs to (an optimizer
    step, a scored batch, an infer call). Callers advance it, or name a span
    after whose end it advances (``op_after``).
    """

    def __init__(self, op_after: str | None = None):
        self.op = 0
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._op_after = op_after
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # ---- spans ----

    def _enter(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append([self._next_id, name, parent, self.op,
                            time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, parent, op, start, child_s = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        if parent is not None:
            parent[5] += duration
        # forward() calls forward_batch(): one model forward, counted once
        if parent is None or parent[1] != name:
            self.calls[name] += 1
        self.spans.append((span_id, name, start, end,
                           parent[0] if parent else None, op))
        if name == self._op_after:
            self.op += 1

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def _timed_batches(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            batches = fn(*args, **kwargs)
            while True:
                self._enter(name)
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    self._exit()
                self._count_padding(batch)
                yield batch
        return wrapper

    def _count_padding(self, batch) -> None:
        masks = (batch.frame_mask, batch.narration_mask, batch.step_mask)
        self.counts["token_slots"] += sum(m.size for m in masks)
        self.counts["token_slots_padded"] += sum(int(m.size - m.sum()) for m in masks)

    def _count_read(self, fn):
        @functools.wraps(fn)
        def wrapper(root, *args, **kwargs):
            corpus = fn(root, *args, **kwargs)
            # bytes computed from the returned arrays: a 16-byte header per
            # feature block plus its payload, and the manifest
            blocks = [v.frame_features for v in corpus.videos]
            blocks += [v.narration_features for v in corpus.videos]
            blocks += [a.step_features for a in corpus.articles.values()]
            self.counts["read_bytes"] += sum(16 + b.nbytes for b in blocks)
            self.counts["read_bytes"] += (Path(root) / "manifest.json").stat().st_size
            return corpus
        return wrapper

    # ---- installation ----

    def _replace_everywhere(self, original, replacement) -> None:
        for module in _stepalign_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def __enter__(self) -> "Tracer":
        for module_name, attr, span in TIMED_FUNCTIONS:
            fn = getattr(importlib.import_module(module_name), attr)
            wrapped = self._timed(fn, span)
            if span == "corpus.read":
                wrapped = self._count_read(wrapped)
            self._replace_everywhere(fn, wrapped)
        for module_name, attr, span in TIMED_GENERATORS:
            fn = getattr(importlib.import_module(module_name), attr)
            self._replace_everywhere(fn, self._timed_batches(fn, span))
        for module_name, cls_name, method, span in TIMED_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch_class(cls, method, self._timed(vars(cls)[method], span))
        self._install_autodiff_counters()
        return self

    def _patch_class(self, cls, attr: str, replacement) -> None:
        self._restore.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, replacement)

    def _install_autodiff_counters(self) -> None:
        tensor = importlib.import_module("stepalign.autodiff").Tensor
        result, matmul = vars(tensor)["_result"], vars(tensor)["__matmul__"]
        counts = self.counts
        make = result.__func__

        def _result(cls, data, parents, backward):
            counts["nodes"] += 1
            return make(cls, data, parents, backward)

        def __matmul__(a, b):
            out = matmul(a, b)
            counts["matmuls"] += 1
            counts["matmul_flop"] += 2 * out.data.size * a.shape[-1]
            counts["matmuls_f64"] += out.data.dtype == np.float64
            return out

        self._patch_class(tensor, "_result", classmethod(_result))
        self._patch_class(tensor, "__matmul__", __matmul__)

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ---- results ----

    def write_spans(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span_id, name, start, end, parent, op in sorted(self.spans):
                f.write(json.dumps({"id": span_id, "name": name,
                                    "start": start - t0, "end": end - t0,
                                    "parent": parent, "op": op}) + "\n")
