"""Synthetic procedural-video corpus with exact ground truth.

Each task owns a handful of unit-norm latent step vectors. A video realizes a
subset of its task's steps as non-overlapping left-to-right segments; frames
inside a segment carry the step latent (plus noise) pushed through a fixed
video map. Background frames carry unit latents drawn from a separate
subspace that text never occupies, the way b-roll and chatter differ in kind
from step executions; they match step frames in norm, so separating them
takes learned direction structure, not magnitude. Narrations repeat the step
latent through a second map with a jittered timestamp span; article steps use
a third map. The three maps share nothing except the latent space, so models
must learn every cross-modal correspondence from alignment supervision alone.

The narration and step maps are deliberately close (a small perturbation of a
shared base) mirroring how real narration and step sentences live in the same
text-embedding space; this is what makes a narration-trained teacher useful on
step features zero-shot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import Article, Corpus, CorpusError, Segment, VideoRecord

# relative offset between the narration map and the step map
TEXT_MAP_DRIFT = 0.15
FILLER_WORDS = ("now", "next", "okay", "then", "so here")
WORD_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for generate_synthetic; defaults give a desk-scale corpus."""

    num_tasks: int = 4
    steps_per_task: int | tuple[int, int] = (4, 6)
    videos_per_task: int = 25
    frames_range: tuple[int, int] = (64, 128)
    dims: tuple[int, int, int] = (48, 32, 32)
    latent_dim: int = 16
    background_dim: int = 8
    noise_std: float = 0.1
    p_miss_step: float = 0.3
    p_swap_adjacent: float = 0.0
    p_distract_narration: float = 0.0
    seed: int = 0

    def steps_range(self) -> tuple[int, int]:
        if isinstance(self.steps_per_task, int):
            return (self.steps_per_task, self.steps_per_task)
        lo, hi = self.steps_per_task
        return (int(lo), int(hi))

    def validate(self) -> None:
        lo, hi = self.steps_range()
        t_min, t_max = self.frames_range
        if self.num_tasks < 1 or self.videos_per_task < 1:
            raise CorpusError("need at least one task and one video per task")
        if lo < 1 or lo > hi:
            raise CorpusError(f"bad steps_per_task {self.steps_per_task}")
        if t_min < 1 or t_min > t_max:
            raise CorpusError(f"bad frames_range {self.frames_range}")
        if hi > t_min:
            raise CorpusError(
                f"steps_per_task up to {hi} cannot fit in the minimum video "
                f"length {t_min} (each realized step needs at least one frame)")
        for name, p in (("p_miss_step", self.p_miss_step),
                        ("p_swap_adjacent", self.p_swap_adjacent),
                        ("p_distract_narration", self.p_distract_narration)):
            if not (0.0 <= p <= 1.0):
                raise CorpusError(f"{name} must be in [0, 1], got {p}")
        if not self.noise_std >= 0:
            raise CorpusError(f"noise_std must be >= 0, got {self.noise_std}")
        d_v, d_n, d_s = self.dims
        if d_n != d_s:
            # the step map is a drift of the narration map, and training
            # scores steps through the narration pathway
            raise CorpusError(
                f"narration and step dims must be equal, got {d_n} and {d_s}")
        if self.latent_dim < 1 or self.latent_dim > d_n:
            raise CorpusError(
                f"latent_dim {self.latent_dim} must be in [1, text dim {d_n}]")
        if self.background_dim < 0:
            raise CorpusError("background_dim must be >= 0")
        if self.latent_dim + self.background_dim > d_v:
            raise CorpusError(
                f"latent_dim + background_dim = "
                f"{self.latent_dim + self.background_dim} exceeds video dim {d_v}")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _orthonormal_map(raw: np.ndarray) -> np.ndarray:
    """Column-orthonormal map latent -> feature space; preserves latent geometry."""
    q, r = np.linalg.qr(raw)
    return q * np.sign(np.diag(r))


def _word(rng: np.random.Generator, length: int = 5) -> str:
    return "".join(rng.choice(WORD_LETTERS, size=length))


def _task_lexicon(rng: np.random.Generator, num_steps: int):
    title_words = [_word(rng) for _ in range(3)]
    step_words = [[_word(rng), _word(rng)] for _ in range(num_steps)]
    return title_words, step_words


def _narration_text(rng, title_words, step_words) -> str:
    filler = FILLER_WORDS[rng.integers(len(FILLER_WORDS))]
    picks = rng.permutation(3)[:2]
    return f"{filler} {title_words[picks[0]]} {title_words[picks[1]]} {step_words[0]}"


def _fit_segments(rng: np.random.Generator, t: int, k: int) -> list[Segment]:
    """k non-overlapping segments laid left to right with random gaps."""
    lo = max(1, int(0.30 * t / k))
    hi = max(lo, int(0.65 * t / k))
    lengths = rng.integers(lo, hi + 1, size=k)
    slack = t - int(lengths.sum())
    gaps = rng.multinomial(slack, np.full(k + 1, 1.0 / (k + 1)))
    segments, cursor = [], 0
    for i in range(k):
        start = cursor + int(gaps[i])
        end = start + int(lengths[i]) - 1
        segments.append(Segment(start, end))
        cursor = end + 1
    return segments


def _jittered_span(rng: np.random.Generator, seg: Segment, t: int) -> Segment:
    seg_len = len(seg)
    span_len = max(1, int(round(seg_len * rng.uniform(0.7, 1.3))))
    span_len = min(span_len, t)
    center = 0.5 * (seg.start + seg.end) + rng.normal(0.0, max(1.0, 0.3 * seg_len))
    start = int(round(center - 0.5 * (span_len - 1)))
    start = min(max(start, 0), t - span_len)
    return Segment(start, start + span_len - 1)


def generate_synthetic(config: SynthConfig) -> Corpus:
    """Build a corpus deterministically from config.seed.

    Every video draws from its own generator (seed mixed with the global video
    ordinal) so generation parallelizes per video without changing output.
    """
    config.validate()
    d_v, d_n, _ = config.dims
    lat = config.latent_dim
    full = lat + config.background_dim

    map_rng = _rng(config.seed, 0)
    map_v = _orthonormal_map(map_rng.normal(size=(d_v, full)))
    text_base = map_rng.normal(size=(d_n, lat))
    map_n = _orthonormal_map(text_base)
    # nearby but distinct map: narration-trained encoders transfer to steps
    drift = map_rng.normal(size=(d_n, lat)) * TEXT_MAP_DRIFT
    map_s = _orthonormal_map(text_base + drift)

    steps_lo, steps_hi = config.steps_range()
    articles: dict[str, Article] = {}
    task_latents: list[np.ndarray] = []
    task_words: list[tuple[list[str], list[list[str]]]] = []
    for ti in range(config.num_tasks):
        trng = _rng(config.seed, 1, ti)
        k = int(trng.integers(steps_lo, steps_hi + 1))
        latents = trng.normal(size=(k, lat))
        latents /= np.linalg.norm(latents, axis=1, keepdims=True)
        title_words, step_words = _task_lexicon(trng, k)
        task_id = f"task{ti:03d}"
        title = " ".join(title_words)
        step_texts = [f"{title_words[s % 3]} {step_words[s][0]} {step_words[s][1]}"
                      for s in range(k)]
        step_feats = (latents + trng.normal(size=(k, lat)) * 0.5 * config.noise_std) @ map_s.T
        articles[task_id] = Article(task_id, title, tuple(step_texts),
                                    step_feats.astype(np.float32))
        task_latents.append(latents)
        task_words.append((title_words, step_words))

    videos: list[VideoRecord] = []
    for ti in range(config.num_tasks):
        latents = task_latents[ti]
        k_all = latents.shape[0]
        for vi in range(config.videos_per_task):
            ordinal = ti * config.videos_per_task + vi
            vrng = _rng(config.seed, 2, ordinal)
            t = int(vrng.integers(config.frames_range[0], config.frames_range[1] + 1))

            kept = vrng.random(k_all) >= config.p_miss_step
            if not kept.any():
                kept[int(vrng.integers(k_all))] = True
            order = [s for s in range(k_all) if kept[s]]
            i = 0
            while i < len(order) - 1:
                if vrng.random() < config.p_swap_adjacent:
                    order[i], order[i + 1] = order[i + 1], order[i]
                    i += 2
                else:
                    i += 1

            segments = _fit_segments(vrng, t, len(order))
            # background frames are unit latents like step frames (norm gives
            # nothing away) but live in the trailing subspace text never maps to
            z = np.zeros((t, full))
            span_dims = slice(lat, full) if config.background_dim > 0 else slice(0, lat)
            raw = vrng.normal(size=(t, z[:, span_dims].shape[1]))
            z[:, span_dims] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            z += vrng.normal(size=(t, full)) * config.noise_std
            gt: dict[int, tuple[Segment, ...]] = {}
            narr_entries = []  # (span, features, text, gt_step)
            title_words, step_words = task_words[ti]
            for seg, s in zip(segments, order):
                rows = z[seg.start:seg.end + 1]
                rows[:] = 0.0
                rows[:, :lat] = latents[s]
                rows += vrng.normal(size=(len(seg), full)) * config.noise_std
                gt[s] = (seg,)
                span = _jittered_span(vrng, seg, t)
                feats = (latents[s] + vrng.normal(size=lat) * config.noise_std) @ map_n.T
                text = _narration_text(vrng, title_words, step_words[s])
                narr_entries.append((span, feats, text, s))

            if config.num_tasks > 1 and config.p_distract_narration > 0:
                for _ in range(len(order)):
                    if vrng.random() >= config.p_distract_narration:
                        continue
                    other = int(vrng.integers(config.num_tasks - 1))
                    other = other + 1 if other >= ti else other
                    o_latents = task_latents[other]
                    s = int(vrng.integers(o_latents.shape[0]))
                    span_len = int(vrng.integers(2, max(3, t // 10) + 1))
                    span_len = min(span_len, t)
                    start = int(vrng.integers(0, t - span_len + 1))
                    feats = (o_latents[s] + vrng.normal(size=lat) * config.noise_std) @ map_n.T
                    o_title, o_steps = task_words[other]
                    text = _narration_text(vrng, o_title, o_steps[s])
                    narr_entries.append((Segment(start, start + span_len - 1),
                                         feats, text, None))

            frames = z @ map_v.T
            narr_entries.sort(key=lambda e: (e[0].start, e[0].end))
            nfeat = (np.stack([e[1] for e in narr_entries])
                     if narr_entries else np.zeros((0, d_n)))
            videos.append(VideoRecord(
                id=f"t{ti:03d}v{vi:03d}",
                frame_features=frames.astype(np.float32),
                narration_texts=tuple(e[2] for e in narr_entries),
                narration_features=nfeat.astype(np.float32),
                narration_spans=tuple(e[0] for e in narr_entries),
                task_id=f"task{ti:03d}",
                gt_step_segments=gt,
                gt_narration_steps=tuple(e[3] for e in narr_entries),
            ))

    return Corpus(tuple(videos), articles, config.dims)
