"""Labels from alignment matrices, keep thresholds and serialization.

The segment rule itself is evalkit.blob_detect's, tested in test_evalkit."""

import json

import numpy as np
import pytest

from stepalign.corpus import Segment
from stepalign.encoder import AlignmentSet
from stepalign.pseudolabel import (
    PseudoConfig,
    PseudoError,
    PseudoLabel,
    PseudoLabelSet,
    generate_pseudolabels,
)


def brute_force_segment(scores, zeta):
    """Independent formulation: the run of qualifying frames containing the peak."""
    scores = np.asarray(scores, dtype=np.float64)
    p = int(np.argmax(scores))  # argmax takes the lowest index on ties
    ok = scores >= zeta * scores[p]
    s = p
    while s > 0 and ok[s - 1]:
        s -= 1
    e = p
    while e < len(scores) - 1 and ok[e + 1]:
        e += 1
    return p, Segment(s, e)


# ---------------------------------------------------------------------------
# keep decisions over full alignment matrices


def alignment_for(matrix, video_id="v0"):
    matrix = np.asarray(matrix, dtype=np.float64)
    s, t = matrix.shape
    return AlignmentSet(
        video_id=video_id,
        a_nv=np.zeros((0, t)),
        a_sv=matrix,
        a_sn=np.zeros((s, 0)),
        a_snv=np.zeros((s, t)),
        a_fused=matrix,
        narration_index=(),
    )


def test_generate_matches_per_row_oracle():
    rng = np.random.default_rng(19)
    cfg = PseudoConfig()
    for trial in range(100):
        s, t = int(rng.integers(1, 6)), int(rng.integers(1, 30))
        m = rng.uniform(-1, 1, size=(s, t))
        labels = generate_pseudolabels([alignment_for(m, f"v{trial}")], cfg)
        for k in range(s):
            lab = labels.get((f"v{trial}", k))
            peak_idx, seg = brute_force_segment(m[k], cfg.zeta)
            peak = m[k, peak_idx]
            assert lab.peak == pytest.approx(peak, abs=1e-12)
            if peak > 0.0 and peak >= cfg.gamma:
                assert lab.kept and lab.segment == seg
            else:
                assert not lab.kept and lab.segment is None


def test_input_validation():
    with pytest.raises(PseudoError):
        generate_pseudolabels([alignment_for(np.zeros((1, 0)))], PseudoConfig())
    with pytest.raises(PseudoError):
        generate_pseudolabels([alignment_for([[0.5, np.nan]])], PseudoConfig())
    m = np.zeros((2, 2, 2))
    al = AlignmentSet("v0", np.zeros((0, 2)), m, np.zeros((2, 0)), m, m, ())
    with pytest.raises(PseudoError):
        generate_pseudolabels([al], PseudoConfig())


def test_segment_invariants():
    rng = np.random.default_rng(18)
    for trial in range(200):
        t = int(rng.integers(2, 40))
        scores = rng.uniform(-1, 1, size=t)
        cfg = PseudoConfig(zeta=float(rng.uniform(0.1, 1.0)), gamma=-2.0)
        lab = generate_pseudolabels([alignment_for(scores[None])], cfg).get(("v0", 0))
        assert lab.peak == scores.max()
        assert lab.kept == (lab.peak > 0.0), f"trial {trial}"
        if lab.kept:
            seg = lab.segment
            inside = scores[seg.start:seg.end + 1]
            assert lab.peak in inside
            cutoff = cfg.zeta * lab.peak
            assert np.all(inside >= cutoff)
            if seg.start > 0:
                assert scores[seg.start - 1] < cutoff
            if seg.end < t - 1:
                assert scores[seg.end + 1] < cutoff


def test_float32_rows_keep_their_peak_exactly():
    rng = np.random.default_rng(24)
    m = rng.uniform(-1, 1, size=(6, 30)).astype(np.float32)
    al = AlignmentSet("v0", np.zeros((0, 30), np.float32), m,
                      np.zeros((6, 0), np.float32), np.zeros_like(m), m, ())
    labels = generate_pseudolabels([al], PseudoConfig(gamma=-1.0))
    for k in range(6):
        assert labels.get(("v0", k)).peak == float(m[k].max())


def test_gamma_monotone_keep_sets():
    rng = np.random.default_rng(20)
    m = rng.uniform(-1, 1, size=(6, 40))
    rows = [alignment_for(m)]
    kept_sets = []
    for gamma in (0.2, 0.5, 0.8):
        labels = generate_pseudolabels(rows, PseudoConfig(gamma=gamma))
        kept_sets.append({(l.video_id, l.step) for l in labels if l.kept})
    assert kept_sets[2] <= kept_sets[1] <= kept_sets[0]


def test_gamma_above_one_discards_everything():
    rng = np.random.default_rng(21)
    m = rng.uniform(0.5, 1.0, size=(4, 20))
    labels = generate_pseudolabels([alignment_for(m)], PseudoConfig(gamma=1.01))
    assert labels.coverage() == 0.0
    assert all(not l.kept for l in labels)


def test_gamma_below_negative_one_keeps_positive_peaks():
    rng = np.random.default_rng(22)
    m = rng.uniform(0.1, 1.0, size=(4, 20))  # every row peaks above zero
    labels = generate_pseudolabels([alignment_for(m)], PseudoConfig(gamma=-1.01))
    assert labels.coverage() == 1.0


def test_nonpositive_peak_discarded_regardless_of_gamma():
    m = np.array([[-0.7, -0.2, -0.9]])
    labels = generate_pseudolabels([alignment_for(m)], PseudoConfig(gamma=-1.01))
    lab = labels.get(("v0", 0))
    assert not lab.kept and lab.segment is None
    assert lab.peak == pytest.approx(-0.2)


def test_source_selects_matrix():
    direct = np.array([[0.9, 0.1]])
    fused = np.array([[0.1, 0.9]])
    al = AlignmentSet("v0", np.zeros((0, 2)), direct, np.zeros((1, 0)),
                      np.zeros((1, 2)), fused, ())
    lab_d = generate_pseudolabels([al], PseudoConfig(source="direct_sv"))
    lab_f = generate_pseudolabels([al], PseudoConfig(source="fused"))
    assert lab_d.get(("v0", 0)).segment == Segment(0, 0)
    assert lab_f.get(("v0", 0)).segment == Segment(1, 1)


def test_config_validation():
    with pytest.raises(PseudoError):
        PseudoConfig(zeta=0.0).validate()
    with pytest.raises(PseudoError):
        PseudoConfig(source="nope").validate()
    PseudoConfig().validate()


# ---------------------------------------------------------------------------
# record consistency and serialization


def test_duplicate_add_rejected():
    store = PseudoLabelSet()
    store.add(PseudoLabel("v", 0, Segment(0, 1), 0.9))
    with pytest.raises(PseudoError):
        store.add(PseudoLabel("v", 0, None, 0.1))


def test_coverage():
    store = PseudoLabelSet()
    store.add(PseudoLabel("v", 0, Segment(0, 1), 0.9))
    store.add(PseudoLabel("v", 1, None, 0.2))
    assert store.coverage() == 0.5
    assert PseudoLabelSet().coverage() == 0.0


def test_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    m = rng.uniform(-1, 1, size=(5, 12))
    labels = generate_pseudolabels([alignment_for(m)], PseudoConfig(),
                                   meta={"epoch": 3})
    path = tmp_path / "labels.jsonl"
    labels.save_jsonl(path)

    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["meta"]["epoch"] == 3
    for line in lines[1:]:
        row = json.loads(line)
        if not row["kept"]:
            assert row["start"] is None and row["end"] is None

    loaded = PseudoLabelSet.load_jsonl(path)
    assert len(loaded) == len(labels)
    for a in labels:
        b = loaded.get((a.video_id, a.step))
        assert (a.kept, a.segment) == (b.kept, b.segment)
        assert a.peak == pytest.approx(b.peak, abs=1e-9)


def test_load_requires_meta_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"video_id": "v", "step": 0, "kept": false, '
                    '"start": null, "end": null, "peak": 0.1}\n')
    with pytest.raises(PseudoError):
        PseudoLabelSet.load_jsonl(path)


def test_load_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"meta": {}}\n{"video_id": "v"}\n')
    with pytest.raises(PseudoError):
        PseudoLabelSet.load_jsonl(path)

