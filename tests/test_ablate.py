"""scripts/ablate.py at toy size: the file it writes and its override checks."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import ablate  # noqa: E402

TOY = ["--set", "corpus.videos_per_task=3", "--set", "corpus.frames_range=[16,24]",
       "--set", "model.model_dim=8", "--set", "model.num_layers=1",
       "--set", "train.epochs=1", "--set", "train.teacher_pre_epochs=1"]
PAIRS = ("step_r1", "step_r1_no_narrations")


def test_ablate_writes_per_seed_hits_and_their_totals(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert ablate.main(["4", "--tag", "toy", *TOY]) == 0
    assert "wrote ABLATE_toy.json" in capsys.readouterr().out
    out = json.loads((tmp_path / "ABLATE_toy.json").read_text())
    assert out["seeds"] == [4]
    assert out["overrides"]["train"] == {"epochs": 1, "teacher_pre_epochs": 1}
    [run] = out["runs"]
    assert set(run) == {"seed", *PAIRS, "narration_r1", "criterion_7", "last_labels"}
    assert set(run["step_r1"]) == {"fused", "direct_sv", "indirect"}
    assert set(run["step_r1_no_narrations"]) == {"fused", "direct_sv"}
    assert set(run["last_labels"]) == {"epoch", *ablate.LABEL_COUNTS,
                                       "kept_len_mean", "true_len_mean"}
    assert run["last_labels"]["epoch"] == 0
    assert run["step_r1"]["fused"][1] > 0

    total = out["totals"]
    assert set(total) == {*PAIRS, "narration_r1", "criterion_7", "last_labels"}
    runs = out["runs"]
    for key in PAIRS:
        for matrix, pair in total[key].items():
            assert pair == [sum(r[key][matrix][i] for r in runs) for i in (0, 1)]
    assert total["narration_r1"] == [sum(r["narration_r1"][i] for r in runs)
                                     for i in (0, 1)]
    assert total["criterion_7"] == [sum(r["criterion_7"] for r in runs), len(runs)]
    for key in ablate.LABEL_COUNTS:
        assert total["last_labels"][key] == sum(r["last_labels"][key] for r in runs)


def test_ablate_refuses_a_removed_option_before_training(tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("a seed started")
    monkeypatch.setattr(ablate, "ProcessPoolExecutor", no_training)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        ablate.main(["0", "--set", "pseudo.refresh_every=3"])
    assert exc.value.code == 2
    assert "unknown keys ['refresh_every']" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
