"""scripts/ablate.py at toy size: the file it writes, its digests and its
override checks; and, at two BLAS thread counts, the training bits."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ablate
from stepalign import LossConfig, ModelConfig, PseudoConfig, TrainConfig

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ablate.py"

TOY = ["--set", "corpus.videos_per_task=3", "--set", "corpus.frames_range=[16,24]",
       "--set", "model.model_dim=8", "--set", "model.num_layers=1",
       "--set", "train.epochs=1", "--set", "train.teacher_pre_epochs=1"]
PAIRS = ("step_r1", "step_r1_no_narrations", "recall@1_iou0.5",
         "recall@1_iou0.5_no_narrations")


def test_ablate_writes_per_seed_hits_and_their_totals(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert ablate.main(["4", "--tag", "toy", *TOY]) == 0
    assert "wrote ABLATE_toy.json" in capsys.readouterr().out
    out = json.loads((tmp_path / "ABLATE_toy.json").read_text())
    assert out["seeds"] == [4]
    assert out["overrides"]["train"] == {"epochs": 1, "teacher_pre_epochs": 1}
    [run] = out["runs"]
    assert set(run) == {"seed", *PAIRS, "narration_r1", "narration_r1_timestamp",
                        "criterion_7", "last_labels", "untrained_fused_no_narrations",
                        "held_out_gt_coverage", "digests"}
    assert set(run["step_r1"]) == {"fused", "direct_sv", "indirect"}
    assert set(run["step_r1_no_narrations"]) == {"fused", "direct_sv"}
    assert set(run["recall@1_iou0.5"]) == {"fused", "direct_sv", "indirect"}
    assert set(run["recall@1_iou0.5_no_narrations"]) == {"fused", "direct_sv"}
    assert set(run["last_labels"]) == {"epoch", *ablate.LABEL_COUNTS,
                                       "kept_len_mean", "true_len_mean"}
    assert run["last_labels"]["epoch"] == 0
    assert run["step_r1"]["fused"][1] > 0
    assert run["narration_r1_timestamp"][1] == run["narration_r1"][1] > 0
    assert run["untrained_fused_no_narrations"][1] == run["step_r1"]["fused"][1]
    assert 0.0 < run["held_out_gt_coverage"] < 1.0

    total = out["totals"]
    assert set(total) == {*PAIRS, "narration_r1", "narration_r1_timestamp",
                          "criterion_7", "last_labels"}
    runs = out["runs"]
    for key in PAIRS:
        for matrix, pair in total[key].items():
            assert pair == [sum(r[key][matrix][i] for r in runs) for i in (0, 1)]
    for key in ("narration_r1", "narration_r1_timestamp"):
        assert total[key] == [sum(r[key][i] for r in runs) for i in (0, 1)]
    assert total["criterion_7"] == [sum(r["criterion_7"] for r in runs), len(runs)]
    for key in ablate.LABEL_COUNTS:
        assert total["last_labels"][key] == sum(r["last_labels"][key] for r in runs)


def _record_train(monkeypatch):
    """Replace ablate.train by a stub that records its arguments and raises."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise RuntimeError("no training here")
    monkeypatch.setattr(ablate, "train", record)
    return calls


def test_run_seed_trains_the_package_defaults(monkeypatch):
    calls = _record_train(monkeypatch)
    with pytest.raises(RuntimeError, match="no training"):
        ablate.run_seed(6, {})
    [(args, kwargs)] = calls
    train_part, *configs = args
    assert configs == [ModelConfig(feature_dims=train_part.dims), TrainConfig(seed=6),
                       LossConfig(), PseudoConfig()]
    assert set(kwargs) == {"workdir"}


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


DIGESTS = ["corpus/generated", "last.ckpt", "train_log.jsonl", "pseudo/initial.jsonl",
           "forward/held_out", "forward/held_out_no_narrations"]


def test_a_second_toy_run_of_a_seed_gives_equal_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = []
    for tag in ("a", "b"):
        assert ablate.main(["4", "--tag", tag, *TOY]) == 0
        [run] = json.loads((tmp_path / f"ABLATE_{tag}.json").read_text())["runs"]
        assert list(run["digests"]) == DIGESTS
        assert all(len(d) == 64 for d in run["digests"].values())
        digests.append(run["digests"])
    assert digests[0] == digests[1]


def test_training_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # On a machine with one CPU, BLAS may run one thread whatever it is
    # told, and then this proves nothing.
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, str(SCRIPT), "3", "--tag", threads,
                        "--set", "train.epochs=1", "--set", "train.teacher_pre_epochs=1"],
                       cwd=tmp_path, env=env, check=True, capture_output=True)
        [run] = json.loads((tmp_path / f"ABLATE_{threads}.json").read_text())["runs"]
        digests[threads] = run["digests"]
    assert digests["1"] == digests["2"]


def test_importing_ablate_leaves_the_environment_unchanged():
    # Tier-1 imports ablate during collection, so a variable set at import
    # would reach every subprocess a later test starts
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    code = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
            "before = dict(os.environ); import ablate; "
            "print(dict(os.environ) == before)")
    out = subprocess.run([sys.executable, "-c", code, str(SCRIPT.parent)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "True"


def test_ablate_main_pins_its_workers_to_one_blas_thread_and_restores_the_environment(
        tmp_path, monkeypatch):
    for var in ablate.BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")  # a count the caller set stays
    seen = {}

    class Pool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            seen.update({var: os.environ.get(var) for var in ablate.BLAS_THREADS})
            return list(map(fn, *iterables))  # in this process, up to the stub

    monkeypatch.setattr(ablate, "ProcessPoolExecutor", Pool)
    calls = _record_train(monkeypatch)
    monkeypatch.chdir(tmp_path)
    before = dict(os.environ)
    with pytest.raises(RuntimeError, match="no training"):
        ablate.main(["0", "--set", "train.base_lr=0.001"])
    assert seen == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                    "MKL_NUM_THREADS": "1"}
    assert dict(os.environ) == before
    [(args, _)] = calls  # a --set override reaches train
    assert args[2] == TrainConfig(seed=0, base_lr=0.001)


def _record(seed, fused, c7, ckpt):
    return {"seed": seed, "step_r1": {"fused": fused, "direct_sv": [5, 6]},
            "criterion_7": c7, "last_labels": {"kept": 4, "kept_len_mean": 2.5},
            "digests": {"corpus/generated": "c", "last.ckpt": ckpt}}


def test_compare_prints_the_counts_and_digests_that_differ(tmp_path, monkeypatch, capsys):
    # two hand-written records: seed 1 keeps its counts but not its
    # checkpoint, seed 2 loses a fused hit and criterion 7, seed 3 is only in
    # the new record; --compare trains nothing, writes no file and exits
    # with 1 when anything differs, with 0 when nothing does
    old = {"runs": [_record(1, [6, 6], True, "a"), _record(2, [6, 6], True, "b")],
           "totals": {"step_r1": {"fused": [12, 12], "direct_sv": [10, 12]},
                      "criterion_7": [2, 2]}}
    new = {"runs": [_record(2, [5, 6], False, "b"), _record(1, [6, 6], True, "z"),
                    _record(3, [6, 6], True, "c")],
           "totals": {"step_r1": {"fused": [17, 18], "direct_sv": [15, 18]},
                      "criterion_7": [2, 3]}}
    paths = []
    for name, record in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record))
    monkeypatch.setattr(ablate, "train", None)
    monkeypatch.chdir(tmp_path)
    assert ablate.main(["--compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed 1: same counts; digests differ: last.ckpt",
        "seed 2: step_r1.fused 6/6 -> 5/6; criterion_7 True -> False; same digests",
        "seed 3: only in the new record",
        "totals: step_r1.fused 12/12 -> 17/18; step_r1.direct_sv 10/12 -> 15/18; "
        "criterion_7 2/2 -> 2/3",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "old.json"]
    # a record against itself: the same in everything, exit 0
    assert ablate.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "seed 1: same counts; same digests",
        "seed 2: same counts; same digests",
        "totals: same counts",
    ]
    # any one difference alone makes it exit 1: a count, a digest, a seed
    # only in one record, a total
    for change in (lambda r: r["runs"][0]["step_r1"].update(fused=[5, 6]),
                   lambda r: r["runs"][1]["digests"].update({"last.ckpt": "x"}),
                   lambda r: r["runs"].pop(),
                   lambda r: r["totals"].update(criterion_7=[1, 2])):
        changed = json.loads(paths[0].read_text())
        change(changed)
        paths[1].write_text(json.dumps(changed))
        assert ablate.main(["--compare", *map(str, paths)]) == 1
        capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        ablate.main(["0", "--compare", *map(str, paths)])
    assert exc.value.code == 2
    assert "takes no seeds" in capsys.readouterr().err
