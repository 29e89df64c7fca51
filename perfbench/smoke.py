"""Smoke run of the benchmark harness at toy size, in seconds.

    python3 perfbench/smoke.py

Runs every workload untraced and traced through run.py, checks the result
line against BENCHMARK.json, checks that count metrics repeat exactly, feeds
every output check a broken output it must reject, makes stepalign raise to
see the error counted as a failed operation, and checks that run.py fails
without printing a result where the sources are missing. Exits 0 when
the harness behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from checks import (alignment_problems, infer_problems, pseudo_label_quality,
                    report_problems, train_log_problems)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every other metric is a count or a share, and repeats exactly for one seed
TIMING_UNITS = ("s", "ms", "videos/s")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "toy"],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def check_results() -> None:
    import workloads

    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    expect(set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]},
           "workloads in run.py and BENCHMARK.json differ")
    wanted = {0: [m["name"] for m in SPEC["end_to_end"]],
              1: [m["name"] for m in SPEC["per_layer"]]}
    counts = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            code, result, err = bench(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(code == 0, f"{where}: exit {code}\n{err[-2000:]}")
            if result is None:
                failures.append(f"{where}: no result line")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: correct={result['correct']} failed={result['failed']} "
                   f"attempted={result['attempted']}")
            want = wanted[trace]
            expect(set(result["metrics"]) == set(want),
                   f"{where}: metrics {sorted(set(result['metrics']) ^ set(want))} "
                   f"missing or unexpected")
            for name, m in result["metrics"].items():
                expect(m["unit"] == units.get(name), f"{where}: {name} unit {m['unit']}")
                if trace == 0:
                    expect(m["value"] != 0, f"{where}: end-to-end {name} reads 0")
            if trace:
                counts[workload] = {n: m["value"] for n, m in result["metrics"].items()
                                    if m["unit"] not in TIMING_UNITS}
    # counts repeat exactly for the same seed
    code, result, _ = bench("curriculum", 1)
    again = {n: m["value"] for n, m in (result or {"metrics": {}})["metrics"].items()
             if m["unit"] not in TIMING_UNITS}
    expect(code == 0 and again == counts.get("curriculum"),
           "curriculum count metrics differ between two traced runs of one seed")


def check_checks() -> None:
    seg = SimpleNamespace
    good = SimpleNamespace(video_id="v", a_nv=np.array([[0.1, 0.9], [0.5, -0.2]]),
                           a_sv=np.zeros((1, 2)), a_sn=np.zeros((1, 2)),
                           a_snv=np.array([[0.3, 0.4]]), a_fused=np.zeros((1, 2)))
    expect(alignment_problems(good) == [], "alignment check rejects a good output")
    for field, value in (("a_fused", np.array([[np.nan, 0.0]])),
                         ("a_sv", np.array([[1.5, 0.0]])),
                         ("a_snv", np.array([[0.6, 0.4]]))):
        bad = SimpleNamespace(**{**vars(good), field: value})
        expect(alignment_problems(bad) != [], f"alignment check accepts a bad {field}")
    expect(report_problems([seg(name="step_r1", numerator=3, denominator=2)], "v") != [],
           "metric check accepts numerator > denominator")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    (SCRATCH / "train_log.jsonl").write_text('{"loss": 0.5}\n{"loss": NaN}\n')
    problems = train_log_problems(SCRATCH, 3)
    expect(problems[0] == "" and all(problems[1:]),
           "train-log check misses a non-finite loss or a missing epoch")

    out = SCRATCH / "infer"
    out.mkdir(exist_ok=True)
    rows = ["row,frame,score"] + [f"{r},{c},0.000000" for r in range(2) for c in range(3)]
    emits = {"csv": "\n".join(rows) + "\n",
             "pgm": b"P5\n3 2\n255\n" + bytes(6),
             "seg": "".join(json.dumps({"step": s}) + "\n" for s in range(2))}

    def write(csv=emits["csv"], pgm=emits["pgm"], seg_lines=emits["seg"]):
        (out / "v.alignment.csv").write_text(csv)
        (out / "v.fused.pgm").write_bytes(pgm)
        (out / "v.segments.jsonl").write_text(seg_lines)

    write()
    expect(infer_problems(0, out, "v", 2, 3) == [], "infer check rejects a good output")
    expect(infer_problems(3, out, "v", 2, 3) != [], "infer check accepts exit code 3")
    for kwargs in ({"csv": "\n".join(rows[:-1]) + "\n"},
                   {"pgm": b"P5\n2 3\n255\n" + bytes(6)},
                   {"seg_lines": json.dumps({"step": 0}) + "\n"}):
        write(**kwargs)
        expect(infer_problems(0, out, "v", 2, 3) != [],
               f"infer check accepts a broken {next(iter(kwargs))}")

    (SCRATCH / "pseudo").mkdir(exist_ok=True)
    labels = [{"meta": {"epoch": 0}},
              {"video_id": "v", "step": 0, "kept": True, "start": 0, "end": 9},
              {"video_id": "v", "step": 1, "kept": True, "start": 0, "end": 5},
              {"video_id": "v", "step": 2, "kept": False, "start": None, "end": None}]
    (SCRATCH / "pseudo" / "initial.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in labels))
    video = SimpleNamespace(id="v", gt_step_segments={0: (seg(start=0, end=9),),
                                                      1: (seg(start=20, end=29),)})
    expect(pseudo_label_quality(SCRATCH, [video])
           == [{"pass": "initial", "epoch": 0, "rows": 3, "kept": 2, "correct": 1, "shown_steps": 2}],
           "pseudo-label quality miscounts a known label set")


def check_errors() -> None:
    """A stepalign error counts as a failed operation; the run goes on to
    print its result instead of crashing."""
    import stepalign
    import workloads
    from stepalign.encoder import ModelError
    from stepalign.trainer import TrainError

    def fail(error):
        def raising(*args, **kwargs):
            raise error
        return raising

    for workload, attr, error in (("curriculum", "train", TrainError("loss diverged (nan)")),
                                  ("score", "forward", ModelError("broken batch"))):
        run = workloads.Run(seed=3, seconds=0.5, trace=False, sizes=workloads.TOY,
                            scratch=SCRATCH / "errors")
        original = getattr(stepalign, attr)
        setattr(stepalign, attr, fail(error))
        try:
            workloads.WORKLOADS[workload](run)
        finally:
            setattr(stepalign, attr, original)
        expect(run.failed == 1 and type(error).__name__ in run.problems[0],
               f"{workload}: a {type(error).__name__} from {attr}() is not one failed "
               f"operation (failed={run.failed}, problems={run.problems[:2]})")


def check_bare_directory() -> None:
    """Without src/ the benchmark must fail and print no result."""
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = bench("score", 0, root=bare)
    expect(code != 0 and result is None,
           f"run.py without sources exited {code} with result {result}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    check_checks()
    check_errors()
    check_bare_directory()
    check_results()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
