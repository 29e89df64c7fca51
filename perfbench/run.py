"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {curriculum,score} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; stepalign is imported from its src/. With
--trace 0 the run prints every end-to-end metric of BENCHMARK.json, with
--trace 1 every per-layer metric, from a traced run. Human-readable lines
come first (each metric with its unit and base, the machine facts, every
failed check); the last line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every output check
passed, 1 when one failed, 2 when the sources are missing.

Details and, for traced runs, the spans are written under .perfbench_out/.
"""

import os

# one BLAS thread for this process only, set before numpy loads; the setting
# is recorded with every result
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def machine_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_ENV, "seed": seed}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["curriculum", "score"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "toy"], default="full",
                        help="toy inputs for the smoke run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stepalign" / "__init__.py").is_file():
        print(f"error: no stepalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stepalign
    import workloads

    if not Path(stepalign.__file__).resolve().is_relative_to(SRC):
        print(f"error: stepalign imported from {stepalign.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    scratch = OUT / f"run-{os.getpid()}"
    run = workloads.Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                        sizes=workloads.TOY if args.size == "toy" else workloads.FULL,
                        scratch=scratch)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not run.trace:
        # ru_maxrss is in KiB on Linux
        run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "MB", "peak resident set of the whole run, set-up included")

    facts = machine_facts(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    if run.tracer is not None:
        run.tracer.write_spans(OUT / f"spans-{tag}.jsonl")
    correct = run.failed == 0
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w") as f:
        json.dump({"workload": args.workload, "trace": args.trace, "machine": facts,
                   "metrics": run.metrics, "notes": run.notes, "details": run.details,
                   "attempted": run.attempted, "failed": run.failed,
                   "problems": run.problems}, f, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit) in run.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in run.notes:
        print(f"  - {note}")
    print(f"checks: {run.attempted} operations attempted, {run.failed} failed "
          f"(failed_fraction {run.failed}/{run.attempted})")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in run.metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
