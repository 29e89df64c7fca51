"""Names the benchmark harness in perfbench/ binds by string still resolve.

perfbench/tracer.py patches stepalign functions and methods by module and
attribute name, and perfbench/workloads.py calls a few private CLI and trainer
helpers. A refactor that moves or renames one of them fails here instead of
in a long traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from stepalign.autodiff import Tensor

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_bindings_resolve():
    tracer = _load_tracer()
    functions = [(m, a) for m, a, _ in tracer.TIMED_FUNCTIONS + tracer.TIMED_GENERATORS]
    functions += [("stepalign.cli", "_load_model"),
                  ("stepalign.cli", "_strip_narrations"),
                  ("stepalign.trainer", "adamw_step")]
    # the tracer patches methods through vars(cls), so they must be defined
    # on the class itself, not inherited
    methods = [(m, c, meth) for m, c, meth, _ in tracer.TIMED_METHODS]
    methods += [("stepalign.autodiff", "Tensor", "_result"),
                ("stepalign.autodiff", "Tensor", "__matmul__")]

    missing = [f"{m}.{a}" for m, a in functions
               if not callable(getattr(importlib.import_module(m), a, None))]
    for m, c, meth in methods:
        cls = getattr(importlib.import_module(m), c, None)
        if cls is None or meth not in vars(cls):
            missing.append(f"{m}.{c}.{meth}")
    assert not missing, f"perfbench binds names that no longer exist: {missing}"


def test_tracer_counts_every_autodiff_node():
    # the tracer counts nodes through Tensor._result and matmuls through
    # Tensor.__matmul__, so every op must still build its node through them
    tracer = _load_tracer()
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    with tracer.Tracer() as t:
        (a @ b - c).sum().backward()
    assert t.counts["matmuls"] == 1
    assert t.counts["nodes"] == 3  # matmul, subtraction, sum
    assert a.grad.shape == (3, 4) and c.grad.shape == (3, 2)
