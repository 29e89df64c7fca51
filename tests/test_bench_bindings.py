"""Names the benchmark harness in perfbench/ binds by string still resolve.

perfbench/tracer.py patches stepalign functions and methods by module and
attribute name, and perfbench/workloads.py reads names off the package and
its cli and trainer modules, some of them private. A refactor that moves,
renames or stops exporting one of them fails here instead of in a long
benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from stepalign.autodiff import Tensor
from stepalign.corpus import SynthConfig, generate_synthetic
from stepalign.corpus.batching import LabelSource, batch_iter
from stepalign.encoder import ModelConfig, forward_batch, init_params
from stepalign.objective import LossConfig, gradients, total_loss

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_bindings_resolve():
    tracer = _load_tracer()
    functions = [(m, a) for m, a, _ in tracer.TIMED_FUNCTIONS + tracer.TIMED_GENERATORS]
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


def test_workload_attributes_resolve():
    # workloads.py binds `import stepalign as sa` and `from stepalign import
    # cli, trainer`, and reads every name it uses off those three
    modules = {"sa": "stepalign", "cli": "stepalign.cli",
               "trainer": "stepalign.trainer"}
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {alias for alias, _ in used} == set(modules)
    missing = [f"{alias}.{name}" for alias, name in sorted(used)
               if not hasattr(importlib.import_module(modules[alias]), name)]
    assert not missing, f"perfbench/workloads.py reads names that do not exist: {missing}"


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


def test_tracer_counts_every_matmul_of_a_training_step():
    # every matmul of the model must stay a Tensor matmul, so that the
    # benchmark's FLOP count holds. The attention node multiplies one video
    # at a time: x @ wq, x @ wk, x @ wv, q @ k^T, p @ v and the merged heads
    # @ wo per row, so a layer counts 6 * B products; each of the four MLP
    # calls (mlp_v, mlp_n on narrations, mlp_n on steps and the FFN) counts
    # 2 * B, x @ w1 and act @ w2 per row; and the two cosine heads the loss
    # reads (a_nv, a_sv) are one product each: 30 here at B = 2 and 1 layer.
    # While q, k, v and o were x @ w + b nodes on the whole batch, the step
    # counted 26 products of the same 44,032 FLOP and 116 nodes: those four
    # products, their four bias additions and the reshape and swapaxes of
    # q, k and v into heads were 14 nodes, where the node's 4 * B more
    # per-row products are 8.
    # The tracer counts every op result as a node, these constant products
    # too. The node count is pinned at this size, so a change that adds
    # nodes to a training step, such as a head the loss does not read,
    # shows here
    corpus = generate_synthetic(SynthConfig(
        num_tasks=2, steps_per_task=2, videos_per_task=2, frames_range=(8, 10),
        dims=(6, 4, 4), latent_dim=4, background_dim=2, seed=1))
    mc = ModelConfig(feature_dims=corpus.dims, model_dim=8, num_layers=1,
                     num_heads=2, mlp_hidden=8, ffn_dim=16, max_frames=16,
                     max_narrations=8)
    params = init_params(mc, 1)
    batch = next(batch_iter(corpus, 2, 16, 1, LabelSource.ASR_TIMESTAMPS))
    tracer = _load_tracer()
    with tracer.Tracer() as t:
        alignments = forward_batch(params, mc, batch,
                                   dropout_rng=np.random.default_rng(1))
        gradients(total_loss(alignments, batch, LossConfig())[0], params)
    assert (t.counts["matmuls"], t.counts["matmul_flop"]) == (30, 44032)
    assert t.counts["nodes"] == 110
