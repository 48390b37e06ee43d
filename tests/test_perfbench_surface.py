"""The program surface that ``perfbench/`` reads, checked without running
the benchmark.

``perfbench/tracing.py`` names the functions it wraps by module and
attribute path, and ``perfbench/run.py`` calls the package directly and
reads arguments of traced calls by position. A rename or a new signature
there would not fail any other test, only a benchmark run: its trace
check fails, or a metric goes missing. This module loads ``tracing.py``
by path (it imports only the standard library; ``run.py`` sets thread
variables at import, so it is not imported) and makes each call that
``run.py`` makes, once, at desk size.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

import numpy as np
import pytest

from far import attribution, checkpoint, distill, profiler, pruner
from far.data import synth_dataset
from far.far_block import far_block_forward, replace_attention
from far.vit import TeacherModel

from conftest import desk_config

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_imports_only_the_standard_library():
    tree = ast.parse(TRACING.read_text())
    names = {alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)}
    assert names <= sys.stdlib_module_names, names - sys.stdlib_module_names


def test_every_traced_path_resolves_to_a_function():
    tracing = _tracing()
    for _, module, path in tracing.SPANS + tracing.COUNTS:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
            assert owner is not None, f"{module}.{path} is missing"
        assert inspect.isfunction(owner), f"{module}.{path} is {owner!r}"


def test_traced_signatures_that_mac_counters_reads():
    """``mac_counters`` reads a third positional argument of
    ``far_block_forward`` as masks, and ``args[1].shape`` of
    ``attention_block`` as the input's."""
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(far_block_forward) == ["x", "p"]
    assert params(TeacherModel.attention_block) == ["self", "x", "layer"]


@pytest.mark.parametrize("kind", ["distill", "finetune", "prune-regularize"])
def test_the_calls_perfbench_makes_run_and_print_nothing(tmp_path, capfd,
                                                         kind):
    cfg = desk_config()
    teacher = TeacherModel(cfg, seed=0)
    pruned = replace_attention(TeacherModel(cfg, seed=0), seed=0)
    pruner.prune_by_threshold(pruned, 0.97, mode="relative")
    models = {}
    for name, model in (("teacher", teacher), ("pruned", pruned)):
        path = tmp_path / f"{name}.farc"
        checkpoint.save_model(model, path)
        models[name] = checkpoint.load_model(path)
    pruned = models["pruned"]
    assert isinstance(pruned.teacher, TeacherModel)
    mcfg, found, tensors = checkpoint.load_checkpoint(tmp_path / "pruned.farc")
    assert (mcfg, found) == (cfg, "far") and isinstance(tensors, dict)

    ds = synth_dataset(0, 40, 10, 32)
    extra = None
    if kind == "prune-regularize":
        def extra():
            return pruner.hoyer_penalty_total(
                pruned, extension=False, reduce="sum") * 1e-4
    rows = distill.run_phase(pruned, pruned.teacher, ds, distill.TrainConfig(
        phase=kind, lam=1.0, lr=5e-5, weight_decay=0.0, epochs=1,
        batch_size=32, seed=0, warmup_epochs=2, warmup_lr=1e-5),
        extra_loss=extra)
    assert np.isfinite(rows[0]["loss"])

    per_layer = profiler.count_flops(cfg, "far", t=cfg.tokens, breakdown=True,
                                     masks=None)[1]
    assert len(per_layer) == cfg.layers
    assert 0 < profiler.count_flops(cfg, "far", masks=pruned.masks) \
        < profiler.count_flops(cfg, "far")
    assert len(pruner.retention_report(pruned)) == cfg.layers * 2 * cfg.heads
    image = ds.images[0]
    assert attribution.cls_saliency(pruned, image, cfg.layers - 1, 0).shape \
        == (cfg.grid, cfg.grid)
    assert attribution.token_dependency(pruned, image, cfg.layers - 1).shape \
        == (cfg.tokens, cfg.tokens)
    assert capfd.readouterr().out == ""
