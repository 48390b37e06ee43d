"""A model's ``precision`` holds for every array it computes: each node of
a training batch's graph and its gradient, every parameter gradient and
AdamW moment, frozen forwards and attribution maps."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from far import distill, pruner
from far.attribution import cls_saliency, token_dependency
from far.data import synth_dataset
from far.distill import TrainConfig, run_phase
from far.far_block import replace_attention
from far.tensor import DTYPES, Tensor
from far.vit import TeacherModel

from conftest import desk_config


def _graph(root):
    """Every node of the graph that ``root`` was computed from."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _check_graphs(roots, dtype):
    for root in roots:
        nodes = _graph(root)
        assert len(nodes) > 1
        for node in nodes:
            assert node.data.dtype == dtype, node
            assert node.grad is None or node.grad.dtype == dtype, node


@pytest.fixture
def spy(monkeypatch):
    """Records every scalar that ``backward`` runs on and every optimizer
    that takes a step."""
    seen = {"losses": [], "opts": []}
    backward, step = Tensor.backward, distill.AdamW.step

    def spy_backward(self):
        seen["losses"].append(self)
        backward(self)

    def spy_step(self):
        seen["opts"].append(self)
        step(self)

    monkeypatch.setattr(Tensor, "backward", spy_backward)
    monkeypatch.setattr(distill.AdamW, "step", spy_step)
    return seen


def _models(precision):
    cfg = desk_config(precision)
    teacher = TeacherModel(cfg, seed=50)
    return teacher, replace_attention(teacher, seed=50)


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("phase", distill.PHASES)
def test_one_batch_of_every_phase_computes_at_model_dtype(spy, precision,
                                                          phase):
    dtype = DTYPES[precision]
    teacher, far = _models(precision)
    ds = synth_dataset(50, 20, 10, 32)
    model = teacher if phase == "teacher" else far
    extra = None
    if phase == "prune-regularize":
        def extra():
            return pruner.hoyer_penalty_total(far, extension=False) * 1e-4
    if phase == "prune-finetune":
        pruner.prune_by_threshold(far, 0.9, mode="relative")
        far.blocks = pruner.shrink_model(far).blocks
    run_phase(model, teacher, ds, TrainConfig(
        phase=phase, epochs=1, batch_size=len(ds.train_idx),
        warmup_epochs=0), extra_loss=extra)

    assert len(spy["losses"]) == len(spy["opts"]) == 1
    _check_graphs(spy["losses"], dtype)
    trained = (far.mixer_parameters() if phase == "distill"
               else model.named_parameters())
    assert all(p.grad is not None and p.grad.dtype == dtype
               for p in trained.values())
    opt = spy["opts"][0]
    assert opt.m.dtype == opt.v.dtype == dtype
    assert all(p.data.dtype == dtype
               for p in model.named_parameters().values())


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_frozen_forwards_and_maps_are_at_model_dtype(spy, precision):
    dtype = DTYPES[precision]
    teacher, far = _models(precision)
    image = synth_dataset(51, 10, 10, 32).images[:1]
    for model in (teacher, far):
        logits, blocks = model.forward(image)
        assert logits.dtype == dtype
        assert all(b.dtype == dtype for b in blocks)
        maps = [cls_saliency(model, image, 1, 0),
                token_dependency(model, image, 1)]
        assert all(m.dtype == dtype for m in maps)
    # the FAR maps differentiate with respect to their input tokens
    assert len(spy["losses"]) == 2
    _check_graphs(spy["losses"], dtype)


def test_float32_compute_never_imports_scipy():
    """With scipy made unimportable, an f32 teacher forward, an f32 FAR
    forward, one f32 distill step and an f64 GELU run: the package needs
    numpy only."""
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from conftest import desk_config
        from far import tensor as T
        from far.data import synth_dataset
        from far.distill import TrainConfig, run_phase
        from far.far_block import replace_attention
        from far.vit import TeacherModel
        teacher = TeacherModel(desk_config("f32"), seed=52)
        far = replace_attention(teacher, seed=52)
        ds = synth_dataset(52, 10, 10, 32)
        teacher.forward(ds.images[:2])
        far.forward(ds.images[:2])
        rows = run_phase(far, teacher, ds, TrainConfig(
            phase="distill", epochs=1, batch_size=len(ds.train_idx),
            warmup_epochs=0))
        assert len(rows) == 1
        y = T.gelu(T.Tensor(np.asarray([0.5], np.float64)))
        assert y.dtype == "float64" and 0.34 < y.data[0] < 0.35
        print("ok without scipy")
    """)
    path = [os.path.dirname(os.path.dirname(distill.__file__)),
            os.path.dirname(__file__), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok without scipy"
