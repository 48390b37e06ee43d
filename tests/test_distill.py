import re

import numpy as np
import pytest

from far import tensor as T
from far.tensor import Tensor
from far.vit import TeacherModel
from far.far_block import coupled, replace_attention
from far.pruner import hoyer_penalty_total, prune_by_threshold, shrink_model
from far.data import synth_dataset
from far.distill import (PHASES, AdamW, TrainConfig, accuracy, combined_loss,
                         cosine_lr, freeze_plan, run_phase, similarity_loss,
                         train_teacher)

from conftest import desk_config


def test_similarity_identical_is_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 5, 8))
    loss = similarity_loss(x, Tensor(x.copy(), requires_grad=True))
    assert abs(loss.item()) <= 1e-12


def test_similarity_antipodal_is_two():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 8))
    loss = similarity_loss(x, Tensor(-x))
    np.testing.assert_allclose(loss.item(), 2.0, atol=1e-12)


def test_similarity_orthogonal_is_exactly_one():
    t = np.zeros((3, 4))
    s = np.zeros((3, 4))
    t[:, 0] = 1.0
    s[:, 1] = 1.0
    assert similarity_loss(t, Tensor(s)).item() == 1.0


def test_similarity_zero_norm_token_contributes_one(caplog):
    t = np.zeros((2, 4))
    t[0, 0] = 1.0  # token 1 of the teacher is all-zero
    s = np.ones((2, 4))
    with caplog.at_level("WARNING"):
        loss = similarity_loss(t, Tensor(s, requires_grad=True))
    # token 0: cos=0.5, token 1: forced loss 1
    np.testing.assert_allclose(loss.item(), ((1 - 0.5) + 1.0) / 2, atol=1e-12)
    assert any("zero-norm" in r.message for r in caplog.records)


def test_similarity_shape_mismatch():
    with pytest.raises(T.ShapeError):
        similarity_loss(np.zeros((2, 3)), Tensor(np.zeros((3, 2))))


def test_similarity_gradient_fd():
    rng = np.random.default_rng(2)
    t = rng.normal(size=(4, 6))

    def fn(s):
        return similarity_loss(t, s)

    s0 = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    loss = fn(s0)
    loss.backward()
    flat = s0.data.ravel()
    an = s0.grad.ravel()
    for i in rng.choice(24, size=8, replace=False):
        h = 1e-6
        orig = flat[i]
        flat[i] = orig + h
        lp = fn(Tensor(s0.data)).item()
        flat[i] = orig - h
        lm = fn(Tensor(s0.data)).item()
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(an[i] - fd) / max(1.0, abs(an[i])) <= 1e-6


def test_combined_loss_lambda_zero_is_pure_ce():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(2, 4)))
    labels = [0, 3]
    sims = [Tensor(0.4), Tensor(0.6)]
    total = combined_loss(sims, logits, labels, lam=0.0)
    ce = T.cross_entropy(logits, labels)
    assert total.item() == ce.item()


def test_combined_loss_perfect_is_zero():
    logits = Tensor([[80.0, 0.0]])
    loss = combined_loss([Tensor(0.0)], logits, [0], lam=1.0)
    assert loss.item() <= 1e-20


def test_combined_loss_arithmetic():
    logits = Tensor([[0.0, 0.0]])
    # CE = ln 2 ~ 0.693; use explicit CE to build the expected 1.0 case
    sims = [Tensor(0.1), Tensor(0.2)]
    ce = T.cross_entropy(logits, [0]).item()
    total = combined_loss(sims, logits, [0], lam=1.0).item()
    np.testing.assert_allclose(total, 0.3 + ce, atol=1e-12)


def test_combined_loss_linear_in_lambda():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(3, 5)))
    labels = [1, 2, 0]
    sims = [Tensor(0.25), Tensor(0.5)]
    l0 = combined_loss(sims, logits, labels, 0.0).item()
    for lam in (0.5, 1.0, 2.0):
        ll = combined_loss(sims, logits, labels, lam).item()
        np.testing.assert_allclose(ll - l0, lam * 0.75, atol=1e-9)


def test_freeze_plan_distill_only_far_trainable(desk_cfg):
    teacher = TeacherModel(desk_cfg, seed=0)
    far = replace_attention(teacher, seed=0)
    trainable = freeze_plan(far, "distill")
    assert all(n.startswith("far.") for n in trainable)
    rng = np.random.default_rng(0)
    img = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
    logits, _ = far.forward(img)
    T.cross_entropy(logits, [0]).backward()
    assert teacher.mlps[0].fc1_w.grad is None
    assert far.blocks[0].in_w.grad is not None


def test_freeze_plan_finetune_everything_trainable(desk_cfg):
    teacher = TeacherModel(desk_cfg, seed=1)
    far = replace_attention(teacher, seed=1)
    freeze_plan(far, "finetune")
    rng = np.random.default_rng(1)
    img = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
    logits, _ = far.forward(img)
    T.cross_entropy(logits, [0]).backward()
    for name, p in far.named_parameters().items():
        assert p.grad is not None, name


def test_freeze_plan_is_metadata_only(desk_cfg):
    teacher = TeacherModel(desk_cfg, seed=2)
    far = replace_attention(teacher, seed=2)
    before = {n: p.data.copy() for n, p in far.named_parameters().items()}
    freeze_plan(far, "distill")
    freeze_plan(far, "finetune")
    freeze_plan(far, "prune-regularize")
    for n, p in far.named_parameters().items():
        assert np.array_equal(before[n], p.data)


def test_freeze_plan_rejects_unknown_phase(desk_cfg):
    far = replace_attention(TeacherModel(desk_cfg, seed=3), seed=3)
    with pytest.raises(ValueError):
        freeze_plan(far, "warmup")


def test_accuracy_of_an_empty_split_names_it(desk_cfg):
    ds = synth_dataset(0, 10, 10, 32)  # one image per class: no val image
    assert len(ds.val_idx) == 0
    teacher = TeacherModel(desk_cfg, seed=3)
    with pytest.raises(ValueError, match="'val' split, which is empty"):
        accuracy(teacher, ds, "val")
    assert 0.0 <= accuracy(teacher, ds, "train") <= 1.0


def test_teacher_detached_in_similarity(desk_cfg):
    teacher = TeacherModel(desk_cfg, seed=4)
    far = replace_attention(teacher, seed=4)
    freeze_plan(far, "finetune")  # teacher params would get grads if leaked
    rng = np.random.default_rng(4)
    img = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
    _, t_blocks = teacher.forward(img)
    _, s_blocks = far.forward(img)
    loss = similarity_loss(t_blocks[0], s_blocks[0])
    for p in far.named_parameters().values():
        p.grad = None
    loss.backward()
    # gradient reached the substitute but not via the teacher branch:
    # teacher-only params (qkv) are not even in the graph
    assert teacher.layers[0].qkv_w.grad is None


def test_oracle_injection_gives_zero_similarity(desk_cfg):
    """Student outputs replaced by exact teacher outputs -> sum sim == 0."""
    teacher = TeacherModel(desk_cfg, seed=5)
    rng = np.random.default_rng(5)
    img = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
    _, t_blocks = teacher.forward(img)
    total = 0.0
    for tb in t_blocks:
        total += similarity_loss(tb, Tensor(tb.data.copy())).item()
    assert abs(total) <= 1e-12


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lam=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(phase="nope")
    with pytest.raises(ValueError, match="non-negative, got nan"):
        TrainConfig(lam=float("nan"))


@pytest.mark.parametrize("field,value,rule", [
    ("seed", -1, "non-negative"),
    ("batch_size", 0, "at least 1"),
    ("batch_size", -4, "at least 1"),
    ("epochs", -1, "non-negative"),
    ("warmup_epochs", -2, "non-negative"),
    ("lr", float("nan"), "finite and non-negative"),
    ("lr", -1.0, "finite and non-negative"),
    ("weight_decay", -0.1, "finite and non-negative"),
    ("warmup_lr", float("inf"), "finite and non-negative"),
    ("lam", float("inf"), "finite and non-negative"),
])
def test_train_config_rejects_bad_seed_and_batch_size(field, value, rule):
    """A bad seed, batch size, epoch count, rate or weight fails on
    construction, naming the field, with the least values the run config
    allows: not inside numpy or range() once a phase runs, nor as a
    non-finite loss."""
    with pytest.raises(ValueError, match=f"{field} must be {rule}, got {value}"):
        TrainConfig(**{field: value})


def test_cosine_lr_shape():
    cfg = TrainConfig(lr=1e-3, warmup_lr=1e-5, warmup_epochs=3, epochs=20)
    lrs = [cosine_lr(e, cfg) for e in range(20)]
    assert lrs[0] < lrs[1] < lrs[2]          # warmup climbs
    assert abs(lrs[2] - 1e-3) < 1e-12        # reaches base lr
    assert all(a >= b for a, b in zip(lrs[2:], lrs[3:]))  # then decays


def test_run_phase_smoke_and_lazy_teacher(desk_cfg, monkeypatch):
    ds = synth_dataset(6, 64, 10, 32)
    teacher = TeacherModel(desk_cfg, seed=6)
    far = replace_attention(teacher, seed=6)
    calls = []
    forward = teacher.forward

    def counting(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(teacher, "forward", counting)
    cfg = TrainConfig(phase="distill", lam=0.0, lr=1e-4, epochs=1,
                      batch_size=32, seed=6, warmup_epochs=0)
    rows = run_phase(far, teacher, ds, cfg)
    assert len(rows) == 1
    assert np.isfinite(rows[0]["loss"])
    assert np.isfinite(rows[0]["acc"])
    # lam=0 must never run the teacher
    assert calls == []


def test_run_phase_distill_freezes_shared_weights(desk_cfg):
    ds = synth_dataset(7, 40, 10, 32)
    teacher = TeacherModel(desk_cfg, seed=7)
    far = replace_attention(teacher, seed=7)
    frozen = {n: p.data.copy() for n, p in teacher.named_parameters().items()
              if ".qkv_" not in n and ".proj_" not in n and ".ln1_" not in n}
    cfg = TrainConfig(phase="distill", lam=1.0, lr=5e-4, epochs=2,
                      batch_size=20, seed=7, warmup_epochs=0)
    run_phase(far, teacher, ds, cfg)
    for n, before in frozen.items():
        assert np.array_equal(before, teacher.named_parameters()[n].data), n


def test_run_phase_evaluates_frozen_and_leaves_nothing_trainable(
        desk_cfg, monkeypatch):
    from far import distill
    ds = synth_dataset(9, 40, 10, 32)
    teacher = TeacherModel(desk_cfg, seed=9)
    far = replace_attention(teacher, seed=9)
    nodes, in_accuracy, counts = [0], [False], []
    make, evaluate = T._make, distill.accuracy

    def counting_make(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        nodes[0] += in_accuracy[0] and out._backward_fn is not None
        return out

    def counting_accuracy(model, dataset, split="train"):
        in_accuracy[0], nodes[0] = True, 0
        try:
            return evaluate(model, dataset, split)
        finally:
            in_accuracy[0] = False
            counts.append(nodes[0])

    monkeypatch.setattr(T, "_make", counting_make)
    monkeypatch.setattr(distill, "accuracy", counting_accuracy)
    run_phase(far, teacher, ds, TrainConfig(
        phase="finetune", lr=1e-4, epochs=2, batch_size=20, seed=9,
        warmup_epochs=0))
    assert counts == [0, 0]
    assert not any(p.requires_grad for p in far.named_parameters().values())
    assert not any(p.requires_grad
                   for p in teacher.named_parameters().values())


def test_run_phase_leaves_nothing_trainable_when_it_raises(desk_cfg):
    ds = synth_dataset(10, 40, 10, 32)
    teacher = TeacherModel(desk_cfg, seed=10)
    far = replace_attention(teacher, seed=10)

    def diverge():
        return T.Tensor(np.inf)

    with pytest.raises(RuntimeError, match="non-finite loss"):
        run_phase(far, teacher, ds, TrainConfig(
            phase="finetune", lr=1e-4, epochs=1, batch_size=20, seed=10,
            warmup_epochs=0), extra_loss=diverge)
    assert not any(p.requires_grad for p in far.named_parameters().values())


@pytest.mark.parametrize("phase", ["distill", "finetune"])
def test_non_finite_loss_names_the_first_non_finite_block(desk_cfg, phase):
    ds = synth_dataset(11, 40, 10, 32)
    teacher = TeacherModel(desk_cfg, seed=11)
    far = replace_attention(teacher, seed=11)
    far.blocks[2].in_w.data[0, 0] = np.nan
    cfg = TrainConfig(phase=phase, lr=1e-4, epochs=1, batch_size=20, seed=11,
                      warmup_epochs=0)
    with pytest.raises(RuntimeError, match=r"epoch 0: block 2 is the first "
                       r"with a non-finite output"):
        run_phase(far, teacher, ds, cfg)
    far.blocks[2].in_w.data[0, 0] = 0.0
    with pytest.raises(RuntimeError, match="every block output is finite"):
        run_phase(far, teacher, ds, cfg, extra_loss=lambda: T.Tensor(np.nan))


@pytest.mark.parametrize("phase", ["distill", "finetune"])
def test_non_finite_gradient_names_the_tensor_before_the_step(desk_cfg,
                                                              phase):
    ds = synth_dataset(12, 40, 10, 32)
    teacher = TeacherModel(desk_cfg, seed=12)
    far = replace_attention(teacher, seed=12)
    in_b = far.blocks[1].in_b
    assert not in_b.data.any()
    before = {n: p.data.copy() for n, p in far.named_parameters().items()}

    def norm_at_zero():  # the norm of a zero vector is 0; its slope is not
        return T.sqrt(T.tsum(T.square(in_b)))

    cfg = TrainConfig(phase=phase, lr=1e-4, epochs=1, batch_size=20, seed=12,
                      warmup_epochs=0)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            RuntimeError, match=rf"phase {phase} epoch 0: trained tensor "
            r"far\.1\.in_b is the first with a non-finite gradient"):
        run_phase(far, teacher, ds, cfg, extra_loss=norm_at_zero)
    for n, p in far.named_parameters().items():  # no step was taken
        np.testing.assert_array_equal(p.data, before[n], err_msg=n)
    assert not any(p.requires_grad for p in far.named_parameters().values())


def test_train_teacher_logs_run_phase_columns(desk_cfg):
    ds = synth_dataset(8, 40, 10, 32)
    teacher = TeacherModel(desk_cfg, seed=8)
    # no phase given: the teacher phase is train_teacher's own
    rows = train_teacher(teacher, ds, TrainConfig(
        lr=1e-3, epochs=1, batch_size=20, seed=8, warmup_epochs=0))
    far_rows = run_phase(replace_attention(teacher, seed=8), teacher, ds,
                         TrainConfig(phase="finetune", lr=1e-4, epochs=1,
                                     batch_size=20, seed=8, warmup_epochs=0))
    assert len(rows) == 1 and rows[0].keys() == far_rows[0].keys()
    assert rows[0]["phase"] == "teacher"
    assert np.isnan([rows[0]["sim_mean"]] + [
        rows[0][f"sim_block_{i}"] for i in range(desk_cfg.layers)]).all()


def test_adamw_moves_toward_minimum():
    w = Tensor(np.array([5.0]), requires_grad=True)
    opt = AdamW({"w": w}, lr=0.1, weight_decay=0.0)
    for _ in range(200):
        loss = T.tsum(T.square(w))
        opt.zero_grad()
        loss.backward()
        opt.step()
    assert abs(w.data[0]) < 0.05




def _per_tensor_adamw(params, grads, state, lr, wd):
    """One step of the per-tensor AdamW rule, the oracle of the flat one:
    ``state`` holds t and each tensor's m and v."""
    b1, b2, eps = AdamW.b1, AdamW.b2, AdamW.eps
    state["t"] += 1
    bc1 = 1.0 - b1 ** state["t"]
    bc2 = 1.0 - b2 ** state["t"]
    for i, (p, g) in enumerate(zip(params, grads)):
        m, v = state["m"][i], state["v"][i]
        state["m"][i] = m = b1 * m + (1 - b1) * g
        state["v"][i] = v = b2 * v + (1 - b2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        p.data = p.data - lr * (update + wd * p.data)


def _two_copies(precision, seed):
    """The tensor tables of two identical desk FAR models."""
    return [replace_attention(TeacherModel(desk_config(precision), seed=seed),
                              seed=seed).named_parameters()
            for _ in range(2)]


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_flat_adamw_is_the_per_tensor_rule_bit_for_bit(precision):
    """Over 6 steps with weight decay: weights and moments equal the
    per-tensor rule's, each tensor's moments a slice of the flat ones."""
    named, ref = _two_copies(precision, seed=60)
    flat, ref = list(named.values()), list(ref.values())
    rng = np.random.default_rng(60)
    opt = AdamW(named, lr=3e-3, weight_decay=0.05)
    state = {"t": 0, "m": [np.zeros_like(p.data) for p in ref],
             "v": [np.zeros_like(p.data) for p in ref]}
    ends = np.cumsum([0] + [p.data.size for p in flat])
    assert opt.m.shape == opt.v.shape == (ends[-1],)
    for _ in range(6):
        grads = [rng.normal(size=p.shape).astype(p.dtype) for p in flat]
        for p, g in zip(flat, grads):
            p.grad = g
        opt.step()
        _per_tensor_adamw(ref, grads, state, 3e-3, 0.05)
        for a, b, m, v, start, end in zip(flat, ref, state["m"], state["v"],
                                          ends, ends[1:]):
            assert a.data.dtype == b.data.dtype
            np.testing.assert_array_equal(a.data, b.data)
            np.testing.assert_array_equal(opt.m[start:end], m.ravel())
            np.testing.assert_array_equal(opt.v[start:end], v.ravel())


def test_adamw_step_without_a_gradient_raises_and_moves_nothing():
    """A trained tensor with no gradient is a ValueError naming it, and
    the weights, moments and step count stay as they were."""
    named, _ = _two_copies("f32", seed=63)
    flat = list(named.values())
    rng = np.random.default_rng(63)
    opt = AdamW(named, lr=1e-2, weight_decay=0.05)
    for _ in range(2):
        for p in flat:
            p.grad = rng.normal(size=p.shape).astype(p.dtype)
        opt.step()
    weights = [p.data.copy() for p in flat]
    m, v = opt.m.copy(), opt.v.copy()
    flat[40].grad = None
    with pytest.raises(ValueError, match=rf"trained tensor "
                       rf"{re.escape(list(named)[40])} has no gradient"):
        opt.step()
    assert opt.t == 2
    for p, before in zip(flat, weights):
        np.testing.assert_array_equal(p.data, before)
    np.testing.assert_array_equal(opt.m, m)
    np.testing.assert_array_equal(opt.v, v)


@pytest.mark.parametrize("phase", PHASES)
def test_every_trained_tensor_has_a_gradient_at_the_step(monkeypatch, phase):
    """In one batch of every phase, each tensor ``AdamW.step`` trains holds
    a gradient when it runs; the pruning phases train a shrunk model with
    a scan that has no live unit."""
    seen, step = [], AdamW.step

    def spy(opt):
        seen.append([p.grad is not None for p in opt.named.values()])
        step(opt)

    monkeypatch.setattr(AdamW, "step", spy)
    teacher = TeacherModel(desk_config(), seed=64)
    far = replace_attention(teacher, seed=64)
    model, extra = far, None
    if phase == "teacher":
        model = teacher
    elif phase.startswith("prune"):
        blk, p = far.blocks[0], far.blocks[0].scans[1]
        rows, cols, out_rows = coupled(blk, 1, np.arange(p.hidden))
        for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
            t.data[rows] = 0.0
        p.w_hh.data[:, cols] = 0.0
        blk.out_w.data[out_rows] = 0.0
        prune_by_threshold(far, 0.9, mode="relative")
        far.blocks = shrink_model(far).blocks
        assert far.blocks[0].scans[1].hidden == 1
        if phase == "prune-regularize":
            def extra():
                return hoyer_penalty_total(far) * 1e-4
    ds = synth_dataset(64, 20, 10, 32)
    run_phase(model, teacher, ds, TrainConfig(
        phase=phase, epochs=1, batch_size=len(ds.train_idx),
        warmup_epochs=0), extra_loss=extra)
    trained = (far.mixer_parameters() if phase == "distill"
               else model.named_parameters())
    assert seen == [[True] * len(trained)]


def test_flat_adamw_reads_a_rebound_tensor_afresh():
    """A tensor rebound (as a restore does) or zeroed in place (as pruning
    does) between steps steps from its new value, and no array the step
    did not make is written."""
    named, ref = _two_copies("f32", seed=61)
    flat, ref = list(named.values()), list(ref.values())
    rng = np.random.default_rng(61)
    opt = AdamW(named, lr=1e-2, weight_decay=0.05)
    state = {"t": 0, "m": [np.zeros_like(p.data) for p in ref],
             "v": [np.zeros_like(p.data) for p in ref]}
    for step in range(4):
        if step == 2:
            new = rng.normal(size=flat[5].shape).astype(np.float32)
            flat[5].data, ref[5].data = new, new.copy()
            flat[7].data[0] = ref[7].data[0] = 0.0
        held = flat[5].data
        before = held.copy()
        grads = [rng.normal(size=p.shape).astype(np.float32) for p in flat]
        for p, g in zip(flat, grads):
            p.grad = g
        opt.step()
        _per_tensor_adamw(ref, grads, state, 1e-2, 0.05)
        np.testing.assert_array_equal(held, before)
        for a, b in zip(flat, ref):
            np.testing.assert_array_equal(a.data, b.data)


def test_adamw_names_mixed_dtypes():
    with pytest.raises(TypeError, match="one dtype"):
        AdamW({"a": Tensor(np.zeros(2, np.float32)),
               "b": Tensor(np.zeros(2))}, lr=0.1, weight_decay=0.0)
