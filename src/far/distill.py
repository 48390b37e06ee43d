"""Block-wise distillation of FAR substitutes against the frozen teacher.

Two-phase schedule: a distillation phase where only the substitute
blocks are trainable, followed by a finetuning phase with every
parameter unfrozen and pure classification loss. The teacher and the
pruning stages train through the same loop, ``run_phase``.

Parameters are created frozen; ``freeze_plan`` is the only code that
marks a parameter trainable, per phase, and ``run_phase`` keeps them
marked only while its batch loop runs. Its per-epoch evaluation, a model
that no phase has trained (such as one returned by
``checkpoint.load_model``) and a model after training therefore build no
autodiff graph in their forward pass.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

log = logging.getLogger(__name__)

PHASES = ("teacher", "distill", "finetune", "prune-regularize", "prune-finetune")


@dataclass
class TrainConfig:
    lam: float = 1.0
    lr: float = 5e-4
    warmup_lr: float = 1e-5
    warmup_epochs: int = 2
    epochs: int = 50
    batch_size: int = 32
    weight_decay: float = 0.05
    seed: int = 0
    phase: str = "distill"

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValueError(
                f"similarity weight must be non-negative, got {self.lam}")
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be at least 1, got {self.batch_size}")


class AdamW:
    """Adaptive moments with decoupled weight decay."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, weight_decay):
        self.params = list(params)
        self.lr = lr
        self.wd = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * (g * g)
            update = (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + self.eps)
            p.data = p.data - self.lr * (update + self.wd * p.data)


def cosine_lr(epoch, cfg: TrainConfig):
    """Linear warmup then cosine decay, per epoch."""
    if epoch < cfg.warmup_epochs:
        frac = (epoch + 1) / max(1, cfg.warmup_epochs)
        return cfg.warmup_lr + frac * (cfg.lr - cfg.warmup_lr)
    span = max(1, cfg.epochs - cfg.warmup_epochs)
    prog = (epoch - cfg.warmup_epochs) / span
    return 0.5 * cfg.lr * (1.0 + math.cos(math.pi * prog))


def similarity_loss(x_teacher, x_student):
    """1 - cosine between teacher and student block outputs.

    Computed as half the squared distance of the unit-normalized
    vectors, which is algebraically identical but returns an exact zero
    when student and teacher coincide bitwise. Per-token over the
    feature axis, averaged over tokens and batch. Zero-norm tokens
    contribute a fixed loss of 1 and are excluded from the gradient. The
    target and every constant are taken at the student's dtype.
    """
    t_data = np.asarray(x_teacher.data if isinstance(x_teacher, Tensor)
                        else x_teacher, x_student.dtype)
    if t_data.shape != x_student.shape:
        raise T.ShapeError(
            f"similarity_loss shape mismatch: {t_data.shape} vs {x_student.shape}")

    tiny = 1e-30
    t_sq = (t_data * t_data).sum(axis=-1)
    s_sq = T.tsum(T.square(x_student), axis=-1)
    valid = (t_sq > tiny) & (s_sq.data > tiny)
    if not valid.all():
        log.warning("similarity_loss: %d zero-norm token(s) contribute loss 1",
                    int((~valid).sum()))
    v = valid.astype(t_data.dtype)
    # normalize both sides with the same reciprocal-multiply sequence so
    # that identical inputs cancel exactly
    s_inv = 1.0 / T.sqrt(s_sq * v + (1.0 - v))
    s_hat = x_student * T.reshape(s_inv * v, s_sq.shape + (1,))
    t_inv = 1.0 / np.sqrt(np.where(valid, t_sq, 1.0))
    t_hat = t_data * (t_inv * v)[..., None]
    per_token = T.tsum(T.square(s_hat - t_hat), axis=-1) * 0.5
    return T.mean(per_token + (1.0 - v))


def combined_loss(sims, logits, labels, lam):
    """lam * sum of per-block similarity losses + cross-entropy."""
    ce = T.cross_entropy(logits, labels)
    if lam == 0 or not sims:
        return ce
    total = sims[0]
    for s in sims[1:]:
        total = total + s
    return total * lam + ce


def freeze_plan(far_model, phase):
    """Set requires_grad per phase; returns the trainable tensor dict."""
    if phase not in PHASES:
        raise ValueError(f"unknown phase {phase!r}")
    named = far_model.named_parameters()
    trainable = far_model.far_parameters() if phase == "distill" else named
    for p in named.values():
        p.requires_grad = False
    for p in trainable.values():
        p.requires_grad = True
    return trainable


def _set_trainable(params, flag):
    for p in params.values():
        p.requires_grad = flag


def _batches(indices, batch_size, rng):
    idx = indices.copy()
    rng.shuffle(idx)
    for start in range(0, len(idx), batch_size):
        yield idx[start:start + batch_size]


def _first_nonfinite(blocks):
    """Which of a forward's block outputs first holds a nan or inf."""
    for i, b in enumerate(blocks):
        if not np.isfinite(b.data).all():
            return f"block {i} is the first with a non-finite output"
    return "every block output is finite"


def _first_nonfinite_grad(trainable):
    """The name of the first trained tensor whose gradient holds a nan or
    inf, or None."""
    for name, p in trainable.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            return name
    return None


def accuracy(model, dataset, split="train"):
    images, labels = dataset.split(split)
    if not len(labels):
        raise ValueError(f"accuracy of the {split!r} split, which is empty")
    correct = 0
    for start in range(0, len(labels), 64):
        logits, _ = model.forward(images[start:start + 64])
        correct += int((logits.data.argmax(axis=-1) ==
                        labels[start:start + 64]).sum())
    return correct / len(labels)


def train_teacher(teacher, dataset, cfg: TrainConfig, log_rows=None):
    """Plain cross-entropy training of the attention teacher."""
    cfg.phase = "teacher"
    run_phase(teacher, None, dataset, cfg, log_rows=log_rows)
    return teacher


def run_phase(far_model, teacher, dataset, cfg: TrainConfig,
              extra_loss=None, log_rows=None):
    """One training phase of ``far_model`` (a TeacherModel for the teacher
    phase) over the desk dataset.

    Every batch runs one student forward. In the distill phase with
    ``cfg.lam`` > 0, ``teacher``'s block outputs are the similarity
    targets (their values only: no gradient reaches the teacher), weighted
    by ``cfg.lam`` in ``combined_loss``; ``teacher`` is not read otherwise.
    ``extra_loss`` is an optional callable returning an additional scalar
    Tensor (used by the pruning regularization stage). Emits one metrics
    row per epoch: loss, per-block similarity (nan where none is
    computed), train accuracy.
    """
    rng = np.random.default_rng(cfg.seed)
    trainable = freeze_plan(far_model, cfg.phase)
    opt = AdamW(trainable.values(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    images, labels = dataset.split("train")
    n_layers = far_model.cfg.layers
    # the pruning stages train with classification + Hoyer terms only
    use_sim = cfg.lam > 0 and cfg.phase == "distill"
    rows = log_rows if log_rows is not None else []

    frozen_before = None
    if cfg.phase == "distill":
        frozen_before = {name: p.data.copy()
                         for name, p in far_model.named_parameters().items()
                         if name not in trainable}

    try:
        for epoch in range(cfg.epochs):
            opt.lr = cosine_lr(epoch, cfg)
            _set_trainable(trainable, True)
            epoch_loss, epoch_sims = [], []
            for batch in _batches(np.arange(len(labels)), cfg.batch_size, rng):
                imgs, labs = images[batch], labels[batch]
                s_logits, s_blocks = far_model.forward(imgs)
                sims = []
                if use_sim:
                    t_blocks = teacher.forward(imgs)[1]
                    sims = [similarity_loss(tb, sb)
                            for tb, sb in zip(t_blocks, s_blocks)]
                loss = combined_loss(sims, s_logits, labs, cfg.lam)
                if extra_loss is not None:
                    loss = loss + extra_loss()
                if not np.isfinite(loss.item()):
                    raise RuntimeError(
                        f"non-finite loss in phase {cfg.phase} epoch {epoch}"
                        f": {_first_nonfinite(s_blocks)}")
                opt.zero_grad()
                loss.backward()
                bad = _first_nonfinite_grad(trainable)
                if bad is not None:
                    raise RuntimeError(
                        f"non-finite gradient in phase {cfg.phase} epoch "
                        f"{epoch}: {bad} is the first trained tensor with one")
                opt.step()
                epoch_loss.append(loss.item())
                if sims:
                    epoch_sims.append([s.item() for s in sims])
            # evaluation runs frozen, so it builds no autodiff graph
            _set_trainable(trainable, False)
            sim_per_block = (np.mean(epoch_sims, axis=0).tolist()
                             if epoch_sims else [float("nan")] * n_layers)
            row = {"epoch": epoch, "phase": cfg.phase,
                   "loss": float(np.mean(epoch_loss)),
                   "sim_mean": (float(np.mean(sim_per_block))
                                if epoch_sims else float("nan")),
                   "acc": accuracy(far_model, dataset)}
            for i, sv in enumerate(sim_per_block):
                row[f"sim_block_{i}"] = sv
            rows.append(row)
    finally:
        _set_trainable(trainable, False)

    if frozen_before is not None:
        for name, before in frozen_before.items():
            now = far_model.named_parameters()[name].data
            if not np.array_equal(before, now):
                raise RuntimeError(f"frozen tensor {name} changed during distill")
    return rows


def metrics_to_csv(rows, path):
    """One line per epoch row under a header; the header alone when no
    epoch ran."""
    base = ("acc", "epoch", "loss", "phase", "sim_mean")
    keys = sorted({k for r in rows for k in r} | set(base),
                  key=lambda k: (k not in base, k))
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for r in rows:
            fh.write(",".join(str(r.get(k, "")) for k in keys) + "\n")
