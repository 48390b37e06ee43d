"""Block-wise distillation of FAR substitutes against the frozen teacher.

Two-phase schedule: a distillation phase where only the substitute
blocks are trainable, followed by a finetuning phase with every
parameter unfrozen and pure classification loss. The teacher and the
pruning stages train through the same loop, ``run_phase``. Its optimizer,
``AdamW``, trains the name -> Tensor table that ``freeze_plan`` returns,
and its step is one pass over all of them at once: one gather of the
gradients (every trained tensor must have one), one finiteness check, one
update. A missing or non-finite gradient names its tensor, and
``run_phase`` adds the phase and epoch.

Parameters are created frozen; ``freeze_plan`` is the only code that
marks a parameter trainable, per phase, and ``run_phase`` keeps them
marked only while its batch loop runs. Its per-epoch evaluation, a model
that no phase has trained (such as one returned by
``checkpoint.load_model``) and a model after training therefore build no
autodiff graph in their forward pass.
"""

import dataclasses
import logging
import math

import numpy as np

from . import tensor as T
from .tensor import Tensor

log = logging.getLogger(__name__)

PHASES = ("teacher", "distill", "finetune", "prune-regularize", "prune-finetune")


@dataclasses.dataclass
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
        """A ValueError naming the field unless ``batch_size`` is at least
        1, every other number at least 0 (the least values the run config
        allows) and every float finite."""
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be at least 1, got {self.batch_size}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type is float and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and non-negative, "
                                 f"got {value}")
            if f.type is int and value < 0:
                raise ValueError(f"{f.name} must be non-negative, got {value}")


class AdamW:
    """Adaptive moments with decoupled weight decay, in one pass over every
    tensor of ``named``, the name -> Tensor table it trains (as
    ``freeze_plan`` returns it).

    The tensors share one dtype, and ``m`` and ``v`` are one flat buffer
    each, in the order of ``named``. ``step`` gathers every gradient and
    weight into one flat array each, runs the update over them,
    elementwise the per-tensor rule bit for bit, and rebinds each tensor to
    its view of the new flat weights. The weights are gathered afresh on
    every step, so a tensor rebound or zeroed in place between steps is
    read as it is then.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named, lr, weight_decay):
        self.named = dict(named)
        self.lr = lr
        self.wd = weight_decay
        self.t = 0
        params = self.named.values()
        dtypes = sorted({str(p.data.dtype) for p in params})
        if len(dtypes) > 1:
            raise TypeError(f"AdamW trains tensors of one dtype, got {dtypes}")
        self._shapes = [p.data.shape for p in params]
        self._ends = np.cumsum([0] + [p.data.size for p in params]).tolist()
        # m, v, then the gathered gradient and a scratch buffer of each
        # step; the moments are only ever written in place
        self.m, self.v, self._g, self._tmp = np.zeros(
            (4, self._ends[-1]), dtypes[0] if dtypes else np.float64)

    def zero_grad(self):
        for p in self.named.values():
            p.grad = None

    def step(self):
        """Update every tensor. A tensor whose ``grad`` is None raises
        ValueError, and a nan or inf in any gradient FloatingPointError,
        both naming the first such tensor before anything moves."""
        grads = [p.grad for p in self.named.values()]
        for name, gi in zip(self.named, grads):
            if gi is None:
                raise ValueError(f"trained tensor {name} has no gradient")
        g = np.concatenate(grads, axis=None, out=self._g)
        if not np.isfinite(g).all():
            bad = next(name for name, gi in zip(self.named, grads)
                       if not np.isfinite(gi).all())
            raise FloatingPointError(
                f"trained tensor {bad} is the first with a non-finite "
                f"gradient")
        self.t += 1
        w = np.concatenate([p.data for p in self.named.values()], axis=None)
        m, v, tmp = self.m, self.v, self._tmp
        # m = b1 m + (1-b1) g, v = b2 v + (1-b2) g^2 and
        # w -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd w), each product
        # and sum rounded as the per-tensor rule rounds it; only w is new
        np.multiply(g, 1 - self.b1, out=tmp)
        m *= self.b1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1 - self.b2
        v *= self.b2
        v += tmp
        np.divide(v, 1.0 - self.b2 ** self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        step = np.divide(m, 1.0 - self.b1 ** self.t, out=g)
        step /= tmp
        np.multiply(w, self.wd, out=tmp)
        step += tmp
        step *= self.lr
        w -= step
        for p, a, b, shape in zip(self.named.values(), self._ends,
                                  self._ends[1:], self._shapes):
            p.data = w[a:b].reshape(shape)


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
    trainable = far_model.mixer_parameters() if phase == "distill" else named
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


def train_teacher(teacher, dataset, cfg: TrainConfig):
    """``run_phase`` of the attention teacher, in the teacher phase."""
    return run_phase(teacher, None, dataset,
                     dataclasses.replace(cfg, phase="teacher"))


def run_phase(far_model, teacher, dataset, cfg: TrainConfig,
              extra_loss=None):
    """One training phase of ``far_model`` (a TeacherModel for the teacher
    phase) over the desk dataset.

    Every batch runs one student forward. In the distill phase with
    ``cfg.lam`` > 0, ``teacher``'s block outputs are the similarity
    targets (their values only: no gradient reaches the teacher), weighted
    by ``cfg.lam`` in ``combined_loss``; ``teacher`` is not read otherwise.
    ``extra_loss`` is an optional callable returning an additional scalar
    Tensor (used by the pruning regularization stage). Returns one metrics
    row per epoch: loss, per-block similarity (nan where none is
    computed), train accuracy.
    """
    rng = np.random.default_rng(cfg.seed)
    trainable = freeze_plan(far_model, cfg.phase)
    opt = AdamW(trainable, lr=cfg.lr, weight_decay=cfg.weight_decay)
    images, labels = dataset.split("train")
    n_layers = far_model.cfg.layers
    # the pruning stages train with classification + Hoyer terms only
    use_sim = cfg.lam > 0 and cfg.phase == "distill"
    rows = []

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
                try:
                    opt.step()
                except FloatingPointError as err:
                    raise RuntimeError(
                        f"phase {cfg.phase} epoch {epoch}: {err}") from None
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
        named = far_model.named_parameters()
        for name, before in frozen_before.items():
            if not np.array_equal(before, named[name].data):
                raise RuntimeError(f"frozen tensor {name} changed during distill")
    return rows
