"""DeiT-style vision transformer teacher.

Pre-norm residual wiring: y = x + Attn(LN1(x)); x_next = y + MLP(LN2(y)).
The forward pass records every block output so substitute blocks can be
supervised against them.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, ShapeError


@dataclass
class ModelConfig:
    """Architectural hyperparameters shared by teacher and FAR variants."""
    layers: int = 12
    dim: int = 192
    heads: int = 3
    head_dim: int = 64
    mlp_ratio: int = 4
    patch_size: int = 16
    image_size: int = 224
    num_classes: int = 1000
    channels: int = 3
    precision: str = "f32"

    def __post_init__(self):
        if self.image_size % self.patch_size != 0:
            raise ShapeError(
                f"patch size {self.patch_size} does not divide image size "
                f"{self.image_size}")

    @property
    def grid(self):
        return self.image_size // self.patch_size

    @property
    def tokens(self):
        return self.grid * self.grid + 1

    def validate_teacher(self):
        if self.dim != self.heads * self.head_dim:
            raise ShapeError(
                f"teacher requires dim == heads * head_dim, got "
                f"{self.dim} != {self.heads} * {self.head_dim}")


@dataclass
class AttentionLayerParams:
    ln1_g: Tensor
    ln1_b: Tensor
    qkv_w: Tensor  # (D, 3D)
    qkv_b: Tensor
    proj_w: Tensor  # (D, D)
    proj_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    fc1_w: Tensor  # (D, mlp_ratio*D)
    fc1_b: Tensor
    fc2_w: Tensor  # (mlp_ratio*D, D)
    fc2_b: Tensor

    def named(self, prefix):
        return {f"{prefix}.{k}": getattr(self, k) for k in
                ("ln1_g", "ln1_b", "qkv_w", "qkv_b", "proj_w", "proj_b",
                 "ln2_g", "ln2_b", "fc1_w", "fc1_b", "fc2_w", "fc2_b")}


def _init_layer(cfg, rng):
    d, r = cfg.dim, cfg.mlp_ratio
    p = cfg.precision
    return AttentionLayerParams(
        ln1_g=T.ones(d, p, True), ln1_b=T.zeros(d, p, True),
        qkv_w=T.trunc_normal(rng, (d, 3 * d), dtype=p),
        qkv_b=T.zeros(3 * d, p, True),
        proj_w=T.trunc_normal(rng, (d, d), dtype=p),
        proj_b=T.zeros(d, p, True),
        ln2_g=T.ones(d, p, True), ln2_b=T.zeros(d, p, True),
        fc1_w=T.trunc_normal(rng, (d, r * d), dtype=p),
        fc1_b=T.zeros(r * d, p, True),
        fc2_w=T.trunc_normal(rng, (r * d, d), dtype=p),
        fc2_b=T.zeros(d, p, True),
    )


class TeacherModel:
    """Patch embedding + CLS token + L pre-norm attention layers + head."""

    def __init__(self, cfg: ModelConfig, seed=0):
        cfg.validate_teacher()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        d, p = cfg.dim, cfg.precision
        in_dim = cfg.channels * cfg.patch_size ** 2
        self.patch_w = T.trunc_normal(rng, (in_dim, d), dtype=p)
        self.patch_b = T.zeros(d, p, True)
        self.cls = T.trunc_normal(rng, (d,), dtype=p)
        self.pos = T.trunc_normal(rng, (cfg.tokens, d), dtype=p)
        self.layers = [_init_layer(cfg, rng) for _ in range(cfg.layers)]
        self.ln_f_g = T.ones(d, p, True)
        self.ln_f_b = T.zeros(d, p, True)
        self.head_w = T.trunc_normal(rng, (d, cfg.num_classes), dtype=p)
        self.head_b = T.zeros(cfg.num_classes, p, True)
        self.forward_count = 0

    # -- parameter registry ---------------------------------------------------

    def named_parameters(self):
        out = {"embed.patch_w": self.patch_w, "embed.patch_b": self.patch_b,
               "embed.cls": self.cls, "embed.pos": self.pos}
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"layer.{i}"))
        out.update({"final.ln_g": self.ln_f_g, "final.ln_b": self.ln_f_b,
                    "final.head_w": self.head_w, "final.head_b": self.head_b})
        return out

    def parameters(self):
        return list(self.named_parameters().values())

    # -- forward pieces ---------------------------------------------------------

    def patch_embed(self, image):
        """(B,C,H,W) or (C,H,W) images -> (B,T,D) token embeddings."""
        img = np.asarray(image.data if isinstance(image, Tensor) else image)
        if img.ndim == 3:
            img = img[None]
        cfg = self.cfg
        b, c, h, w = img.shape
        if (c, h, w) != (cfg.channels, cfg.image_size, cfg.image_size):
            raise ShapeError(
                f"image shape {(c, h, w)} does not match config "
                f"{(cfg.channels, cfg.image_size, cfg.image_size)}")
        ps, g = cfg.patch_size, cfg.grid
        patches = img.reshape(b, c, g, ps, g, ps).transpose(0, 2, 4, 1, 3, 5)
        patches = patches.reshape(b, g * g, c * ps * ps)
        patches = patches.astype(self.patch_w.data.dtype)
        tok = T.matmul(Tensor(patches), self.patch_w) + self.patch_b
        cls = T.reshape(self.cls, (1, 1, cfg.dim)) + T.zeros(
            (b, 1, cfg.dim), cfg.precision)
        x = T.concat([cls, tok], axis=1)
        return x + self.pos

    def attention_block(self, x, layer):
        """Residual multi-head self-attention; also returns attn weights."""
        cfg = self.cfg
        b, t, d = x.shape
        n, dh = cfg.heads, cfg.head_dim
        h = T.layer_norm(x, layer.ln1_g, layer.ln1_b)
        qkv = T.matmul(h, layer.qkv_w) + layer.qkv_b
        q, k, v = T.split(qkv, 3, axis=-1)
        q = T.transpose(T.reshape(q, (b, t, n, dh)), (0, 2, 1, 3))
        k = T.transpose(T.reshape(k, (b, t, n, dh)), (0, 2, 1, 3))
        v = T.transpose(T.reshape(v, (b, t, n, dh)), (0, 2, 1, 3))
        scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
        attn = T.softmax(scores, axis=-1)
        out = T.matmul(attn, v)
        out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, t, d))
        y = x + (T.matmul(out, layer.proj_w) + layer.proj_b)
        return y, attn

    def mlp_block(self, y, layer):
        h = T.layer_norm(y, layer.ln2_g, layer.ln2_b)
        h = T.gelu(T.matmul(h, layer.fc1_w) + layer.fc1_b)
        return y + (T.matmul(h, layer.fc2_w) + layer.fc2_b)

    def classify(self, x):
        h = T.layer_norm(x, self.ln_f_g, self.ln_f_b)
        cls = h[:, 0, :]
        return T.matmul(cls, self.head_w) + self.head_b

    def forward(self, image, collect_attn=False):
        """Returns (logits, block_outputs[, attn_maps])."""
        self.forward_count += 1
        x = self.patch_embed(image)
        blocks, attns = [], []
        for layer in self.layers:
            y, attn = self.attention_block(x, layer)
            x = self.mlp_block(y, layer)
            blocks.append(x)
            if collect_attn:
                attns.append(attn)
        logits = self.classify(x)
        if collect_attn:
            return logits, blocks, attns
        return logits, blocks


def teacher_forward(model, image):
    """Convenience wrapper matching the (logits, block_outputs) contract."""
    return model.forward(image)
