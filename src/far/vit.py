"""DeiT-style vision transformer teacher and the backbone its FAR substitute
copies.

A model is a backbone (patch embedding, CLS token and positions, the
per-layer MLP sublayers, the final norm and the head) plus a token mixer
per layer: y = x + Mixer(x); x_next = y + MLP(LN2(y)). ``Backbone`` runs
that layer loop for every model, which supplies only ``mix`` and
``mixer_parameters``; the forward pass records every block output so
substitute blocks can be supervised against the teacher's. The teacher's
mixer is pre-norm self-attention. Every model is built from a table
mapping tensor names to arrays or Tensors, and owns a copy of each
(``take``): no two models hold one Tensor. In a model each Tensor has one
holder, which the forward reads; ``named_parameters()`` builds the table
from the holders on every call, so a rebound tensor is the one saved.
"""

from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import tensor as T
from .tensor import Tensor, ShapeError

ATTENTION = ("ln1_g", "ln1_b", "qkv_w", "qkv_b", "proj_w", "proj_b")
MLP = ("ln2_g", "ln2_b", "fc1_w", "fc1_b", "fc2_w", "fc2_b")
EMBED = ("patch_w", "patch_b", "cls", "pos")
FINAL = ("ln_g", "ln_b", "head_w", "head_b")


@dataclass
class ModelConfig:
    """Architectural hyperparameters shared by teacher and FAR variants.
    The fields are the run config's ``[model]`` keys and their defaults
    its defaults: the desk model (``config.SCHEMA`` reads them here)."""
    layers: int = 4
    dim: int = 32
    heads: int = 2
    head_dim: int = 16
    mlp_ratio: int = 4
    patch_size: int = 8
    image_size: int = 32
    num_classes: int = 10
    channels: int = 3
    precision: str = "f32"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int and value <= 0:
                raise ShapeError(f"{f.name} must be positive, got {value}")
        if self.precision not in T.DTYPES:
            raise ValueError(f"precision must be one of "
                             f"{', '.join(T.DTYPES)}, got {self.precision!r}")
        if self.image_size % self.patch_size != 0:
            raise ShapeError(
                f"patch size {self.patch_size} does not divide image size "
                f"{self.image_size}")
        if self.dim != self.heads * self.head_dim:
            raise ShapeError(
                f"a model requires dim == heads * head_dim, got "
                f"{self.dim} != {self.heads} * {self.head_dim}")

    @property
    def grid(self):
        return self.image_size // self.patch_size

    @property
    def tokens(self):
        return self.grid * self.grid + 1


def tensor_shapes(cfg, attention=True):
    """name -> shape of every teacher tensor, in the order the teacher's
    random init draws them; without ``attention``, of the backbone only."""
    d, r = cfg.dim, cfg.mlp_ratio
    layer = {"ln1_g": (d,), "ln1_b": (d,), "qkv_w": (d, 3 * d),
             "qkv_b": (3 * d,), "proj_w": (d, d), "proj_b": (d,),
             "ln2_g": (d,), "ln2_b": (d,), "fc1_w": (d, r * d),
             "fc1_b": (r * d,), "fc2_w": (r * d, d), "fc2_b": (d,)}
    keys = ATTENTION + MLP if attention else MLP
    shapes = {"embed.patch_w": (cfg.channels * cfg.patch_size ** 2, d),
              "embed.patch_b": (d,), "embed.cls": (d,),
              "embed.pos": (cfg.tokens, d)}
    for i in range(cfg.layers):
        shapes.update({f"layer.{i}.{k}": layer[k] for k in keys})
    shapes.update({"final.ln_g": (d,), "final.ln_b": (d,),
                   "final.head_w": (d, cfg.num_classes),
                   "final.head_b": (cfg.num_classes,)})
    return shapes


def take(tensors, name, shape, precision):
    """A copy of ``tensors[name]`` (an array or a Tensor's data) as a Tensor
    of ``shape`` at ``precision`` (``f32`` or ``f64``). A missing tensor or
    one of another shape is a ShapeError naming it."""
    if name not in tensors:
        raise ShapeError(f"missing tensor {name}")
    t = tensors[name]
    t = Tensor(np.array(t.data if isinstance(t, Tensor) else t,
                        dtype=T.DTYPES[precision]))
    if t.shape != tuple(shape):
        raise ShapeError(
            f"tensor {name} has shape {t.shape}, expected {tuple(shape)}")
    return t


def hold(tensors, cfg, layout):
    """One namespace per (prefix, keys) of ``layout``, in order, holding
    under each short name k a copy (``take``) of tensors["<prefix>.<k>"]."""
    shapes = tensor_shapes(cfg)
    return [SimpleNamespace(**{k: take(tensors, f"{prefix}.{k}",
                                       shapes[f"{prefix}.{k}"], cfg.precision)
                               for k in keys}) for prefix, keys in layout]


def _draw(rng, name, shape, precision):
    """Truncated-normal weights, CLS and positions; unit gains; zero biases."""
    if name.endswith(("_w", ".cls", ".pos")):
        return T.trunc_normal(rng, shape, dtype=precision)
    return (T.ones if name.endswith("_g") else T.zeros)(shape, precision)


class Backbone:
    """A model less its token mixers, held as ``embed`` (``EMBED``),
    ``mlps[i]`` (``MLP``) and ``final`` (``FINAL``). A subclass supplies
    ``mix(x, i)``: layer i's token mixer with its residual, x + Mixer_i(x);
    and ``mixer_parameters()``: its mixers' tensors by table name."""

    def __init__(self, cfg: ModelConfig, tensors):
        self.cfg = cfg
        self.embed, *self.mlps, self.final = hold(tensors, cfg, [
            ("embed", EMBED),
            *((f"layer.{i}", MLP) for i in range(cfg.layers)),
            ("final", FINAL)])

    def named_parameters(self):
        """Table name -> the Tensor its holder has: the backbone's, in
        ``tensor_shapes`` order, then ``mixer_parameters()``."""
        holders = [("embed", self.embed), *(
            (f"layer.{i}", mlp) for i, mlp in enumerate(self.mlps)),
            ("final", self.final)]
        return {**{f"{prefix}.{k}": t for prefix, h in holders
                   for k, t in vars(h).items()}, **self.mixer_parameters()}

    def patch_embed(self, image):
        """(B,C,H,W) or (C,H,W) images -> (B,T,D) token embeddings; an
        image of another rank is a ShapeError naming its shape."""
        img = np.asarray(image.data if isinstance(image, Tensor) else image)
        if img.ndim not in (3, 4):
            raise ShapeError(f"image shape {img.shape}: expected (C,H,W) "
                             f"or (B,C,H,W)")
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
        e = self.embed
        patches = patches.astype(e.patch_w.data.dtype, copy=False)
        tok = T.linear(Tensor(patches), e.patch_w, e.patch_b)
        cls = T.reshape(e.cls, (1, 1, cfg.dim)) + T.zeros(
            (b, 1, cfg.dim), cfg.precision)
        x = T.concat([cls, tok], axis=1)
        return x + e.pos

    def mlp_block(self, y, layer):
        h = T.layer_norm(y, layer.ln2_g, layer.ln2_b)
        h = T.gelu(T.linear(h, layer.fc1_w, layer.fc1_b))
        return y + T.linear(h, layer.fc2_w, layer.fc2_b)

    def classify(self, x):
        """Logits from the final LN of the CLS token alone: LN is per
        position, so the other tokens' would be discarded."""
        f = self.final
        cls = T.layer_norm(x[:, 0, :], f.ln_g, f.ln_b)
        return T.linear(cls, f.head_w, f.head_b)

    def tokens(self, image, stop=None):
        """Patch embedding of ``image``, then the output of each layer below
        ``stop`` (of every layer by default)."""
        xs = [self.patch_embed(image)]
        for i, mlp in enumerate(self.mlps[:stop]):
            xs.append(self.mlp_block(self.mix(xs[-1], i), mlp))
        return xs

    def forward(self, image):
        """Returns (logits, block_outputs)."""
        xs = self.tokens(image)
        return self.classify(xs[-1]), xs[1:]


class TeacherModel(Backbone):
    """The backbone with multi-head self-attention as every token mixer;
    ``layers[i]`` holds layer i's ``ATTENTION`` tensors by short name
    (``qkv_w``, ...), as ``mlps[i]`` holds its ``MLP`` ones."""

    def __init__(self, cfg: ModelConfig, seed):
        rng = np.random.default_rng(seed)
        self._build(cfg, {n: _draw(rng, n, s, cfg.precision)
                          for n, s in tensor_shapes(cfg).items()})

    @classmethod
    def from_tensors(cls, cfg, tensors):
        """The teacher holding ``tensors`` (name -> array or Tensor)."""
        model = cls.__new__(cls)
        model._build(cfg, tensors)
        return model

    def _build(self, cfg, tensors):
        super().__init__(cfg, tensors)
        self.layers = hold(tensors, cfg, [(f"layer.{i}", ATTENTION)
                                          for i in range(cfg.layers)])

    def mixer_parameters(self):
        return {f"layer.{i}.{k}": t for i, layer in enumerate(self.layers)
                for k, t in vars(layer).items()}

    def attention_block(self, x, layer):
        """Residual multi-head self-attention; also returns attn weights."""
        h = T.layer_norm(x, layer.ln1_g, layer.ln1_b)
        qkv = T.linear(h, layer.qkv_w, layer.qkv_b)
        out, attn = T.attention(qkv, self.cfg.heads, self.cfg.head_dim)
        return x + T.linear(out, layer.proj_w, layer.proj_b), attn

    def mix(self, x, i):
        return self.attention_block(x, self.layers[i])[0]
