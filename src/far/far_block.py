"""Multi-head bidirectional LSTM attention substitute.

Block structure: LN -> input projection (D->D) -> split into N head
subspaces of width D_h -> per-head BiLSTM -> concat (T x 2D) -> output
projection (2D->D) -> residual add. Gate stacking order is (input,
forget, cell, output) throughout, so row j of gate g lives at index
g*hidden + j in the stacked weight matrices.

A pruned hidden unit is one whose coupled weights (see ``coupled``) are
all exactly zero: its gates are then i = f = o = 0.5 and g = 0, so with a
zero initial state its h and c stay exactly zero and its gradients are
zero. No separate mask is kept.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, ShapeError

GATE_ORDER = ("i", "f", "g", "o")
DIRECTIONS = ("fwd", "rev")


@dataclass
class LstmDirParams:
    """One scan direction: gate-stacked weights over ``hidden`` units."""
    w_ih: Tensor  # (4*hidden, input_size)
    w_hh: Tensor  # (4*hidden, hidden)
    b_ih: Tensor  # (4*hidden,)
    b_hh: Tensor  # (4*hidden,)

    @property
    def hidden(self):
        return self.w_hh.shape[1]

    @property
    def input_size(self):
        return self.w_ih.shape[1]

    def named(self, prefix):
        return {f"{prefix}.{k}": getattr(self, k)
                for k in ("w_ih", "w_hh", "b_ih", "b_hh")}


def init_lstm_dir(rng, input_size, hidden, precision="f32"):
    """Uniform +-1/sqrt(hidden) weights, forget-gate bias +1."""
    bound = 1.0 / np.sqrt(hidden)
    dt = T.DTYPES[precision]

    def u(shape):
        return Tensor(rng.uniform(-bound, bound, size=shape).astype(dt),
                      requires_grad=True)

    b_ih = np.zeros(4 * hidden, dtype=dt)
    b_ih[hidden:2 * hidden] = 1.0  # forget gate
    return LstmDirParams(
        w_ih=u((4 * hidden, input_size)),
        w_hh=u((4 * hidden, hidden)),
        b_ih=Tensor(b_ih, requires_grad=True),
        b_hh=Tensor(np.zeros(4 * hidden, dtype=dt), requires_grad=True),
    )


@dataclass
class FarBlockParams:
    """Per-layer substitute parameters."""
    ln_g: Tensor
    ln_b: Tensor
    in_w: Tensor   # (D, D)
    in_b: Tensor
    heads: list    # N entries of {"fwd": LstmDirParams, "rev": LstmDirParams}
    out_w: Tensor  # (sum of head output widths, D)
    out_b: Tensor

    def named(self, prefix):
        out = {f"{prefix}.ln_g": self.ln_g, f"{prefix}.ln_b": self.ln_b,
               f"{prefix}.in_w": self.in_w, f"{prefix}.in_b": self.in_b,
               f"{prefix}.out_w": self.out_w, f"{prefix}.out_b": self.out_b}
        for n, head in enumerate(self.heads):
            for d in DIRECTIONS:
                out.update(head[d].named(f"{prefix}.{n}.{d}"))
        return out


def init_far_block(cfg, rng, ln_init=None):
    d, n, dh, p = cfg.dim, cfg.heads, cfg.head_dim, cfg.precision
    if d != n * dh:
        raise ShapeError(f"dim {d} must equal heads*head_dim {n}*{dh}")
    ln_g = Tensor(np.ones(d, T.DTYPES[p]) if ln_init is None
                  else ln_init[0].data.copy(), requires_grad=True)
    ln_b = Tensor(np.zeros(d, T.DTYPES[p]) if ln_init is None
                  else ln_init[1].data.copy(), requires_grad=True)
    return FarBlockParams(
        ln_g=ln_g, ln_b=ln_b,
        in_w=T.trunc_normal(rng, (d, d), dtype=p),
        in_b=T.zeros(d, p, True),
        heads=[{dd: init_lstm_dir(rng, dh, dh, p) for dd in DIRECTIONS}
               for _ in range(n)],
        out_w=T.trunc_normal(rng, (2 * d, d), dtype=p),
        out_b=T.zeros(d, p, True),
    )


def lstm_step(x_t, h, c, p: LstmDirParams, w_ih_t=None, w_hh_t=None):
    """One LSTM cell update. Transposed weights may be passed to avoid
    re-transposing inside a scan."""
    if w_ih_t is None:
        w_ih_t = T.transpose(p.w_ih)
    if w_hh_t is None:
        w_hh_t = T.transpose(p.w_hh)
    gates = T.matmul(x_t, w_ih_t) + T.matmul(h, w_hh_t) + p.b_ih + p.b_hh
    gi, gf, gg, go = T.split(gates, 4, axis=-1)
    i, f, o = T.sigmoid(gi), T.sigmoid(gf), T.sigmoid(go)
    g = T.tanh(gg)
    c_new = f * c + i * g
    h_new = o * T.tanh(c_new)
    return h_new, c_new


def _scan(seq_steps, p):
    """Run an LSTM over a list of (B, input) tensors; returns hidden list."""
    w_ih_t = T.transpose(p.w_ih)
    w_hh_t = T.transpose(p.w_hh)
    b = seq_steps[0].shape[0] if seq_steps[0].ndim > 1 else None
    hid = p.hidden
    shape = (b, hid) if b is not None else (hid,)
    dtype = "f64" if p.w_ih.data.dtype == np.float64 else "f32"
    h = T.zeros(shape, dtype)
    c = T.zeros(shape, dtype)
    outs = []
    for x_t in seq_steps:
        h, c = lstm_step(x_t, h, c, p, w_ih_t, w_hh_t)
        outs.append(h)
    return outs


def bilstm_head(x, head, directions=DIRECTIONS):
    """(B,T,D_h) or (T,D_h) -> concat of forward and reverse scans.

    The reverse half is re-aligned to original token positions. Output
    width is fwd_hidden + rev_hidden (equal to 2*D_h when unpruned).
    """
    batched = x.ndim == 3
    t = x.shape[1] if batched else x.shape[0]
    axis = 1 if batched else 0
    steps = [x[:, j, :] if batched else x[j, :] for j in range(t)]

    halves = []
    for d in DIRECTIONS:
        p = head[d]
        if d not in directions:
            shape = ((x.shape[0], t, p.hidden) if batched else (t, p.hidden))
            halves.append(T.zeros(shape, "f64" if p.w_ih.data.dtype == np.float64 else "f32"))
            continue
        seq = steps if d == "fwd" else steps[::-1]
        outs = _scan(seq, p)
        if d == "rev":
            outs = outs[::-1]
        outs = [T.reshape(o, (o.shape[0], 1, p.hidden) if batched
                          else (1, p.hidden)) for o in outs]
        halves.append(T.concat(outs, axis=axis))
    return T.concat(halves, axis=-1)


def far_block_forward(x, p: FarBlockParams, directions=DIRECTIONS):
    """y = x + out_proj(concat_heads(BiLSTM_n(split_n(in_proj(LN(x))))))."""
    n = len(p.heads)
    h = T.layer_norm(x, p.ln_g, p.ln_b)
    u = T.matmul(h, p.in_w) + p.in_b
    subs = T.split(u, n, axis=-1)
    outs = [bilstm_head(subs[i], p.heads[i], directions=directions)
            for i in range(n)]
    cat = T.concat(outs, axis=-1)
    if cat.shape[-1] != p.out_w.shape[0]:
        raise ShapeError(
            f"head outputs ({cat.shape[-1]}) do not match out_proj rows "
            f"({p.out_w.shape[0]})")
    return x + (T.matmul(cat, p.out_w) + p.out_b)


def coupled(blk: FarBlockParams, head, direction, units):
    """Indices of every weight coupled to hidden ``units`` of one scan.

    Returns ``(gate_rows, cols, out_rows)``: the rows of the gate-stacked
    w_ih, w_hh, b_ih and b_hh; the w_hh columns; and the out_w rows. The
    offsets come from the hidden sizes of the block's scans, so they hold
    for a shrunk block too.
    """
    units = np.asarray(units, dtype=np.intp)
    hid = blk.heads[head][direction].hidden
    gate_rows = (np.arange(4)[:, None] * hid + units).ravel()
    start = sum(blk.heads[h][d].hidden for h in range(head) for d in DIRECTIONS)
    if direction == "rev":
        start += blk.heads[head]["fwd"].hidden
    return gate_rows, units, start + units


def live_units(blk: FarBlockParams, head, direction):
    """Bool per hidden unit: False where all its coupled weights are zero."""
    p = blk.heads[head][direction]
    n = p.hidden
    rows, cols, out_rows = coupled(blk, head, direction, np.arange(n))
    live = p.w_hh.data[:, cols].any(axis=0) | blk.out_w.data[out_rows].any(axis=1)
    for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
        live |= t.data[rows].reshape(4, n, -1).any(axis=(0, 2))
    return live


def shrink_block(blk: FarBlockParams, keep):
    """A copy of ``blk`` holding only the units where ``keep[head][direction]``
    is True; every coupled matrix is re-packed."""
    def param(a):
        return Tensor(np.array(a), requires_grad=True)

    heads, out_rows = [], []
    for h, head in enumerate(blk.heads):
        new = {}
        for d in DIRECTIONS:
            p = head[d]
            rows, cols, out = coupled(blk, h, d, np.flatnonzero(keep[h][d]))
            new[d] = LstmDirParams(
                w_ih=param(p.w_ih.data[rows]),
                w_hh=param(p.w_hh.data[np.ix_(rows, cols)]),
                b_ih=param(p.b_ih.data[rows]), b_hh=param(p.b_hh.data[rows]))
            out_rows.append(out)
        heads.append(new)
    return FarBlockParams(
        ln_g=param(blk.ln_g.data), ln_b=param(blk.ln_b.data),
        in_w=param(blk.in_w.data), in_b=param(blk.in_b.data), heads=heads,
        out_w=param(blk.out_w.data[np.concatenate(out_rows)]),
        out_b=param(blk.out_b.data))


class FarModel:
    """Teacher with every attention sublayer replaced by a FAR block.

    MLP sublayers, embeddings, final norm and head are shared with the
    teacher (same Tensor objects); the FAR blocks own fresh parameters.
    """

    def __init__(self, teacher, cfg=None, seed=0):
        self.teacher = teacher
        self.cfg = cfg or teacher.cfg
        if self.cfg.dim % self.cfg.heads != 0:
            raise ShapeError(
                f"dim {self.cfg.dim} not divisible by heads {self.cfg.heads}")
        rng = np.random.default_rng(seed + 1)
        self.blocks = [
            init_far_block(self.cfg, rng,
                           ln_init=(layer.ln1_g, layer.ln1_b))
            for layer in teacher.layers
        ]
        self.forward_count = 0

    def named_parameters(self):
        out = {}
        shared = self.teacher.named_parameters()
        for name, tnsr in shared.items():
            if ".qkv_" in name or ".proj_" in name or ".ln1_" in name:
                continue  # replaced by the FAR blocks
            out[name] = tnsr
        for i, blk in enumerate(self.blocks):
            out.update(blk.named(f"far.{i}"))
        return out

    def parameters(self):
        return list(self.named_parameters().values())

    def far_parameters(self):
        out = {}
        for i, blk in enumerate(self.blocks):
            out.update(blk.named(f"far.{i}"))
        return out

    @property
    def masks(self):
        """masks[layer][head][direction]: bool vector over the scan's
        current units, False where the unit is pruned. Derived from the
        weights on every call, never stored."""
        return [{h: {d: live_units(blk, h, d) for d in DIRECTIONS}
                 for h in range(len(blk.heads))} for blk in self.blocks]

    def forward(self, image, directions=DIRECTIONS):
        """Returns (logits, block_outputs)."""
        self.forward_count += 1
        x = self.teacher.patch_embed(image)
        blocks = []
        for i, layer in enumerate(self.teacher.layers):
            y = far_block_forward(x, self.blocks[i], directions=directions)
            x = self.teacher.mlp_block(y, layer)
            blocks.append(x)
        logits = self.teacher.classify(x)
        return logits, blocks


def replace_attention(teacher, cfg=None, seed=0):
    """Substitute every attention sublayer at once; everything else shared."""
    return FarModel(teacher, cfg=cfg, seed=seed)

