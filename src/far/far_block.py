"""Multi-head bidirectional LSTM attention substitute. ``FarModel`` is a
``vit.Backbone`` with one such block per layer as its token mixer, built,
like every block, from a tensor table (``FarBlockParams.from_tensors``).

Block structure: LN -> input projection (D->D) -> N heads of width D_h,
each scanned forward and in reverse -> the 2N hidden sequences side by
side (T x 2D) -> output projection (2D->D) -> residual add. Gate
stacking order is (input, forget, cell, output) throughout, so row j of
gate g lives at index g*hidden + j in the stacked weight matrices.

All 2N scans of a block run as one graph node (``scan_heads``): the
head inputs are stacked to (2N, B, T, D_h), reverse scans flipped in
time; one batched GEMM computes every step's input gates; each time step
is one batched ``h @ w_hh^T`` over the 2N scans; and the node's backward
is a hand-written BPTT that returns the gradients of the input and of
every scan's four tensors. Activations are kept only when the input or
some scan tensor requires grad. Scans of unequal width (a shrunk block)
are zero-padded to the widest: by the rule below a padded unit's h, c
and gradients stay exactly zero. ``lstm_step`` is the single-cell
reference the fused scan is tested against.

A pruned hidden unit is one whose coupled weights (see ``coupled``) are
all exactly zero: its gates are then i = f = o = 0.5 and g = 0, so with a
zero initial state its h and c stay exactly zero and its gradients are
zero. No separate mask is kept.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, ShapeError
from .vit import Backbone, take

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
        return Tensor(rng.uniform(-bound, bound, size=shape).astype(dt))

    b_ih = np.zeros(4 * hidden, dtype=dt)
    b_ih[hidden:2 * hidden] = 1.0  # forget gate
    return LstmDirParams(
        w_ih=u((4 * hidden, input_size)),
        w_hh=u((4 * hidden, hidden)),
        b_ih=Tensor(b_ih),
        b_hh=Tensor(np.zeros(4 * hidden, dtype=dt)),
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

    @classmethod
    def from_tensors(cls, tensors, prefix, n_heads, head_dim, dtype):
        """The block of ``n_heads`` heads of width ``head_dim`` read from
        ``tensors`` under the names that ``named(prefix)`` uses. Each
        scan's hidden size is read from its ``w_hh`` and must be 1..head_dim;
        its other tensors and the rows of ``out_w`` (one per unit of every
        scan) must agree. Any other table is a ShapeError naming the tensor.
        """
        d = n_heads * head_dim

        def get(name, shape):
            return take(tensors, f"{prefix}.{name}", shape, dtype)

        heads, width = [{} for _ in range(n_heads)], 0
        for n, head in enumerate(heads):
            for dirn in DIRECTIONS:
                q = f"{n}.{dirn}."
                name = f"{prefix}.{q}w_hh"
                if name not in tensors:
                    raise ShapeError(f"missing tensor {name}")
                shape = np.shape(tensors[name])
                w = shape[1] if len(shape) == 2 else 0
                if not 1 <= w <= head_dim:
                    raise ShapeError(
                        f"tensor {name} has shape {shape}; its hidden size "
                        f"must be 1..{head_dim}")
                head[dirn] = LstmDirParams(  # checked in name order
                    b_hh=get(q + "b_hh", (4 * w,)),
                    b_ih=get(q + "b_ih", (4 * w,)),
                    w_hh=get(q + "w_hh", (4 * w, w)),
                    w_ih=get(q + "w_ih", (4 * w, head_dim)))
                width += w
        return cls(ln_g=get("ln_g", (d,)), ln_b=get("ln_b", (d,)),
                   in_w=get("in_w", (d, d)), in_b=get("in_b", (d,)),
                   heads=heads, out_w=get("out_w", (width, d)),
                   out_b=get("out_b", (d,)))


def init_far_block(cfg, rng):
    cfg.check_heads()
    d, n, dh, p = cfg.dim, cfg.heads, cfg.head_dim, cfg.precision
    return FarBlockParams(
        ln_g=T.ones(d, p), ln_b=T.zeros(d, p),
        in_w=T.trunc_normal(rng, (d, d), dtype=p),
        in_b=T.zeros(d, p),
        heads=[{dd: init_lstm_dir(rng, dh, dh, p) for dd in DIRECTIONS}
               for _ in range(n)],
        out_w=T.trunc_normal(rng, (2 * d, d), dtype=p),
        out_b=T.zeros(d, p),
    )


def lstm_step(x_t, h, c, p: LstmDirParams):
    """One LSTM cell update."""
    gates = (T.matmul(x_t, T.transpose(p.w_ih))
             + T.matmul(h, T.transpose(p.w_hh)) + p.b_ih + p.b_hh)
    gi, gf, gg, go = T.split(gates, 4, axis=-1)
    i, f, o = T.sigmoid(gi), T.sigmoid(gf), T.sigmoid(go)
    g = T.tanh(gg)
    c_new = f * c + i * g
    h_new = o * T.tanh(c_new)
    return h_new, c_new


def _stacked_weights(scans, hid, dtype):
    """Gate-stacked weights of ``scans``, each zero-padded to ``hid`` units:
    w_ih^T (S, D_h, 4*hid), w_hh^T (S, hid, 4*hid) and b_ih + b_hh
    (S, 1, 4*hid)."""
    s, d = len(scans), scans[0].input_size
    w_ih = np.zeros((s, 4, hid, d), dtype)
    w_hh = np.zeros((s, 4, hid, hid), dtype)
    bias = np.zeros((s, 4, hid), dtype)
    for k, p in enumerate(scans):
        n = p.hidden
        w_ih[k, :, :n] = p.w_ih.data.reshape(4, n, d)
        w_hh[k, :, :n, :n] = p.w_hh.data.reshape(4, n, n)
        bias[k, :, :n] = (p.b_ih.data + p.b_hh.data).reshape(4, n)
    return (w_ih.reshape(s, 4 * hid, d).transpose(0, 2, 1),
            w_hh.reshape(s, 4 * hid, hid).transpose(0, 2, 1),
            bias.reshape(s, 1, 4 * hid))


def scan_heads(u, heads, directions=DIRECTIONS):
    """Every (head, direction) LSTM scan of ``heads`` over ``u``, as one
    graph node.

    ``u`` is (B, T, N*D_h) or (T, N*D_h); head n reads columns
    n*D_h:(n+1)*D_h. Returns the hidden states of all scans side by side
    in ``coupled`` order (head 0 fwd, head 0 rev, head 1 fwd, ...), the
    reverse scans re-aligned to token positions. A scan whose direction
    is not in ``directions`` outputs zeros and receives no gradient.
    """
    u = T.as_tensor(u)
    batched = u.ndim == 3
    x = u.data if batched else u.data[None]
    b, t, width = x.shape
    n_heads = len(heads)
    d_in = width // n_heads
    if d_in * n_heads != width or any(
            head[d].input_size != d_in for head in heads for d in DIRECTIONS):
        raise ShapeError(f"input width {width} does not split into "
                         f"{n_heads} heads of the scans' input size")
    order = [(n, d) for n in range(n_heads) for d in DIRECTIONS]
    live = [(n, d) for n, d in order if d in directions]
    scans = [heads[n][d] for n, d in live]
    dtype = np.result_type(x, *(p.w_ih.data for p in scans))
    if not scans:
        shape = (b, t, sum(heads[n][d].hidden for n, d in order))
        return Tensor(np.zeros(shape if batched else shape[1:], dtype))

    s, hid = len(scans), max(p.hidden for p in scans)
    wih_t, whh_t, bias = _stacked_weights(scans, hid, dtype)
    rev = np.array([d == "rev" for _, d in live])
    xs = x.reshape(b, t, n_heads, d_in).transpose(2, 0, 1, 3)[
        [n for n, _ in live]].astype(dtype, copy=False)  # (S, B, T, D_h)
    xs[rev] = xs[rev, :, ::-1]
    gx = (xs.reshape(s, b * t, d_in) @ wih_t + bias).reshape(s, b, t, 4 * hid)

    params = [tn for p in scans for tn in (p.w_ih, p.w_hh, p.b_ih, p.b_hh)]
    save = u.requires_grad or any(tn.requires_grad for tn in params)
    hs = np.empty((s, b, t, hid), dtype)
    if save:
        acts = np.empty((s, b, t, 4 * hid), dtype)
        cs = np.empty((s, b, t, hid), dtype)
        tcs = np.empty((s, b, t, hid), dtype)
    h = np.zeros((s, b, hid), dtype)
    c = np.zeros((s, b, hid), dtype)
    for j in range(t):
        z = gx[:, :, j] + h @ whh_t
        a = 1.0 / (1.0 + np.exp(-z))
        a[..., 2 * hid:3 * hid] = np.tanh(z[..., 2 * hid:3 * hid])
        c = a[..., hid:2 * hid] * c + a[..., :hid] * a[..., 2 * hid:3 * hid]
        tc = np.tanh(c)
        h = a[..., 3 * hid:] * tc
        hs[:, :, j] = h
        if save:
            acts[:, :, j], cs[:, :, j], tcs[:, :, j] = a, c, tc

    # (scan index or None, column offset, width, reversed) in coupled order
    pieces, off = [], 0
    for n, d in order:
        w = heads[n][d].hidden
        k = live.index((n, d)) if d in directions else None
        pieces.append((k, off, w, d == "rev"))
        off += w
    out = np.concatenate(
        [np.zeros((b, t, w), dtype) if k is None
         else (hs[k, :, ::-1] if r else hs[k])[..., :w]
         for k, _, w, r in pieces], axis=-1)

    def backward(grad):
        gy = grad if batched else grad[None]
        dhs = np.zeros((s, b, t, hid), dtype)
        for k, off, w, r in pieces:
            if k is not None:
                piece = gy[..., off:off + w]
                dhs[k, :, :, :w] = piece[:, ::-1] if r else piece
        whh = whh_t.transpose(0, 2, 1)
        da = np.empty((s, b, t, 4 * hid), dtype)
        dh_next = np.zeros((s, b, hid), dtype)
        dc_next = np.zeros((s, b, hid), dtype)
        for j in reversed(range(t)):
            a, tc = acts[:, :, j], tcs[:, :, j]
            i, f = a[..., :hid], a[..., hid:2 * hid]
            g, o = a[..., 2 * hid:3 * hid], a[..., 3 * hid:]
            dh = dhs[:, :, j] + dh_next
            dc = dc_next + dh * o * (1.0 - tc * tc)
            dz = da[:, :, j]
            dz[..., :hid] = dc * g * i * (1.0 - i)
            dz[..., hid:2 * hid] = (dc * cs[:, :, j - 1] * f * (1.0 - f)
                                    if j else 0.0)
            dz[..., 2 * hid:3 * hid] = dc * i * (1.0 - g * g)
            dz[..., 3 * hid:] = dh * tc * o * (1.0 - o)
            dh_next = dz @ whh
            dc_next = dc * f

        flat = da.reshape(s, b * t, 4 * hid)
        if u.requires_grad:
            dx = (flat @ wih_t.transpose(0, 2, 1)).reshape(s, b, t, d_in)
            dx[rev] = dx[rev, :, ::-1]
            du = np.zeros((b, t, n_heads, d_in), dtype)
            for k, (n, _) in enumerate(live):
                du[:, :, n] += dx[k]
            u._accumulate(du.reshape(u.data.shape))
        hprev = np.zeros_like(hs)
        hprev[:, :, 1:] = hs[:, :, :-1]
        flat_t = flat.transpose(0, 2, 1)
        g_ih = flat_t @ xs.reshape(s, b * t, d_in)
        g_hh = flat_t @ hprev.reshape(s, b * t, hid)
        g_b = flat.sum(axis=1)
        for k, p in enumerate(scans):
            n = p.hidden
            rows = (np.arange(4)[:, None] * hid + np.arange(n)).ravel()
            for tn, g in ((p.w_ih, g_ih[k, rows]), (p.w_hh, g_hh[k, rows, :n]),
                          (p.b_ih, g_b[k, rows]), (p.b_hh, g_b[k, rows])):
                if tn.requires_grad:
                    tn._accumulate(g)

    return T._make(out if batched else out[0], (u, *params), backward)


def bilstm_head(x, head, directions=DIRECTIONS):
    """(B,T,D_h) or (T,D_h) -> concat of forward and reverse scans.

    The reverse half is re-aligned to original token positions. Output
    width is fwd_hidden + rev_hidden (equal to 2*D_h when unpruned).
    """
    return scan_heads(x, [head], directions)


def far_block_forward(x, p: FarBlockParams, directions=DIRECTIONS):
    """y = x + out_proj(BiLSTM scans of the N heads of in_proj(LN(x)))."""
    h = T.layer_norm(x, p.ln_g, p.ln_b)
    u = T.matmul(h, p.in_w) + p.in_b
    cat = scan_heads(u, p.heads, directions)
    if cat.shape[-1] != p.out_w.shape[0]:
        raise ShapeError(
            f"head outputs ({cat.shape[-1]}) do not match out_proj rows "
            f"({p.out_w.shape[0]})")
    return x + (T.matmul(cat, p.out_w) + p.out_b)


def coupled(blk: FarBlockParams, head, direction, units):
    """Indices of every weight coupled to hidden ``units`` of one scan.

    Returns ``(gate_rows, cols, out_rows)``: the rows of the gate-stacked
    w_ih, w_hh, b_ih and b_hh, gate-major (gate 0's row of every unit, then
    gate 1's, ...); the w_hh columns; and the out_w rows. The
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
    tensors = {n: t.data for n, t in blk.named("blk").items()}
    out_rows = []
    for h in range(len(blk.heads)):
        for d in DIRECTIONS:
            rows, cols, out = coupled(blk, h, d, np.flatnonzero(keep[h][d]))
            q = f"blk.{h}.{d}."
            for k in ("w_ih", "b_ih", "b_hh"):
                tensors[q + k] = tensors[q + k][rows]
            tensors[q + "w_hh"] = tensors[q + "w_hh"][np.ix_(rows, cols)]
            out_rows.append(out)
    tensors["blk.out_w"] = blk.out_w.data[np.concatenate(out_rows)]
    return FarBlockParams.from_tensors(tensors, "blk", len(blk.heads),
                                       blk.heads[0]["fwd"].input_size,
                                       blk.in_w.dtype)


class FarModel(Backbone):
    """A backbone with a FAR block (tensors ``far.<layer>.*``) as every token
    mixer; ``replace_attention`` shares the teacher's backbone Tensors."""

    def __init__(self, cfg, tensors):
        super().__init__(cfg, tensors)
        self.blocks = [FarBlockParams.from_tensors(
            tensors, f"far.{i}", cfg.heads, cfg.head_dim, cfg.precision)
            for i in range(cfg.layers)]

    def named_parameters(self):
        return {**self.backbone, **self.far_parameters()}

    def far_parameters(self):
        return {n: t for i, blk in enumerate(self.blocks)
                for n, t in blk.named(f"far.{i}").items()}

    @property
    def masks(self):
        """masks[layer][head][direction]: bool vector over the scan's
        current units, False where the unit is pruned. Derived from the
        weights on every call, never stored."""
        return [{h: {d: live_units(blk, h, d) for d in DIRECTIONS}
                 for h in range(len(blk.heads))} for blk in self.blocks]

    def mix(self, x, i):
        return far_block_forward(x, self.blocks[i])


def replace_attention(teacher, seed=0):
    """A FarModel sharing ``teacher``'s backbone, with a FAR block drawn from
    ``seed`` in place of every attention sublayer. Each block's LN starts
    as a copy of the attention sublayer's LN."""
    rng = np.random.default_rng(seed + 1)
    tensors = dict(teacher.backbone)
    for i, layer in enumerate(teacher.layers):
        tensors.update(init_far_block(teacher.cfg, rng).named(f"far.{i}"))
        # arrays, so the block's LN starts as a copy of the attention LN
        tensors[f"far.{i}.ln_g"] = layer.ln1_g.data
        tensors[f"far.{i}.ln_b"] = layer.ln1_b.data
    return FarModel(teacher.cfg, tensors)
