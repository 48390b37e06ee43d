"""Multi-head bidirectional LSTM attention substitute: the token mixer of
each ``vit.Model`` layer whose tensors are named ``far.<i>.*``, built by
copying the table (``FarBlockParams.from_tensors``). ``replace_attention``
puts one in every layer of a teacher.

Block structure: LN -> input projection (D->D) -> N heads of width D_h,
each scanned forward and in reverse -> the 2N hidden sequences side by
side (T x 2D) -> output projection (2D->D) -> residual add. The 2N scans
are one list, ``FarBlockParams.scans`` (head 0 fwd, head 0 rev, head 1
fwd, ...), indexed by k; only ``scan_of(k)`` knows scan k's head and
direction, and so its names ``<prefix>.<head>.<fwd|rev>.*``. Stored gate
order is (input, forget, cell, output) throughout, so row j of gate g
lives at index g*hidden + j in the stacked weight matrices.

All 2N scans of a block run as one graph node (``scan_heads``). It lays
the scans' weights out gate-major in a private order (i, f, o, g), with
the i, f and o rows halved: sigmoid(z) = tanh(z/2)/2 + 1/2, so one tanh
covers all four gates. Whatever depends on shapes alone comes from a
plan cached per (scan sizes, dtype): the output pieces, and gather
indices into one concatenation of the scans' weights with a zero
appended for padding. A call then lays out its forward weights with one
concatenate, one gather and one in-place scale, and its backward gathers
the unscaled layouts from the same concatenation. The plan holds indices
only, so weights zeroed in place (pruning) or rebound (``AdamW.step``)
are read afresh on every call, and a shrunk block's new sizes get a plan
of their own. A reverse scan is a forward scan over the time-reversed
input, so one concatenate of the heads' inputs and their time-reversed
copies lays out every scan's input in scan time, (S, B, T, D_h), and every
buffer runs in scan time. One batched GEMM writes every step's input
gates into a time-major buffer (T, 4, S, B, hid), and cell states, their
tanh and hidden states are time-major (T, S, B, hid) too. A step is then
one ``h @ w_hh`` over the S scans, one add, one tanh over the four
gates, two in-place ops on the contiguous i/f/o block, and ufuncs that
write c, tanh(c) and h in place; the gate buffer ends up holding the
activations. These buffers and the backward's, with each step's views of
them built once, are a workspace (``_Workspace``). Every call takes one
from its thread's pool by (plan, B, T), so two threads never share one.
A call where nothing requires grad (a frozen forward: inference,
attribution's layer prefix, accuracy) gives it back before it returns; a
grad call's graph keeps it, and it comes back when the graph is freed,
so no live graph's workspace is ever handed out. The pool keeps at most
WORKSPACE_BYTES (32 MiB) of idle workspaces, several of a shape when
several graphs of it were alive, the most recently given first; a larger
workspace is made afresh by every call. The output is always a fresh
array. The node's backward is a hand-written BPTT. Before its
reverse loop (``_bptt``) it computes, for all steps at once, every
factor that does not depend on the recurrence: o(1-tc^2), and into one
buffer laid out like the gates g i(1-i), c_prev f(1-f), tc o(1-o) and
i(1-g^2). The loop itself only adds dh, updates dc, multiplies the
factors into dz, takes ``dz @ w_hh`` and scales dc by f.
After it, one batched GEMM each gives every scan's input and w_ih
gradients. Activations are kept only when the input or some scan tensor
requires grad. Scans of unequal width (a shrunk block) are zero-padded to
the widest: by the rule below a padded unit's h, c and gradients stay
exactly zero. ``lstm_step`` is the single-cell reference, in stored
order with the plain sigmoid, that the fused scan is tested against.

A pruned hidden unit is one whose coupled weights (see ``coupled``) are
all exactly zero: its gates are then i = f = o = 0.5 and g = 0, so with a
zero initial state its h and c stay exactly zero and its gradients are
zero. No separate mask is kept.
"""

import functools
import itertools
import operator
import sys
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, ShapeError
from . import vit

DIRECTIONS = ("fwd", "rev")
# the tensors of a scan and a block's own, in the order ``named`` lists them
SCAN = ("w_ih", "w_hh", "b_ih", "b_hh")
BLOCK = ("ln_g", "ln_b", "in_w", "in_b", "out_w", "out_b")


def scan_of(k):
    """The (head, direction) of a block's scan k, in ``coupled`` order."""
    return k // 2, DIRECTIONS[k % 2]


def _scan_name(prefix, k):
    """The prefix of scan k's tensor names in the block ``prefix``."""
    return "{}.{}.{}.".format(prefix, *scan_of(k))


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


def init_lstm_dir(rng, input_size, hidden, precision):
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
    scans: list    # 2N LstmDirParams, scan k of head and direction scan_of(k)
    out_w: Tensor  # (sum of scan widths, D)
    out_b: Tensor

    def named(self, prefix):
        out = {f"{prefix}.{k}": getattr(self, k) for k in BLOCK}
        for k, p in enumerate(self.scans):
            q = _scan_name(prefix, k)
            out.update({q + n: getattr(p, n) for n in SCAN})
        return out

    def head(self, n):
        """Head n's two scans, as ``bilstm_head`` takes them."""
        return {scan_of(k)[1]: p for k, p in enumerate(self.scans)
                if scan_of(k)[0] == n}

    @classmethod
    def from_tensors(cls, tensors, prefix, n_heads, head_dim, dtype):
        """The block of ``n_heads`` heads of width ``head_dim`` read from
        ``tensors`` under the names that ``named(prefix)`` uses. Each
        scan's hidden size is read from its ``w_hh`` and must be 1..head_dim;
        every tensor must then have its shape in ``block_shapes``. Any other
        table is a ShapeError naming the tensor.
        """
        def width(name):
            if name not in tensors:
                raise ShapeError(f"missing tensor {name}")
            shape = np.shape(tensors[name])
            w = shape[1] if len(shape) == 2 else 0
            if not 1 <= w <= head_dim:
                raise ShapeError(f"tensor {name} has shape {shape}; its "
                                 f"hidden size must be 1..{head_dim}")
            return w

        names = [_scan_name(prefix, k) for k in range(2 * n_heads)]
        widths = [width(q + "w_hh") for q in names]
        t = {name: vit.take(tensors, name, shape, dtype)
             for name, shape in block_shapes(prefix, widths, head_dim).items()}
        return cls(scans=[LstmDirParams(**{k: t[q + k] for k in SCAN})
                          for q in names],
                   **{k: t[f"{prefix}.{k}"] for k in BLOCK})


def block_shapes(prefix, widths, head_dim):
    """name -> shape of every tensor of the block ``named(prefix)`` names,
    whose scan k reads ``head_dim`` columns and has ``widths[k]`` hidden
    units; each scan's tensors in name order, the order ``from_tensors``
    checks them in, then the block's."""
    d, shapes = len(widths) // 2 * head_dim, {}
    for k, w in enumerate(widths):
        q = _scan_name(prefix, k)
        shapes[q + "b_hh"] = shapes[q + "b_ih"] = (4 * w,)
        shapes[q + "w_hh"] = (4 * w, w)
        shapes[q + "w_ih"] = (4 * w, head_dim)
    q = f"{prefix}."
    shapes.update({q + "ln_g": (d,), q + "ln_b": (d,), q + "in_w": (d, d),
                   q + "in_b": (d,), q + "out_w": (sum(widths), d),
                   q + "out_b": (d,)})
    return shapes


def init_far_block(cfg, rng):
    d, n, dh, p = cfg.dim, cfg.heads, cfg.head_dim, cfg.precision
    return FarBlockParams(
        ln_g=T.ones(d, p), ln_b=T.zeros(d, p),
        in_w=T.trunc_normal(rng, (d, d), dtype=p),
        in_b=T.zeros(d, p),
        scans=[init_lstm_dir(rng, dh, dh, p) for _ in range(2 * n)],
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


# the internal gate order (i, f, o, g) as positions in the stored (i, f, g, o);
# the swap is its own inverse, so it also maps internal rows back to stored
_GATES = [0, 1, 3, 2]


def _gather_indices(hidden, d_in):
    """The layouts of ``_Plan`` as indices into the concatenation of the
    scans' flattened (w_ih, w_hh, b_ih, b_hh) with one zero appended:
    w_ih (S, 4, hid, D_h), w_hh (S, 4, hid, hid), b_ih and b_hh (S, 4, hid)
    gate-major in the internal order (i, f, o, g), for scans of ``hidden``
    units and input size ``d_in``. Padding to the widest scan points at the
    zero."""
    s, hid = len(hidden), max(hidden)
    zero = sum(4 * n * (d_in + n + 2) for n in hidden)
    ih, hh = np.full((s, 4, hid, d_in), zero), np.full((s, 4, hid, hid), zero)
    bi, bh = np.full((s, 4, hid), zero), np.full((s, 4, hid), zero)
    base = 0
    for k, n in enumerate(hidden):
        for a, shape in ((ih, (4, n, d_in)), (hh, (4, n, n)), (bi, (4, n)),
                         (bh, (4, n))):
            size = np.prod(shape)
            a[k][tuple(map(slice, shape))] = np.arange(
                base, base + size).reshape(shape)
            base += size
    return [a[:, _GATES] for a in (ih, hh, bi, bh)]


class _Plan:
    """Everything a ``scan_heads`` call derives from the ``shapes`` (4 *
    hidden, input) of its scans' w_ih, in ``coupled`` order, and ``dtype``:
    the output pieces and the gather indices of the weight layouts. It
    holds no weight values, so a weight zeroed in place or rebound is read
    afresh on the next call. A plan is shared by every thread; the buffers
    a call computes in are a ``_Workspace``, which every call takes from
    its thread's pool (``_Workspaces``) by (plan, B, T)."""

    def __init__(self, shapes, dtype):
        d_in = shapes[0][1]
        # one input size for all scans, 2 a head; scan_heads names a mismatch
        fits = len(shapes) % 2 == 0 and all(sh[1] == d_in for sh in shapes)
        self.d_in = d_in if fits else None
        hidden = [rows // 4 for rows, _ in shapes]
        # (column offset, width, reversed) of each scan's output
        self.pieces, off = [], 0
        for k, w in enumerate(hidden):
            self.pieces.append((off, w, scan_of(k)[1] == "rev"))
            off += w
        self.width = off
        if self.d_in is None:
            return
        s, hid = len(shapes), max(hidden)
        self.s, self.hid = s, hid
        ih, hh, bi, bh = _gather_indices(hidden, d_in)
        self.zero = np.zeros(1, dtype)
        self.half = np.asarray(0.5, dtype)
        # the forward's layouts, gate-major and transposed for ``x @ W``:
        # w_ih (4, S, D_h, hid), w_hh (4, S, hid, hid), then b_ih and b_hh
        # (4, S, hid). ``scale`` halves the i, f and o rows of all but b_hh,
        # which is first added into b_ih: sigmoid(z) = tanh(z/2)/2 + 1/2
        fwd = [ih.transpose(1, 0, 3, 2), hh.transpose(1, 0, 3, 2),
               bi.transpose(1, 0, 2), bh.transpose(1, 0, 2)]
        self.forward = np.concatenate([a.ravel() for a in fwd])
        self.ends = np.cumsum([a.size for a in fwd])[:3].tolist()
        half_ifo = np.array([0.5, 0.5, 0.5, 1.0], dtype)
        self.scale = np.concatenate([np.repeat(half_ifo, a.size // 4)
                                     for a in fwd[:3]])
        # the backward's unscaled layouts
        self.ih_back = ih.reshape(s, 4 * hid, d_in)
        self.hh_back = hh.reshape(s, 4 * hid, hid)


_plan = functools.lru_cache(maxsize=64)(_Plan)

# Bytes of idle workspaces one thread keeps; a workspace larger than this is
# never kept, so every call of its shape makes one afresh.
WORKSPACE_BYTES = 32 << 20

# a scan's tensors in ``SCAN`` order, and a tensor's data and an array's
# shape, read by C getters rather than per-scan Python code
_scan_tensors = operator.attrgetter(*SCAN)
_data = operator.attrgetter("data")
_shape = operator.attrgetter("shape")


def _held_bytes(arrays, steps):
    """The data bytes of ``arrays`` plus the ``sys.getsizeof`` of the list
    ``steps`` and of its tuples of views, which are alike at every step."""
    each = sys.getsizeof(steps[0]) + sum(map(sys.getsizeof, steps[0]))
    return (sum(a.nbytes for a in arrays) + sys.getsizeof(steps)
            + len(steps) * each)


class _Workspace:
    """The buffers of one ``scan_heads`` call of ``plan`` over B images of T
    tokens and of its backward, with each step's views of them built once.
    The forward's: the gates (T, 4, S, B, hid), which end up holding the
    activations, the hidden and cell states (T+1, S, B, hid), of which
    index 0 is the zero initial state and is never written, tanh(c) (T, S,
    B, hid), two per-step temporaries and ``steps``. The BPTT's, which the
    first backward makes (``for_backward``): the hidden-state gradients
    ``dhs`` (T, S, B, hid), whose padding columns are never written and
    stay zero, the step factors ``fac``, laid out like the gates, and
    ``dc_dh`` (T, S, B, hid), the gate gradients ``dz`` (S, B, T, 4, hid),
    the (dh, ddc, dh_next, dc) ``carry`` and ``back_steps``, the reverse
    loop's views. ``key`` is (plan, B, T); ``nbytes`` counts the arrays'
    data and the step views.
    """

    def __init__(self, plan, b, t):
        self.key = (plan, b, t)
        s, hid, dtype = plan.s, plan.hid, plan.zero.dtype
        self.gates = gates = np.empty((t, 4, s, b, hid), dtype)
        # the input GEMM's output: per gate, scan and image, (T, hid)
        self.gates_in = gates.transpose(1, 2, 3, 0, 4)
        self.hs = hs = np.zeros((t + 1, s, b, hid), dtype)
        self.cs = cs = np.zeros((t + 1, s, b, hid), dtype)
        self.tcs = tcs = np.empty((t, s, b, hid), dtype)
        self.rec = np.empty((4, s, b, hid), dtype)
        self.ig = np.empty((s, b, hid), dtype)
        self.ifog = gates.transpose(1, 0, 2, 3, 4)
        i, f, o, g = self.ifog
        self.steps = list(zip(gates, gates[:, :3], i, f, o, g, hs, hs[1:],
                              cs, cs[1:], tcs))
        self.nbytes = _held_bytes(
            [gates, hs, cs, tcs, self.rec, self.ig], self.steps)
        self.dz = None

    def for_backward(self):
        """Make the BPTT's buffers, unless an earlier backward made them."""
        if self.dz is not None:
            return
        t, _, s, b, hid = self.gates.shape
        dtype = self.gates.dtype
        self.dhs = np.zeros((t, s, b, hid), dtype)
        self.fac = np.empty_like(self.gates)
        self.dc_dh = np.empty((t, s, b, hid), dtype)
        self.dz = dz = np.empty((s, b, t, 4, hid), dtype)
        self.carry = np.empty((4, s, b, hid), dtype)
        self.back_steps = list(zip(
            self.dhs, self.dc_dh, self.fac, dz.transpose(2, 3, 0, 1, 4),
            dz.reshape(s, b, t, 4 * hid).transpose(2, 0, 1, 3),
            self.ifog[1]))[::-1]
        self.nbytes += _held_bytes(
            [self.dhs, self.fac, self.dc_dh, dz, self.carry], self.back_steps)


class _Workspaces(threading.local):
    """One thread's pool of idle workspaces, at most WORKSPACE_BYTES of
    ``nbytes`` in all: ``idle`` maps (plan, B, T) to its idle workspaces,
    the most recently given last, and its keys come least recently given
    first. A workspace is idle only while no call and no live graph holds
    it. A graph's workspace comes back when the graph is freed, which a
    garbage collection can do in the middle of pool code, so that release
    only appends to ``released``; ``take`` and ``give`` file it.
    """

    def __init__(self):
        self.idle = {}
        self.nbytes = 0
        self.released = []

    def take(self, plan, b, t):
        """An idle workspace of (plan, b, t), else a new one."""
        self._file_released()
        kept = self.idle.get((plan, b, t))
        if not kept:
            return _Workspace(plan, b, t)
        ws = kept.pop()
        self.nbytes -= ws.nbytes
        if not kept:
            del self.idle[ws.key]
        return ws

    def give(self, ws):
        """Keep ``ws``, which no call or graph holds any more, as idle."""
        self.released.append(ws)
        self._file_released()

    def _file_released(self):
        """File every released workspace that fits the cap as the most
        recently given, evicting the least recently given."""
        idle, released = self.idle, self.released
        while released:
            ws = released.pop()
            if ws.nbytes > WORKSPACE_BYTES:
                continue
            kept = idle.pop(ws.key, [])
            kept.append(ws)
            idle[ws.key] = kept
            self.nbytes += ws.nbytes
            while self.nbytes > WORKSPACE_BYTES:
                key = next(iter(idle))
                self.nbytes -= idle[key].pop(0).nbytes
                if not idle[key]:
                    del idle[key]


_workspaces = _Workspaces()


def scan_heads(u, scans):
    """Every LSTM scan of ``scans`` (2N, in ``coupled`` order) over ``u``,
    as one graph node.

    ``u`` is (B, T, N*D_h) or (T, N*D_h); the scans of head n read columns
    n*D_h:(n+1)*D_h. Returns the hidden states of all scans side by side
    in ``coupled`` order, the reverse scans re-aligned to token positions.
    """
    u = T.as_tensor(u)
    batched = u.ndim == 3
    x = u.data if batched else u.data[None]
    b, t, width = x.shape
    n_heads = len(scans) // 2
    params = list(itertools.chain.from_iterable(map(_scan_tensors, scans)))
    arrays = list(map(_data, params))
    w_ih = arrays[::4]
    dtype = np.result_type(x, *w_ih)
    plan = _plan(tuple(map(_shape, w_ih)), dtype)
    d_in, pieces = plan.d_in, plan.pieces
    if d_in is None or d_in * n_heads != width:
        raise ShapeError(f"input width {width} does not split into heads "
                         f"of the input size of {len(scans)} scans, 2 a head")
    # S scans in coupled order: xs[k] is scan k's input, in scan time
    # (step j of a reverse scan reads token t-1-j)
    s, hid = plan.s, plan.hid
    heads_x = x.reshape(b, t, n_heads, d_in).transpose(2, 0, 1, 3)
    xs = np.concatenate([heads_x[:, None], heads_x[:, None, :, ::-1]], axis=1,
                        dtype=dtype).reshape(s, b, t, d_in)
    ws = _workspaces.take(plan, b, t)
    # every weight, read now; the backward gathers its layouts from it too
    cat = np.concatenate(arrays + [plan.zero], axis=None, dtype=dtype)
    packed = cat.take(plan.forward)
    e_ih, e_hh, e_b = plan.ends
    bias = packed[e_hh:e_b]
    np.add(bias, packed[e_b:], out=bias)
    np.multiply(packed[:e_b], plan.scale, out=packed[:e_b])
    wih_f = packed[:e_ih].reshape(4, s, 1, d_in, hid)
    whh_f = packed[e_ih:e_hh].reshape(4, s, hid, hid)
    gates, hs = ws.gates, ws.hs
    np.matmul(xs, wih_f, out=ws.gates_in)
    # the bias repeated over B: broadcast, it would make numpy loop over hid
    np.add(gates, bias.reshape(4, s, 1, hid).repeat(b, axis=2), out=gates)
    rec, ig, half = ws.rec, ws.ig, plan.half
    matmul, add, multiply, tanh = np.matmul, np.add, np.multiply, np.tanh
    for z, ifo, ij, fj, oj, gj, h0, h1, c0, c1, tc in ws.steps:
        matmul(h0, whh_f, rec)
        add(z, rec, z)
        tanh(z, z)
        multiply(ifo, half, ifo)
        add(ifo, half, ifo)
        multiply(fj, c0, c1)
        multiply(ij, gj, ig)
        add(c1, ig, c1)
        tanh(c1, tc)
        multiply(oj, tc, h1)

    out = np.empty((b, t, plan.width), dtype)
    for k, (off, w, r) in enumerate(pieces):
        piece = hs[1:, k, :, :w].transpose(1, 0, 2)
        out[:, :, off:off + w] = piece[:, ::-1] if r else piece

    def backward(grad):
        gy = grad if batched else grad[None]
        ws.for_backward()
        dhs = ws.dhs
        for k, (off, w, r) in enumerate(pieces):
            piece = gy[..., off:off + w].transpose(1, 0, 2)
            dhs[:, k, :, :w] = piece[::-1] if r else piece
        dz = _bptt(ws, cat.take(plan.hh_back))
        flat = dz.reshape(s, b * t, 4 * hid)
        if u.requires_grad:
            # (N, 2, B, T, D_h): each head's fwd and rev input gradients
            dx = (flat @ cat.take(plan.ih_back)).reshape(n_heads, 2, b, t, -1)
            du = dx[:, 0] + dx[:, 1, :, ::-1]
            u._accumulate(du.transpose(1, 2, 0, 3).reshape(u.data.shape))
        if not any(tn.requires_grad for tn in params):
            return
        hprev = np.ascontiguousarray(hs[:-1].transpose(1, 2, 0, 3))
        g_hh = (flat.transpose(0, 2, 1) @ hprev.reshape(s, b * t, hid)).reshape(
            s, 4, hid, hid)
        g_b = flat.sum(axis=1).reshape(s, 4, hid)
        g_ih = (flat.transpose(0, 2, 1) @ xs.reshape(s, b * t, d_in)).reshape(
            s, 4, hid, d_in)
        for k, p in enumerate(scans):
            n = p.hidden
            for tn, gk in ((p.w_ih, g_ih[k, _GATES, :n]),
                           (p.w_hh, g_hh[k, _GATES, :n, :n]),
                           (p.b_ih, g_b[k, _GATES, :n]),
                           (p.b_hh, g_b[k, _GATES, :n])):
                if tn.requires_grad:
                    tn._accumulate(gk.reshape(tn.data.shape))

    node = T._make(out if batched else out[0], (u, *params), backward)
    if node._backward_fn is None:
        _workspaces.give(ws)
    else:
        # the graph's until its backward is freed; nothing runs at exit
        weakref.finalize(backward, _workspaces.released.append,
                         ws).atexit = False
    return node


def _bptt(ws, whh):
    """The gate gradients dz (S, B, T, 4, hid), image-major so that
    (S, B*T, 4*hid) feeds the weight GEMMs, of the scans of workspace
    ``ws``'s call, given the gradients ``ws.dhs`` (T, S, B, hid) of their
    hidden states and the unscaled recurrent weights ``whh`` (S, 4*hid,
    hid). It reads the forward's activations ``ws.gates`` (T, 4, S, B,
    hid), cell states ``ws.cs`` (T+1, S, B, hid) and their tanh ``ws.tcs``
    (T, S, B, hid), and computes in ``ws``'s BPTT buffers: the dz it
    returns is ``ws.dz``."""
    gates, cs, tcs, fac, dc_dh = ws.gates, ws.cs, ws.tcs, ws.fac, ws.dc_dh
    i, _, o, g = ws.ifog
    # every factor that does not depend on the recurrence, for all steps
    # at once and in the gates' layout: dz = dc * fac for i, f and g, and
    # dz = dh * fac for o; a step broadcasts dc over the gate axis
    np.subtract(1.0, gates[:, :3], out=fac[:, :3])
    np.multiply(fac[:, :3], gates[:, :3], out=fac[:, :3])
    np.multiply(fac[:, 0], g, out=fac[:, 0])
    np.multiply(fac[:, 1], cs[:-1], out=fac[:, 1])
    np.multiply(fac[:, 2], tcs, out=fac[:, 2])
    np.multiply(g, g, out=fac[:, 3])
    np.subtract(1.0, fac[:, 3], out=fac[:, 3])
    np.multiply(fac[:, 3], i, out=fac[:, 3])
    # dc_dh = o * (1 - tc^2)
    np.multiply(tcs, tcs, out=dc_dh)
    np.subtract(1.0, dc_dh, out=dc_dh)
    np.multiply(o, dc_dh, out=dc_dh)

    # the loop writes step j's (4, S, B, hid) into dz; dh_next and dc
    # start at zero
    ws.carry.fill(0)
    dh, ddc, dh_next, dc = ws.carry
    for dh_out, a, fz, dzj, dzf, fj in ws.back_steps:
        np.add(dh_out, dh_next, out=dh)
        np.multiply(dh, a, out=ddc)
        np.add(dc, ddc, out=dc)
        np.multiply(dc, fz, out=dzj)
        np.multiply(dh, fz[2], out=dzj[2])
        np.matmul(dzf, whh, out=dh_next)
        np.multiply(dc, fj, out=dc)
    return ws.dz


def bilstm_head(x, head):
    """(B,T,D_h) or (T,D_h) -> concat of forward and reverse scans.

    The reverse half is re-aligned to original token positions. Output
    width is fwd_hidden + rev_hidden (equal to 2*D_h when unpruned).
    """
    return scan_heads(x, [head[d] for d in DIRECTIONS])


def far_block_forward(x, p: FarBlockParams):
    """y = x + out_proj(BiLSTM scans of the N heads of in_proj(LN(x)))."""
    h = T.layer_norm(x, p.ln_g, p.ln_b)
    u = T.linear(h, p.in_w, p.in_b)
    return x + T.linear(scan_heads(u, p.scans), p.out_w, p.out_b)


def coupled(blk: FarBlockParams, k, units):
    """Indices of every weight coupled to hidden ``units`` of scan k.

    Returns ``(gate_rows, cols, out_rows)``: the rows of the gate-stacked
    w_ih, w_hh, b_ih and b_hh, gate-major (gate 0's row of every unit, then
    gate 1's, ...); the w_hh columns; and the out_w rows. The
    offsets come from the hidden sizes of the block's scans, so they hold
    for a shrunk block too.
    """
    units = np.asarray(units, dtype=np.intp)
    hid = blk.scans[k].hidden
    gate_rows = (np.arange(4)[:, None] * hid + units).ravel()
    start = sum(p.hidden for p in blk.scans[:k])
    return gate_rows, units, start + units


def live_units(blk: FarBlockParams, k):
    """Bool per unit of scan k: False where all its coupled weights are 0."""
    p = blk.scans[k]
    n = p.hidden
    rows, cols, out_rows = coupled(blk, k, np.arange(n))
    live = p.w_hh.data[:, cols].any(axis=0) | blk.out_w.data[out_rows].any(axis=1)
    for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
        live |= t.data[rows].reshape(4, n, -1).any(axis=(0, 2))
    return live


def shrink_block(blk: FarBlockParams, keep, prefix):
    """The tensor table of ``blk`` holding only the units of scan k where
    ``keep[k]`` is True, under the names ``blk.named(prefix)`` uses; every
    coupled matrix is re-packed. The tensors it does not re-pack are
    ``blk``'s own arrays: ``FarBlockParams.from_tensors`` or ``vit.Model``,
    which build the block from the table, copy them."""
    tensors = {n: t.data for n, t in blk.named(prefix).items()}
    out_rows = []
    for k in range(len(blk.scans)):
        rows, cols, out = coupled(blk, k, np.flatnonzero(keep[k]))
        q = _scan_name(prefix, k)
        for name in ("w_ih", "b_ih", "b_hh"):
            tensors[q + name] = tensors[q + name][rows]
        tensors[q + "w_hh"] = tensors[q + "w_hh"][np.ix_(rows, cols)]
        out_rows.append(out)
    tensors[f"{prefix}.out_w"] = blk.out_w.data[np.concatenate(out_rows)]
    return tensors


def live_tensors(model):
    """``model.named_parameters()`` with each FAR block that has a pruned
    unit re-packed by ``shrink_block``; a block with none keeps its own
    Tensors. A scan with no live unit keeps one all-zero unit, which is
    exact (its h and c stay 0) and keeps every width in the 1..head_dim that
    ``from_tensors`` accepts."""
    tensors = model.named_parameters()
    for i, (blk, masks) in enumerate(zip(model.mixers, model.masks)):
        if not all(m.all() for m in masks):
            keep = [m if m.any() else np.arange(m.size) == 0 for m in masks]
            tensors.update(shrink_block(blk, keep, f"far.{i}"))
    return tensors


def replace_attention(teacher, seed):
    """A ``vit.Model`` holding a copy of ``teacher``'s backbone, with a FAR
    block drawn from ``seed`` in place of every attention sublayer. Each
    block's LN starts as a copy of the attention sublayer's LN."""
    rng = np.random.default_rng(seed + 1)
    tensors = teacher.named_parameters()
    for i in range(teacher.cfg.layers):
        attention = {k: tensors.pop(f"layer.{i}.{k}") for k in vit.ATTENTION}
        tensors.update(init_far_block(teacher.cfg, rng).named(f"far.{i}"))
        tensors[f"far.{i}.ln_g"] = attention["ln1_g"]
        tensors[f"far.{i}.ln_b"] = attention["ln1_b"]
    return vit.Model(teacher.cfg, tensors)
