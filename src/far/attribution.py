"""Gradient-based interpretability: CLS-to-patch saliency and full
token-to-token dependency matrices.

Teacher maps come straight from the layer's softmax attention weights;
FAR maps are gradient attributions obtained by backpropagating a scalar
readout of a block's output tokens to the block's input tokens. Both
start from the layer's input, the prefix of the model's one layer loop
(``Backbone.tokens``).

Each thread keeps its last layer input (``_layer_input``), so the maps of
one request (a saliency per head, then the dependency map) run that
prefix once. The entry holds a copy of the image at the model's dtype,
the layer input and a copy of every parameter the prefix reads (up to
about the model's size: 354 KB for the f32 desk FAR model, 23 MB for the
f32 DeiT-Ti teacher), and no reference to the model. It is used again
only while the next call's model type, config, layer, image and those
parameters are byte-equal to it; any other call recomputes the prefix
and replaces it, so a weight changed in place, rebound or shrunk is never
read stale.
"""

import csv
import dataclasses
import threading

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .far_block import (BLOCK, DIRECTIONS, SCAN, bilstm_head, coupled,
                        far_block_forward, scan_of)
from .vit import TeacherModel

# Batch x token rows per batched pass of ``token_dependency``: a pass takes
# at most ROWS // T queries (at least 1). 65 * 65 runs every desk map
# (T=17, T=65) in one pass. For backward, each of a FAR block's 2N scans
# saves 8*H floats per row (4 gate activations, c, tanh(c), h and its
# input); at DeiT-S size (T=197, N=6 heads of H=64) that is 24.6 KB per
# f32 row, so one pass of all 197 queries (38,809 rows) would hold about
# 0.95 GB, and a pass of ROWS // 197 = 21 queries (4,137 rows) 0.10 GB.
# With the block's other graph nodes and the backward's temporaries, that
# DeiT-S map (10 passes) peaks at 0.42 GB (tracemalloc, f32).
ROWS = 65 * 65


# .entry: the thread's last (key, bytes, layer input) of ``_layer_input``
_memo = threading.local()


def _prefix_arrays(model, layer):
    """The array of every parameter ``model.tokens(image, stop=layer)``
    reads: the embedding's, then each layer's MLP and token mixer's."""
    arrays = [t.data for t in vars(model.embed).values()]
    teacher = isinstance(model, TeacherModel)
    for i, mlp in enumerate(model.mlps[:layer]):
        arrays += [t.data for t in vars(mlp).values()]
        if teacher:
            arrays += [t.data for t in vars(model.layers[i]).values()]
        else:
            blk = model.blocks[i]
            arrays += [getattr(blk, k).data for k in BLOCK]
            arrays += [getattr(p, k).data for p in blk.scans for k in SCAN]
    return arrays


def _layer_input(model, image, layer, head=None):
    """The input of ``layer`` for one image, (1, T, D), as a Tensor with no
    graph and a read-only array. A layer or head outside the model is an
    IndexError; a batch of more than one image is a ShapeError.

    The image is taken at the model's dtype, the dtype ``patch_embed``
    converts it to before any arithmetic. The thread's last result is
    returned again when the model type, config, layer, that image (shape,
    bytes) and the prefix's parameters (shapes, dtypes, bytes) all equal its
    call's; otherwise the prefix runs and its result replaces it."""
    if not 0 <= layer < model.cfg.layers:
        raise IndexError(f"layer {layer} out of range [0, {model.cfg.layers})")
    if head is not None and not 0 <= head < model.cfg.heads:
        raise IndexError(f"head {head} out of range [0, {model.cfg.heads})")
    img = np.asarray(image.data if isinstance(image, Tensor) else image,
                     T.DTYPES[model.cfg.precision])
    arrays = [np.ascontiguousarray(a)
              for a in [img] + _prefix_arrays(model, layer)]
    key = (type(model), tuple(vars(model.cfg).values()), layer,
           tuple((a.shape, a.dtype) for a in arrays))
    data = b"".join(arrays)
    entry = getattr(_memo, "entry", None)
    if entry is not None and entry[0] == key and entry[1] == data:
        return entry[2]
    x = model.tokens(img, stop=layer)[-1].data
    if x.shape[0] != 1:
        raise T.ShapeError(
            f"a map is of one image; got a batch of {x.shape[0]}")
    x = x.copy()
    x.flags.writeable = False
    x = Tensor(x)
    _memo.entry = (key, data, x)
    return x


def _minmax(arr):
    lo, hi = arr.min(), arr.max()
    if hi - lo == 0:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def cls_saliency(model, image, layer, head):
    """(grid x grid) min-max normalized importance of patches to the CLS.

    Teacher: the CLS row of the layer/head softmax attention. FAR: the
    magnitude of the gradient of the L2 norm of the head's CLS hidden
    state with respect to the layer's input tokens. Either takes the
    layer's input (``_layer_input``, the thread's kept one when it
    matches), then runs the one layer.
    """
    g = model.cfg.grid
    x = _layer_input(model, image, layer, head)
    if isinstance(model, TeacherModel):
        attn = model.attention_block(x, model.layers[layer])[1]
        return _minmax(attn.data[0, head, 0, 1:].reshape(g, g))

    # the layer's input as a leaf: on a frozen model, the only grad tensor
    leaf = Tensor(x.data, requires_grad=True)
    blk = model.blocks[layer]
    h = T.layer_norm(leaf, blk.ln_g, blk.ln_b)
    u = T.linear(h, blk.in_w, blk.in_b)
    dh = model.cfg.head_dim
    sub = u[..., head * dh:(head + 1) * dh]
    hh = bilstm_head(sub, blk.head(head))
    T.sqrt(T.tsum(T.square(hh[:, 0, :]))).backward()
    grad = leaf.grad[0, 1:, :]  # patch tokens
    sal = np.sqrt((grad * grad).sum(axis=-1))
    return _minmax(sal.reshape(g, g))


def token_dependency(model, image, layer, directions=DIRECTIONS):
    """Row-normalized (T x T) dependency of output tokens on input tokens.

    Teacher: the layer's head-averaged softmax attention, whose rows sum
    to 1. FAR: row q holds the per-token L2 norms of the gradient of
    output token q's L2 norm with respect to the layer's input tokens.
    Either takes the layer's input as ``cls_saliency`` does. For FAR the
    input is then repeated along the batch axis, one batch row per query,
    so one block forward and one backward give the rows of every query in
    a pass (batch rows do not interact). A pass takes at most
    ``ROWS // T`` queries (at least 1), which bounds the saved
    activations; a desk map is one pass.

    A FAR map of ``directions`` (a non-empty subset of ``DIRECTIONS``,
    else ValueError) runs every scan, in a copy of the block whose out_w
    rows coupled to the other scans' units (``far_block.coupled``) are
    zero: a zero row passes neither output nor gradient, so the map sees
    only the kept scans. A teacher has no scan direction: its map takes
    only all of ``DIRECTIONS``.
    """
    directions, teacher = tuple(directions), isinstance(model, TeacherModel)
    if teacher and set(directions) != set(DIRECTIONS):
        raise ValueError(f"a teacher map has no scan direction; directions "
                         f"must be {DIRECTIONS}, got {directions}")
    if not directions or any(d not in DIRECTIONS for d in directions):
        raise ValueError(f"directions must be a non-empty subset of "
                         f"{DIRECTIONS}; got {directions}")
    x = _layer_input(model, image, layer)
    if teacher:
        attn = model.attention_block(x, model.layers[layer])[1]
        return attn.data[0].mean(axis=0)

    t = model.cfg.tokens
    blk = model.blocks[layer]
    out_w = blk.out_w.data.copy()
    for k, p in enumerate(blk.scans):
        if scan_of(k)[1] not in directions:
            out_w[coupled(blk, k, np.arange(p.hidden))[2]] = 0.0
    blk = dataclasses.replace(blk, out_w=Tensor(out_w))
    x = x.data[0]
    dep = np.empty((t, t), x.dtype)
    step = max(1, ROWS // t)
    for start in range(0, t, step):
        queries = np.arange(start, min(start + step, t))
        n = len(queries)
        leaf = Tensor(np.repeat(x[None], n, axis=0), requires_grad=True)
        out = far_block_forward(leaf, blk)
        vecs = out[np.arange(n), queries]  # batch row k reads its query
        T.tsum(T.sqrt(T.tsum(T.square(vecs), axis=-1))).backward()
        dep[queries] = np.sqrt((leaf.grad * leaf.grad).sum(axis=-1))
    row_sums = dep.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0] = 1.0
    return dep / row_sums


def band_mass(dep, width):
    """Fraction of dependency mass within ``width`` of the diagonal."""
    t = dep.shape[0]
    mask = np.abs(np.subtract.outer(np.arange(t), np.arange(t))) <= width
    return float(dep[mask].sum() / dep.sum())


def uniform_band_mass(t, width):
    """``band_mass`` of a uniform (t x t) dependency map."""
    return band_mass(np.ones((t, t)), width)


def _write(path, mode, write):
    """Open ``path`` in ``mode`` and pass the file to ``write``; an OSError
    names the file."""
    try:
        with open(path, mode) as fh:
            write(fh)
    except OSError as exc:
        raise OSError(f"failed writing heatmap to {path}: {exc}") from exc


def export_heatmaps(matrices, path_prefix):
    """Write each matrix as an 8-bit PGM plus an exact CSV of raw values,
    each the ``repr`` of its float64."""
    written = []
    for name, mat in matrices.items():
        mat = np.asarray(mat, dtype=np.float64)
        pgm_path = f"{path_prefix}{name}.pgm"
        csv_path = f"{path_prefix}{name}.csv"
        scaled = np.round(_minmax(mat) * 255).astype(np.uint8)
        header = f"P5\n{mat.shape[1]} {mat.shape[0]}\n255\n"
        _write(pgm_path, "wb",
               lambda fh: fh.write(header.encode() + scaled.tobytes()))
        _write(csv_path, "w", lambda fh: csv.writer(
            fh, lineterminator="\n").writerows(mat.tolist()))
        written += [pgm_path, csv_path]
    return written

