"""Gradient-based interpretability: CLS-to-patch saliency and full
token-to-token dependency matrices.

Teacher maps come straight from softmax attention weights; FAR maps are
gradient attributions obtained by backpropagating a scalar readout of a
block's output tokens to the block's input tokens.
"""

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .far_block import DIRECTIONS, bilstm_head, far_block_forward
from .vit import TeacherModel

SCALARIZATIONS = ("norm", "sum", "logit")


def _check_range(model, layer, head=None):
    if not 0 <= layer < model.cfg.layers:
        raise IndexError(f"layer {layer} out of range [0, {model.cfg.layers})")
    if head is not None and not 0 <= head < model.cfg.heads:
        raise IndexError(f"head {head} out of range [0, {model.cfg.heads})")


def _minmax(arr):
    lo, hi = arr.min(), arr.max()
    if hi - lo == 0:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def cls_saliency(model, image, layer, head, scalarize="norm",
                 directions=DIRECTIONS):
    """(grid x grid) min-max normalized importance of patches to the CLS.

    Teacher: the CLS row of the layer/head softmax attention. FAR: the
    magnitude of the gradient of a scalar readout of the head's CLS
    hidden state with respect to the layer's input tokens.
    """
    _check_range(model, layer, head)
    g = model.cfg.grid
    if isinstance(model, TeacherModel):
        _, _, attns = model.forward(image, collect_attn=True)
        row = attns[layer].data[0, head, 0, 1:]  # CLS row, patch columns
        return _minmax(row.reshape(g, g))

    if scalarize not in SCALARIZATIONS:
        raise ValueError(f"unknown scalarization {scalarize!r}")
    # the layer's input as a leaf: on a frozen model, the only grad tensor
    leaf = Tensor(model.tokens(image, stop=layer)[-1].data, requires_grad=True)
    blk = model.blocks[layer]
    h = T.layer_norm(leaf, blk.ln_g, blk.ln_b)
    u = T.matmul(h, blk.in_w) + blk.in_b
    sub = T.split(u, model.cfg.heads, axis=-1)[head]
    hh = bilstm_head(sub, blk.heads[head], directions=directions)
    cls_vec = hh[:, 0, :]
    if scalarize == "norm":
        target = T.sqrt(T.tsum(T.square(cls_vec)))
    elif scalarize == "sum":
        target = T.tsum(cls_vec)
    else:  # logit: push the head state through out_proj and max logit
        full = far_block_forward(leaf, blk, directions=directions)
        logits = model.classify(model.mlp_block(full, model.mlps[layer]))
        target = logits[0, int(logits.data[0].argmax())]
    target.backward()
    grad = leaf.grad[0, 1:, :]  # patch tokens
    sal = np.sqrt((grad * grad).sum(axis=-1))
    return _minmax(sal.reshape(g, g))


def token_dependency(model, image, layer, directions=DIRECTIONS):
    """Row-normalized (T x T) dependency of output tokens on input tokens."""
    _check_range(model, layer)
    if isinstance(model, TeacherModel):
        _, _, attns = model.forward(image, collect_attn=True)
        dep = attns[layer].data[0].mean(axis=0)  # head-averaged, rows sum to 1
        return dep

    t = model.cfg.tokens
    dep = np.zeros((t, t))
    blk = model.blocks[layer]
    x = model.tokens(image, stop=layer)[-1].data
    for q in range(t):
        leaf = Tensor(x, requires_grad=True)
        out = far_block_forward(leaf, blk, directions=directions)
        vec = out[:, q, :]
        target = T.sqrt(T.tsum(T.square(vec)))
        target.backward()
        grad = leaf.grad[0]
        dep[q] = np.sqrt((grad * grad).sum(axis=-1))
    row_sums = dep.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0] = 1.0
    return dep / row_sums


def band_mass(dep, width=1):
    """Fraction of dependency mass within ``width`` of the diagonal."""
    t = dep.shape[0]
    mask = np.abs(np.subtract.outer(np.arange(t), np.arange(t))) <= width
    return float(dep[mask].sum() / dep.sum())


def uniform_band_mass(t, width=1):
    mask = np.abs(np.subtract.outer(np.arange(t), np.arange(t))) <= width
    return float(mask.sum() / (t * t))


def export_heatmaps(matrices, path_prefix):
    """Write each matrix as an 8-bit PGM plus an exact CSV of raw values."""
    written = []
    for name, mat in matrices.items():
        mat = np.asarray(mat, dtype=np.float64)
        pgm_path = f"{path_prefix}{name}.pgm"
        csv_path = f"{path_prefix}{name}.csv"
        scaled = np.round(_minmax(mat) * 255).astype(np.uint8)
        try:
            with open(pgm_path, "wb") as fh:
                header = f"P5\n{mat.shape[1]} {mat.shape[0]}\n255\n"
                fh.write(header.encode() + scaled.tobytes())
            with open(csv_path, "w") as fh:
                for row in mat:
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
        except OSError as exc:
            raise OSError(f"failed writing heatmap to {pgm_path}: {exc}") from exc
        written += [pgm_path, csv_path]
    return written


def read_heatmap_csv(path):
    with open(path) as fh:
        return np.array([[float(v) for v in line.strip().split(",")]
                         for line in fh if line.strip()])
