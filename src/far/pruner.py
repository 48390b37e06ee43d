"""Group Hoyer-square regularization and gate-coordinated pruning.

The penalty sees the mandatory composite rows (W_ih rows + W_hh rows per
gate). Thresholding zeroes every weight coupled to a removed hidden unit
(its gate rows, W_hh columns, bias entries and output-projection rows),
and that all-zero group is the only record that the unit was pruned: it
outputs exactly zero and receives zero gradient, so it stays zero through
further training. ``shrink_model`` then drops such units physically.
"""

import copy
import logging

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .far_block import (DIRECTIONS, FarBlockParams, FarModel, LstmDirParams,
                        coupled, shrink_block)

log = logging.getLogger(__name__)


def group_hs(w, groups):
    """Group Hoyer-square: (sum of group L2 norms)^2 / sum of squared norms.

    ``groups`` is a partition of the flattened entries of ``w`` given as
    index arrays. All-zero input returns 0 by convention.
    """
    flat = np.asarray(w.data if isinstance(w, Tensor) else w).ravel()
    norms = np.array([np.linalg.norm(flat[np.asarray(g)]) for g in groups])
    denom = (norms * norms).sum()
    if denom == 0.0:
        log.warning("group_hs of all-zero tensor; returning 0 by convention")
        return 0.0
    return float(norms.sum() ** 2 / denom)


def composite_matrix(p: LstmDirParams, out_proj_rows=None, extension=False):
    """Row j concatenates every weight slice coupled to hidden unit j.

    Mandatory slices: row j of each of the four gate blocks of W_ih and
    W_hh. With ``extension``, also the W_hh columns, both bias entries
    and the matching output-projection rows. Returns a (hidden, G)
    Tensor wired into the autodiff graph.
    """
    hid = p.hidden
    din = p.input_size
    ih_rows = T.reshape(T.transpose(T.reshape(p.w_ih, (4, hid, din)),
                                    (1, 0, 2)), (hid, 4 * din))
    hh_rows = T.reshape(T.transpose(T.reshape(p.w_hh, (4, hid, hid)),
                                    (1, 0, 2)), (hid, 4 * hid))
    parts = [ih_rows, hh_rows]
    if extension:
        hh_cols = T.reshape(T.transpose(T.reshape(p.w_hh, (4, hid, hid)),
                                        (2, 0, 1)), (hid, 4 * hid))
        b_ih = T.transpose(T.reshape(p.b_ih, (4, hid)))
        b_hh = T.transpose(T.reshape(p.b_hh, (4, hid)))
        parts += [hh_cols, b_ih, b_hh]
        if out_proj_rows is not None:
            if out_proj_rows.shape[0] != hid:
                raise T.ShapeError(
                    f"out_proj slice has {out_proj_rows.shape[0]} rows, "
                    f"expected {hid}")
            parts.append(out_proj_rows)
    return T.concat(parts, axis=1)


def hoyer_penalty(wl):
    """Differentiable row-group Hoyer-square of a composite matrix.

    Exactly-zero rows contribute nothing and receive zero gradient
    (subgradient convention); an all-zero matrix scores 0.
    """
    wl = wl if isinstance(wl, Tensor) else Tensor(wl)
    row_sq = T.tsum(T.square(wl), axis=1)
    alive = row_sq.data > 0.0
    if not alive.any():
        log.warning("hoyer_penalty of all-zero matrix; returning 0")
        return Tensor(np.zeros((), dtype=wl.data.dtype))
    m = alive.astype(wl.data.dtype)
    norms = T.sqrt(row_sq * Tensor(m) + Tensor(1.0 - m)) * Tensor(m)
    num = T.square(T.tsum(norms))
    den = T.tsum(T.square(norms))
    return num / den


def _out_proj_slice(block: FarBlockParams, head, direction):
    hid = block.heads[head][direction].hidden
    return block.out_w[coupled(block, head, direction, np.arange(hid))[2]]


def hoyer_penalty_total(far_model: FarModel, extension=False, reduce="sum"):
    """Sum (or mean) of per-(layer, head, direction) Hoyer penalties."""
    terms = []
    for blk in far_model.blocks:
        for h, head in enumerate(blk.heads):
            for d in DIRECTIONS:
                opr = _out_proj_slice(blk, h, d) if extension else None
                terms.append(hoyer_penalty(
                    composite_matrix(head[d], opr, extension=extension)))
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    if reduce == "mean":
        total = total * (1.0 / len(terms))
    return total


def unit_importance(block: FarBlockParams, head, direction, extension=True):
    """Composite row L2 norms used for threshold selection."""
    p = block.heads[head][direction]
    opr = _out_proj_slice(block, head, direction) if extension else None
    wl = composite_matrix(p, opr, extension=extension)
    return np.sqrt((wl.data * wl.data).sum(axis=1))


def prune_by_threshold(far_model: FarModel, tau, mode="absolute",
                       extension=True):
    """Zero, in place, every unit whose composite row norm is at most tau.

    ``mode='relative'`` interprets tau as a fraction of the scan's max
    row norm. The max-norm unit is always kept (floor rule). A pruned
    unit loses its gate rows, W_hh columns, biases and out_proj rows.
    """
    if tau < 0:
        raise ValueError("pruning threshold must be non-negative")
    for blk in far_model.blocks:
        for h, head in enumerate(blk.heads):
            for d in DIRECTIONS:
                norms = unit_importance(blk, h, d, extension=extension)
                cut = tau * norms.max() if mode == "relative" else tau
                drop = ~(norms > cut)
                drop[int(norms.argmax())] = False
                rows, cols, out_rows = coupled(blk, h, d, np.flatnonzero(drop))
                p = head[d]
                for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
                    t.data[rows] = 0.0
                p.w_hh.data[:, cols] = 0.0
                blk.out_w.data[out_rows] = 0.0


def shrink_model(far_model: FarModel):
    """Physically remove pruned units, re-packing every coupled matrix.

    Returns a new FarModel sharing the backbone; each scan keeps only its
    live units, so its hidden size equals the retained count.
    """
    shrunk = copy.copy(far_model)
    shrunk.blocks = [shrink_block(blk, keep) for blk, keep in
                     zip(far_model.blocks, far_model.masks)]
    return shrunk


def retention_report(far_model: FarModel):
    """Rows of (layer, head, direction, retained, total, ratio): live units
    against ``cfg.head_dim``, for zeroed and shrunk models alike."""
    total = far_model.cfg.head_dim
    rows = []
    for l, layer in enumerate(far_model.masks):
        for h, head in layer.items():
            for d in DIRECTIONS:
                kept = int(head[d].sum())
                rows.append({"layer": l, "head": h, "direction": d,
                             "retained": kept, "total": total,
                             "ratio": kept / total})
    return rows


def report_to_csv(rows, path):
    with open(path, "w") as fh:
        fh.write("layer,head,direction,retained,total,ratio\n")
        for r in rows:
            fh.write(f"{r['layer']},{r['head']},{r['direction']},"
                     f"{r['retained']},{r['total']},{r['ratio']:.6f}\n")


def three_stage_pipeline(far_model, teacher, dataset, reg_cfg, tune_cfg,
                         tau=1e-4, mode="absolute", reg_coeff=1e-4,
                         extension=True, penalty_reduce="sum", log_rows=None):
    """Regularize -> threshold-prune and shrink -> finetune the shrunk model.

    ``far_model`` is shrunk in place: its blocks are replaced.
    """
    from .distill import run_phase

    reg_cfg.phase = "prune-regularize"
    if reg_coeff > 0:
        def extra():
            return hoyer_penalty_total(
                far_model, extension=False, reduce=penalty_reduce) * reg_coeff
    else:
        extra = None
    run_phase(far_model, teacher, dataset, reg_cfg,
              extra_loss=extra, log_rows=log_rows)

    prune_by_threshold(far_model, tau, mode=mode, extension=extension)
    far_model.blocks = shrink_model(far_model).blocks

    tune_cfg.phase = "prune-finetune"
    run_phase(far_model, teacher, dataset, tune_cfg, log_rows=log_rows)
    return retention_report(far_model)
