"""Group Hoyer-square regularization and gate-coordinated pruning.

A group is one hidden unit, and its norm runs over the unit's weights as
``far_block.coupled`` indexes them (``unit_sq_norms``). The penalty sees
the mandatory set, the unit's gate rows of W_ih and W_hh; the importance
that thresholding ranks by sees the whole coupled set. Thresholding zeroes
every weight coupled to a removed unit (its gate rows, W_hh column, bias
entries and output-projection row), and that all-zero group is the only
record that the unit was pruned: it outputs exactly zero and receives zero
gradient, so it stays zero through further training. ``shrink_model``
then drops such units physically.
"""

import copy
import logging

import numpy as np

from . import distill
from . import tensor as T
from .tensor import Tensor
from .far_block import (FarBlockParams, FarModel, coupled, scan_of,
                        shrink_block)

log = logging.getLogger(__name__)

MODES = ("absolute", "relative")


def group_hs(w, groups):
    """Group Hoyer-square: (sum of group L2 norms)^2 / sum of squared norms,
    as ``hoyer_penalty`` computes it for training.

    ``groups`` is a partition of the flattened entries of ``w`` given as
    index arrays. All-zero input returns 0 by convention.
    """
    flat = np.asarray(w.data if isinstance(w, Tensor) else w).ravel()
    sq = [np.square(flat[np.asarray(g)]).sum() for g in groups]
    return hoyer_penalty(np.array(sq)).item()


def unit_sq_norms(block: FarBlockParams, k, extension):
    """(hidden,) Tensor: per hidden unit of scan k, the sum of squares of
    its coupled weights, wired into the autodiff graph.

    The mandatory set is the unit's four gate rows of w_ih and w_hh. With
    ``extension`` it adds the unit's w_hh column, both bias entries and its
    out_w row; the w_hh diagonal entry then counts in the row and the column.
    """
    p = block.scans[k]
    hid = p.hidden
    rows, cols, out_rows = coupled(block, k, np.arange(hid))
    hh_sq = T.square(p.w_hh)
    gate_sq = T.tsum(T.square(p.w_ih), axis=1) + T.tsum(hh_sq, axis=1)
    if extension:
        gate_sq = gate_sq + T.square(p.b_ih) + T.square(p.b_hh)
    sq = T.tsum(gate_sq[rows.reshape(4, hid)], axis=0)
    if extension:
        sq = (sq + T.tsum(hh_sq, axis=0)[cols]
              + T.tsum(T.square(block.out_w[out_rows]), axis=1))
    return sq


def hoyer_penalty(sq):
    """Differentiable group Hoyer-square of groups with squared L2 norms
    ``sq``: (sum of norms)^2 / sum of squared norms.

    Exactly-zero groups contribute nothing and receive zero gradient
    (subgradient convention); all-zero input scores 0.
    """
    sq = T.as_tensor(sq)
    alive = sq.data > 0.0
    if not alive.any():
        log.warning("hoyer_penalty of all-zero groups; returning 0")
        return Tensor(np.zeros((), dtype=sq.data.dtype))
    m = alive.astype(sq.data.dtype)
    norms = T.sqrt(sq * Tensor(m) + Tensor(1.0 - m)) * Tensor(m)
    num = T.square(T.tsum(norms))
    den = T.tsum(T.square(norms))
    return num / den


def hoyer_penalty_total(far_model: FarModel, extension=False, reduce="sum"):
    """Sum (or mean) of the Hoyer penalties of every scan of every layer."""
    if reduce not in ("sum", "mean"):
        raise ValueError(f"reduce must be 'sum' or 'mean', got {reduce!r}")
    terms = [hoyer_penalty(unit_sq_norms(blk, k, extension=extension))
             for blk in far_model.blocks for k in range(len(blk.scans))]
    total = sum(terms[1:], terms[0])
    if reduce == "mean":
        total = total * (1.0 / len(terms))
    return total


def unit_importance(block: FarBlockParams, k):
    """L2 norm of every weight coupled to each unit of scan k (the extended
    set), used for threshold selection."""
    return np.sqrt(unit_sq_norms(block, k, extension=True).data)


def prune_by_threshold(far_model: FarModel, tau, mode):
    """Zero, in place, every unit whose importance is at most tau.

    ``mode`` is one of ``MODES``; 'relative' reads tau as a fraction of the
    scan's max importance. The max-importance unit is always kept (floor
    rule). A pruned unit loses its gate rows, W_hh column, biases, out_w row.
    """
    if not tau >= 0:  # also a nan, which every comparison would keep
        raise ValueError(f"pruning threshold must be non-negative, got {tau}")
    if mode not in MODES:
        raise ValueError(f"pruning mode must be one of {MODES}, got {mode!r}")
    for blk in far_model.blocks:
        for k, p in enumerate(blk.scans):
            norms = unit_importance(blk, k)
            cut = tau * norms.max() if mode == "relative" else tau
            drop = ~(norms > cut)
            drop[int(norms.argmax())] = False
            rows, cols, out_rows = coupled(blk, k, np.flatnonzero(drop))
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
        for k, keep in enumerate(layer):
            (h, d), kept = scan_of(k), int(keep.sum())
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
                         tau, mode, reg_coeff, log_rows=None):
    """Regularize -> threshold-prune and shrink -> finetune the shrunk model.

    ``far_model`` is shrunk in place: its blocks are replaced. A negative
    or nan ``tau`` or ``reg_coeff``, or a bad mode, fails before training.
    """
    for name, value in (("tau", tau), ("reg_coeff", reg_coeff)):
        if not value >= 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if mode not in MODES:
        raise ValueError(f"pruning mode must be one of {MODES}, got {mode!r}")
    reg_cfg.phase = "prune-regularize"
    if reg_coeff > 0:
        def extra():
            return hoyer_penalty_total(far_model) * reg_coeff
    else:
        extra = None
    distill.run_phase(far_model, teacher, dataset, reg_cfg,
                      extra_loss=extra, log_rows=log_rows)

    prune_by_threshold(far_model, tau, mode=mode)
    far_model.blocks = shrink_model(far_model).blocks

    tune_cfg.phase = "prune-finetune"
    distill.run_phase(far_model, teacher, dataset, tune_cfg, log_rows=log_rows)
    return retention_report(far_model)
