"""Group Hoyer-square regularization and gate-coordinated pruning.

A group is one hidden unit, and its norm runs over the unit's weights as
``far_block.coupled`` indexes them (``unit_sq_norms``). The penalty sees
the mandatory set, the unit's gate rows of W_ih and W_hh; the importance
that thresholding ranks by sees the whole coupled set. Thresholding zeroes
every weight coupled to a removed unit (its gate rows, W_hh column, bias
entries and output-projection row), and that all-zero group is the only
record that the unit was pruned: it outputs exactly zero and receives zero
gradient, so it stays zero through further training. ``shrink_model``
then drops such units physically, and so does ``checkpoint.save_model``:
every saved FAR checkpoint holds only live units, whether or not the model
was shrunk first. The training penalty, ``hoyer_penalty_total``, is one
graph over all scans of all layers.
"""

import dataclasses
import logging

import numpy as np

from . import distill
from . import tensor as T
from .tensor import Tensor
from .far_block import FarModel, coupled, live_tensors, scan_of

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


def unit_sq_norms(scans, extension):
    """(len(scans), hidden) Tensor, one graph: row i holds, per hidden unit
    of scan k of block blk, where (blk, k) is ``scans[i]``, the sum of
    squares of its coupled weights. The scans share one hidden width.

    The mandatory set is the unit's four gate rows of w_ih and w_hh. With
    ``extension`` it adds the unit's w_hh column, both bias entries and its
    out_w row; the w_hh diagonal entry then counts in the row and the column.
    The scans' tensors are stacked, so every sum runs over rows of the
    length it has for one scan and equals that scan's bit for bit.
    """
    ps = [blk.scans[k] for blk, k in scans]
    n, hid = len(ps), ps[0].hidden
    idx = [coupled(blk, k, np.arange(hid)) for blk, k in scans]

    def stack(name):
        return T.concat([getattr(p, name) for p in ps], axis=0)

    hh_sq = T.square(stack("w_hh"))  # (n * 4 * hid, hid)
    gate_sq = (T.tsum(T.square(stack("w_ih")), axis=1)
               + T.tsum(hh_sq, axis=1))
    if extension:
        gate_sq = gate_sq + T.square(stack("b_ih")) + T.square(stack("b_hh"))
    rows = np.stack([r + i * 4 * hid for i, (r, _, _) in enumerate(idx)])
    sq = T.tsum(gate_sq[rows.reshape(n, 4, hid)], axis=1)
    if extension:
        cols = np.stack([c + i * hid for i, (_, c, _) in enumerate(idx)])
        col_sq = T.tsum(T.reshape(hh_sq, (n, 4 * hid, hid)), axis=1)
        # each block's out_w once, in first-seen order
        blocks = list({id(blk): blk for blk, _ in scans}.values())
        start = dict(zip(map(id, blocks), np.cumsum(
            [0] + [blk.out_w.shape[0] for blk in blocks]).tolist()))
        out_rows = np.stack([o + start[id(blk)]
                             for (blk, _), (_, _, o) in zip(scans, idx)])
        out_w = T.concat([blk.out_w for blk in blocks], axis=0)
        sq = (sq + T.reshape(col_sq, (n * hid,))[cols]
              + T.tsum(T.square(out_w[out_rows]), axis=2))
    return sq


def hoyer_penalty(sq):
    """Differentiable group Hoyer-square of groups with squared L2 norms
    ``sq``: (sum of norms)^2 / sum of squared norms, over the last axis,
    so a (rows, groups) ``sq`` gives one ratio per row.

    Exactly-zero groups contribute nothing and receive zero gradient
    (subgradient convention); a row of all-zero groups scores 0.
    """
    sq = T.as_tensor(sq)
    alive = sq.data > 0.0
    dead = ~alive.any(axis=-1)
    if dead.any():
        log.warning("hoyer_penalty of all-zero groups; %d row(s) score 0",
                    int(dead.sum()))
    m = alive.astype(sq.data.dtype)
    norms = T.sqrt(sq * Tensor(m) + Tensor(1.0 - m)) * Tensor(m)
    num = T.square(T.tsum(norms, axis=-1))
    den = T.tsum(T.square(norms), axis=-1)
    if dead.any():  # 0 / 1 for a dead row; a live row's den gains an exact 0
        den = den + Tensor(dead.astype(sq.data.dtype))
    return num / den


def _sum_in_order(terms):
    """The sum of the (n,) Tensor ``terms`` added first to last, as Python's
    ``sum`` adds scalars (``tsum`` sums pairwise, in another order)."""
    def backward(g):
        terms._accumulate(np.broadcast_to(g, terms.shape))

    return T._make(np.add.accumulate(terms.data)[-1], (terms,), backward)


def _by_width(far_model: FarModel):
    """The (block, k) of every scan of ``far_model`` in lists of one hidden
    width (one list, before shrinking), and each one's position in scan
    order, in the same sequence."""
    scans = [(blk, k) for blk in far_model.blocks
             for k in range(len(blk.scans))]
    groups = {}
    for i, (blk, k) in enumerate(scans):
        groups.setdefault(blk.scans[k].hidden, []).append(i)
    return ([[scans[i] for i in pos] for pos in groups.values()],
            np.concatenate(list(groups.values())))


def hoyer_penalty_total(far_model: FarModel, extension=False, reduce="sum"):
    """Sum (or mean) of the Hoyer penalties of every scan of every layer,
    as one graph whatever the number of scans.

    The scans of one hidden width are stacked into one ``unit_sq_norms`` and
    one row-wise ``hoyer_penalty``; the terms are summed in scan order. The
    value is the sum of the per-scan penalties bit for bit, and so is its
    gradient.
    """
    if reduce not in ("sum", "mean"):
        raise ValueError(f"reduce must be 'sum' or 'mean', got {reduce!r}")
    groups, order = _by_width(far_model)
    terms = [hoyer_penalty(unit_sq_norms(scans, extension))
             for scans in groups]
    if len(terms) > 1:  # back to scan order
        terms = [T.concat(terms, axis=0)[np.argsort(order)]]
    total = _sum_in_order(terms[0])
    if reduce == "mean":
        total = total * (1.0 / len(order))
    return total


def prune_by_threshold(far_model: FarModel, tau, mode):
    """Zero, in place, every unit whose importance, the L2 norm of all its
    coupled weights (``unit_sq_norms`` with ``extension``), is at most tau.

    ``mode`` is one of ``MODES``; 'relative' reads tau as a fraction of the
    scan's max importance. The max-importance unit is always kept (floor
    rule). A pruned unit loses its gate rows, W_hh column, biases, out_w row.
    Scans share no coupled weight, so the importances of a whole width
    group are read at once, before any of its units is zeroed.
    """
    if not tau >= 0:  # also a nan, which every comparison would keep
        raise ValueError(f"pruning threshold must be non-negative, got {tau}")
    if mode not in MODES:
        raise ValueError(f"pruning mode must be one of {MODES}, got {mode!r}")
    for scans in _by_width(far_model)[0]:
        importance = np.sqrt(unit_sq_norms(scans, extension=True).data)
        for (blk, k), norms in zip(scans, importance):
            p = blk.scans[k]
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

    Returns a new FarModel built from ``live_tensors(far_model)``: it holds
    a copy of the backbone, and each scan keeps only its live units, so its
    hidden size equals the retained count (1 for a scan with none).
    """
    return FarModel(far_model.cfg, live_tensors(far_model))


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


def three_stage_pipeline(far_model, teacher, dataset, reg_cfg, tune_cfg,
                         tau, mode, reg_coeff, log_rows=None):
    """Regularize -> threshold-prune and shrink -> finetune the shrunk model.

    ``far_model`` is shrunk in place: its blocks are replaced, and each
    phase's epoch rows are appended to ``log_rows`` when given. A negative
    or nan ``tau`` or ``reg_coeff``, or a bad mode, fails before training.
    """
    for name, value in (("tau", tau), ("reg_coeff", reg_coeff)):
        if not value >= 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if mode not in MODES:
        raise ValueError(f"pruning mode must be one of {MODES}, got {mode!r}")
    reg_cfg = dataclasses.replace(reg_cfg, phase="prune-regularize")
    if reg_coeff > 0:
        def extra():
            return hoyer_penalty_total(far_model) * reg_coeff
    else:
        extra = None
    rows = [] if log_rows is None else log_rows
    rows += distill.run_phase(far_model, teacher, dataset, reg_cfg,
                              extra_loss=extra)

    prune_by_threshold(far_model, tau, mode=mode)
    far_model.blocks = shrink_model(far_model).blocks

    tune_cfg = dataclasses.replace(tune_cfg, phase="prune-finetune")
    rows += distill.run_phase(far_model, teacher, dataset, tune_cfg)
    return retention_report(far_model)
