import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from far import cli, distill
from far.checkpoint import load_model, save_model
from far import tensor as T
from far.tensor import Tensor
from far.vit import TeacherModel
from far.far_block import coupled, replace_attention, scan_of
from far.data import synth_dataset
from far.distill import TrainConfig, accuracy
from far.pruner import (group_hs, hoyer_penalty, hoyer_penalty_total,
                        prune_by_threshold, retention_report, shrink_model,
                        three_stage_pipeline, unit_sq_norms)

from conftest import desk_config


def _importance(blk, k):
    """L2 norm of every weight coupled to each unit of scan k, the
    importance ``prune_by_threshold`` ranks by."""
    return np.sqrt(unit_sq_norms([(blk, k)], extension=True)[0].data)


def _groups(n_groups, per_group):
    return [np.arange(g * per_group, (g + 1) * per_group)
            for g in range(n_groups)]


# -- group Hoyer-square scalar ------------------------------------------------

def test_group_hs_single_group_is_one():
    w = np.random.default_rng(0).normal(size=12)
    assert abs(group_hs(w, [np.arange(12)]) - 1.0) <= 1e-12


def test_group_hs_equal_norms_is_group_count():
    w = np.ones(20)
    assert abs(group_hs(w, _groups(5, 4)) - 5.0) <= 1e-12


def test_group_hs_two_pass_oracle():
    rng = np.random.default_rng(1)
    w = rng.normal(size=24)
    groups = _groups(6, 4)
    # independent two-pass computation
    norms = []
    for g in groups:
        s = 0.0
        for i in g:
            s += w[i] * w[i]
        norms.append(np.sqrt(s))
    expect = sum(norms) ** 2 / sum(n * n for n in norms)
    assert abs(group_hs(w, groups) - expect) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 100.0))
def test_group_hs_scale_invariance(scale):
    rng = np.random.default_rng(2)
    w = rng.normal(size=18)
    groups = _groups(3, 6)
    a = group_hs(w, groups)
    b = group_hs(w * scale, groups)
    assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_group_hs_bounds():
    rng = np.random.default_rng(3)
    for trial in range(10):
        w = rng.normal(size=30)
        v = group_hs(w, _groups(6, 5))
        assert 1.0 - 1e-12 <= v <= 6.0 + 1e-12


def test_group_hs_all_zero_warns(caplog):
    with caplog.at_level("WARNING"):
        assert group_hs(np.zeros(8), _groups(2, 4)) == 0.0
    assert any("all-zero" in r.message for r in caplog.records)


# -- per-unit squared norms ---------------------------------------------------

def _hand_sq_norms(blk, k, extension):
    """Per unit, a plain float loop over the indices ``coupled`` gives."""
    p = blk.scans[k]
    out = []
    for j in range(p.hidden):
        rows, cols, out_rows = coupled(blk, k, [j])
        vals = [v for r in rows for t in (p.w_ih, p.w_hh)
                for v in t.data[r]]
        if extension:
            vals += [t.data[r] for r in rows for t in (p.b_ih, p.b_hh)]
            vals += list(p.w_hh.data[:, cols[0]])  # diagonal counted again
            vals += list(blk.out_w.data[out_rows[0]])
        total = 0.0
        for v in vals:
            total += float(v) * float(v)
        out.append(total)
    return np.array(out)


def _old_composite(blk, k, extension):
    """The (hidden, G) composite matrix whose row norms the group norms
    once were: gate-major reshapes and transposes, then one concatenation.
    The out_w offset is counted here, independently of ``coupled``."""
    p = blk.scans[k]
    hid, din = p.hidden, p.w_ih.data.shape[1]
    w_hh = p.w_hh.data.reshape(4, hid, hid)
    parts = [p.w_ih.data.reshape(4, hid, din).transpose(1, 0, 2),
             w_hh.transpose(1, 0, 2)]
    if extension:
        start = sum(q.hidden for q in blk.scans[:k])
        parts += [w_hh.transpose(2, 0, 1), p.b_ih.data.reshape(4, hid).T,
                  p.b_hh.data.reshape(4, hid).T,
                  blk.out_w.data[start:start + hid]]
    return np.concatenate([x.reshape(hid, -1) for x in parts], axis=1)


def _scans(model):
    return [(blk, k) for blk in model.mixers for k in range(len(blk.scans))]


@pytest.fixture(params=["full", "shrunk"])
def widths_f64(request):
    far = replace_attention(TeacherModel(desk_config("f64"), seed=4), seed=4)
    if request.param == "full":
        return far
    prune_by_threshold(far, 0.9, mode="relative")
    shrunk = shrink_model(far)
    assert any(p.hidden < far.cfg.head_dim for blk in shrunk.mixers
               for p in blk.scans)
    return shrunk


@pytest.mark.parametrize("extension", [False, True])
def test_unit_sq_norms_sum_the_coupled_set(widths_f64, extension):
    for blk, k in _scans(widths_f64):
        sq = unit_sq_norms([(blk, k)], extension=extension)[0]
        assert sq.shape == (blk.scans[k].hidden,)
        np.testing.assert_allclose(
            sq.data, _hand_sq_norms(blk, k, extension), rtol=1e-12)


def test_unit_sq_norms_count_the_recurrent_diagonal_twice():
    far = replace_attention(TeacherModel(desk_config("f64"), seed=5), seed=5)
    blk = far.mixers[0]
    p = blk.scans[3]  # head 1 rev
    for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
        t.data[:] = 0.0
    blk.out_w.data[:] = 0.0
    j, dh = 2, p.hidden
    p.w_hh.data[2 * dh + j, j] = 3.0  # cell-gate row of unit j, column j
    np.testing.assert_array_equal(
        unit_sq_norms([(blk, 3)], extension=False)[0].data,
        np.eye(dh)[j] * 9.0)
    np.testing.assert_array_equal(
        unit_sq_norms([(blk, 3)], extension=True)[0].data,
        np.eye(dh)[j] * 18.0)


@pytest.mark.parametrize("extension", [False, True])
def test_unit_sq_norms_zero_unit_is_zero(extension):
    far = replace_attention(TeacherModel(desk_config("f64"), seed=7), seed=7)
    blk, j = far.mixers[1], 2
    p = blk.scans[1]  # head 0 rev
    rows, cols, out_rows = coupled(blk, 1, [j])
    for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
        t.data[rows] = 0.0
    p.w_hh.data[:, cols] = 0.0
    blk.out_w.data[out_rows] = 0.0
    sq = unit_sq_norms([(blk, 1)], extension=extension)[0].data
    assert sq[j] == 0.0
    assert np.all(np.delete(sq, j) > 0.0)


@pytest.mark.parametrize("extension", [False, True])
def test_norms_and_penalty_match_the_old_composite(widths_f64, extension):
    comps = [_old_composite(blk, k, extension)
             for blk, k in _scans(widths_f64)]
    for (blk, k), comp in zip(_scans(widths_f64), comps):
        np.testing.assert_allclose(
            unit_sq_norms([(blk, k)], extension=extension)[0].data,
            (comp * comp).sum(axis=1), rtol=1e-12)
        if extension:
            np.testing.assert_allclose(_importance(blk, k),
                                       np.linalg.norm(comp, axis=1),
                                       rtol=1e-12)
    hs = [group_hs(comp, [np.arange(r * comp.shape[1], (r + 1) * comp.shape[1])
                          for r in range(comp.shape[0])]) for comp in comps]
    np.testing.assert_allclose(
        hoyer_penalty_total(widths_f64, extension=extension).item(),
        sum(hs), rtol=1e-12)
    np.testing.assert_allclose(
        hoyer_penalty_total(widths_f64, extension=extension,
                            reduce="mean").item(),
        sum(hs) / len(hs), rtol=1e-12)


# -- differentiable penalty -------------------------------------------------------

def test_hoyer_penalty_matches_group_hs():
    rng = np.random.default_rng(9)
    wl = rng.normal(size=(6, 10))
    groups = [np.arange(r * 10, (r + 1) * 10) for r in range(6)]
    np.testing.assert_allclose(hoyer_penalty((wl * wl).sum(axis=1)).item(),
                               group_hs(wl, groups), atol=1e-12)


def test_hoyer_penalty_single_alive_row_is_one():
    sq = np.zeros(5)
    sq[3] = 2.7
    assert abs(hoyer_penalty(sq).item() - 1.0) <= 1e-12


def test_hoyer_penalty_gradient_fd():
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(0.1, 2.0, size=8), requires_grad=True)
    hoyer_penalty(x).backward()
    for i in range(8):
        h = 1e-6
        lp = hoyer_penalty(x.data + h * np.eye(8)[i]).item()
        lm = hoyer_penalty(x.data - h * np.eye(8)[i]).item()
        fd = (lp - lm) / (2 * h)
        assert abs(x.grad[i] - fd) / max(1.0, abs(x.grad[i])) <= 1e-5


def test_hoyer_penalty_zero_rows_get_zero_grad():
    rng = np.random.default_rng(12)
    data = rng.normal(size=(4, 6))
    data[1] = 0.0
    x = Tensor(data, requires_grad=True)
    hoyer_penalty(T.tsum(T.square(x), axis=1)).backward()
    np.testing.assert_array_equal(x.grad[1], np.zeros(6))
    assert np.abs(x.grad[[0, 2, 3]]).max() > 0


@pytest.mark.parametrize("reduce", ["Mean", "max", "", None])
def test_hoyer_penalty_total_rejects_unknown_reduce(far_f64, reduce):
    """Only "sum" and "mean" reduce the terms; any other value is named
    rather than summed."""
    with pytest.raises(ValueError, match=f"reduce must be 'sum' or 'mean', "
                                         f"got {reduce!r}"):
        hoyer_penalty_total(far_f64, reduce=reduce)


def test_hoyer_penalty_total_bounds(far_f64):
    cfg = far_f64.cfg
    n_terms = cfg.layers * cfg.heads * 2
    val = hoyer_penalty_total(far_f64).item()
    assert n_terms * 1.0 <= val <= n_terms * cfg.head_dim + 1e-9
    mean_val = hoyer_penalty_total(far_f64, reduce="mean").item()
    np.testing.assert_allclose(mean_val, val / n_terms, rtol=1e-12)


def _per_scan_sq_norms(block, k, extension):
    """The per-scan graph of the unit norms, kept as the oracle of the
    stacked one."""
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


def _per_scan_penalty_total(model, extension, reduce):
    """One Hoyer graph per scan, summed term by term: the oracle of
    ``hoyer_penalty_total``."""
    terms = []
    for blk, k in _scans(model):
        sq = _per_scan_sq_norms(blk, k, extension)
        m = (sq.data > 0.0).astype(sq.data.dtype)
        norms = T.sqrt(sq * Tensor(m) + Tensor(1.0 - m)) * Tensor(m)
        terms.append(T.square(T.tsum(norms)) / T.tsum(T.square(norms)))
    total = sum(terms[1:], terms[0])
    return total * (1.0 / len(terms)) if reduce == "mean" else total


def _penalty_and_grads(model, penalty):
    """The penalty's value and the gradient it gives every tensor."""
    named = model.named_parameters()
    for p in named.values():
        p.requires_grad, p.grad = True, None
    value = penalty(model)
    (value * 0.02).backward()
    grads = {n: p.grad for n, p in named.items()}
    for p in named.values():
        p.requires_grad, p.grad = False, None
    return value.data, grads


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("widths", ["full", "shrunk"])
@pytest.mark.parametrize("extension", [False, True])
@pytest.mark.parametrize("reduce", ["sum", "mean"])
def test_one_graph_penalty_is_the_per_scan_sum_bit_for_bit(
        precision, widths, extension, reduce):
    far = replace_attention(TeacherModel(desk_config(precision), seed=14),
                            seed=14)
    if widths == "shrunk":
        prune_by_threshold(far, 0.97, mode="relative")
        far = shrink_model(far)
        assert len({p.hidden for blk in far.mixers for p in blk.scans}) > 1
    value, grads = _penalty_and_grads(
        far, lambda m: hoyer_penalty_total(m, extension, reduce))
    ref, ref_grads = _penalty_and_grads(
        far, lambda m: _per_scan_penalty_total(m, extension, reduce))
    assert value.dtype == ref.dtype and value == ref
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        if ref_grads[name] is None:
            assert g is None, name
        else:
            np.testing.assert_array_equal(g, ref_grads[name], err_msg=name)


@pytest.mark.parametrize("extension", [False, True])
def test_one_graph_penalty_gradient_fd(extension):
    far = replace_attention(TeacherModel(desk_config("f64"), seed=15),
                            seed=15)
    prune_by_threshold(far, 0.9, mode="relative")  # some dead units too
    _, grads = _penalty_and_grads(
        far, lambda m: hoyer_penalty_total(m, extension))
    named = far.named_parameters()
    blk = far.mixers[2]
    rows, cols, out_rows = coupled(blk, 1, [0, 5])
    picks = [("far.2.0.rev.w_ih", (rows[1], 3)),
             ("far.2.0.rev.w_hh", (rows[6], cols[1])),
             ("far.0.1.fwd.w_hh", (4, 9))]
    if extension:  # the extended set adds biases and out_w rows
        picks += [("far.2.0.rev.b_ih", (rows[2],)),
                  ("far.2.out_w", (out_rows[0], 7))]
    else:
        assert grads["far.2.0.rev.b_ih"] is None
        assert grads["far.2.out_w"] is None
    step = 1e-5
    for name, at in picks:
        t = named[name].data
        orig = t[at]
        t[at] = orig + step
        up = hoyer_penalty_total(far, extension).item()
        t[at] = orig - step
        down = hoyer_penalty_total(far, extension).item()
        t[at] = orig
        fd = 0.02 * (up - down) / (2 * step)
        assert grads[name][at] != 0.0, name
        np.testing.assert_allclose(grads[name][at], fd, rtol=1e-5, atol=1e-10,
                                   err_msg=name)


@pytest.mark.parametrize("extension", [False, True])
def test_one_graph_penalty_nodes_do_not_grow_with_scans(monkeypatch,
                                                        extension):
    """A 2-layer and a 4-layer model record the same graph nodes."""
    calls = []
    make = T._make

    def counting_make(*args):
        calls.append(1)
        return make(*args)

    monkeypatch.setattr(T, "_make", counting_make)
    counts = []
    for layers in (2, 4):
        cfg = dataclasses.replace(desk_config(), layers=layers)
        far = replace_attention(TeacherModel(cfg, seed=16), seed=16)
        calls.clear()
        hoyer_penalty_total(far, extension)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= (36 if extension else 20)


# -- thresholding, zeroing and shrinking ------------------------------------------

def test_tau_zero_retains_everything(far_f64):
    prune_by_threshold(far_f64, 0.0, mode="absolute")
    assert all(r["retained"] == r["total"] for r in retention_report(far_f64))


def test_threshold_keeps_clearly_large_units():
    cfg = desk_config("f64")
    teacher = TeacherModel(cfg, seed=13)
    far = replace_attention(teacher, seed=13)
    dh = cfg.head_dim
    # craft layer 0's scan 0 (head 0 fwd): unit 0 large, all others tiny
    p = far.mixers[0].scans[0]
    for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
        t.data[:] = 1e-6
    for g in range(4):
        p.w_ih.data[g * dh, :] = 1.0
        p.w_hh.data[g * dh, 0] = 1.0  # keep off-diagonal columns tiny
    far.mixers[0].out_w.data[:dh] = 1e-6
    far.mixers[0].out_w.data[0] = 1.0
    prune_by_threshold(far, 1e-4, mode="absolute")
    keep = far.masks[0][0]
    assert keep[0]
    assert not keep[1:].any()


def test_floor_rule_keeps_max_norm_unit(far_f64):
    prune_by_threshold(far_f64, 1e9, mode="absolute")
    for layer in far_f64.masks:
        for keep in layer:
            assert keep.sum() == 1


def test_relative_mode_uses_max_norm():
    cfg = desk_config("f64")
    far = replace_attention(TeacherModel(cfg, seed=14), seed=14)
    blk = far.mixers[0]
    norms = _importance(blk, 0)
    tau = 0.5
    expect = norms > tau * norms.max()
    prune_by_threshold(far, tau, mode="relative")
    np.testing.assert_array_equal(far.masks[0][0], expect)


def test_negative_threshold_rejected(far_f64):
    with pytest.raises(ValueError):
        prune_by_threshold(far_f64, -1e-6, mode="absolute")


@pytest.mark.parametrize("mode", ["absolute", "relative"])
def test_nan_threshold_rejected_and_nothing_pruned(far_f64, mode):
    """A nan tau compares false with every norm, so it would prune every
    unit but each scan's argmax."""
    before = {n: t.data.copy() for n, t in far_f64.named_parameters().items()}
    with pytest.raises(ValueError, match="threshold must be non-negative, "
                                         "got nan"):
        prune_by_threshold(far_f64, float("nan"), mode=mode)
    for n, t in far_f64.named_parameters().items():
        np.testing.assert_array_equal(t.data, before[n])


@pytest.mark.parametrize("mode", ["Relative", "percentile", ""])
def test_unknown_mode_rejected_and_nothing_pruned(far_f64, mode):
    """A mode outside MODES is named, not thresholded as absolute."""
    before = {n: t.data.copy() for n, t in far_f64.named_parameters().items()}
    with pytest.raises(ValueError, match=f"pruning mode must be one of "
                                         f".*got {mode!r}"):
        prune_by_threshold(far_f64, 0.97, mode=mode)
    for n, t in far_f64.named_parameters().items():
        np.testing.assert_array_equal(t.data, before[n])


def test_prune_zeroes_exactly_the_coupled_set():
    cfg = desk_config("f64")
    far = replace_attention(TeacherModel(cfg, seed=15), seed=15)
    dh = cfg.head_dim
    rows, cols, out_rows = coupled(far.mixers[0], 3, [3])  # head 1 rev
    assert rows.tolist() == [g * dh + 3 for g in range(4)]
    assert cols.tolist() == [3]
    assert out_rows.tolist() == [3 * dh + 3]

    expect = {n: t.data.copy() for n, t in far.named_parameters().items()}
    dropped = 0
    for l, blk in enumerate(far.mixers):
        for k in range(2 * cfg.heads):
            h, d = scan_of(k)
            norms = _importance(blk, k)
            drop = np.flatnonzero(norms <= 0.9 * norms.max())
            dropped += len(drop)
            rows, cols, out_rows = coupled(blk, k, drop)
            for name in ("w_ih", "w_hh", "b_ih", "b_hh"):
                expect[f"far.{l}.{h}.{d}.{name}"][rows] = 0.0
            expect[f"far.{l}.{h}.{d}.w_hh"][:, cols] = 0.0
            expect[f"far.{l}.out_w"][out_rows] = 0.0
    prune_by_threshold(far, 0.9, mode="relative")
    assert dropped > 0
    for name, t in far.named_parameters().items():
        np.testing.assert_array_equal(t.data, expect[name], err_msg=name)


def test_masked_forward_matches_shrunk_model():
    cfg = desk_config("f64")
    teacher = TeacherModel(cfg, seed=16)
    far = replace_attention(teacher, seed=16)
    prune_by_threshold(far, 0.9, mode="relative")
    rows = retention_report(far)
    assert any(r["retained"] < r["total"] for r in rows)
    shrunk = shrink_model(far)
    rng = np.random.default_rng(16)
    img = rng.normal(size=(2, 3, 32, 32))
    a, _ = far.forward(img)
    b, _ = shrunk.forward(img)
    assert np.abs(a.data - b.data).max() <= 1e-12


def test_shrunk_importance_and_penalty_match_zeroed_live_units():
    cfg = desk_config("f64")
    far = replace_attention(TeacherModel(cfg, seed=17), seed=17)
    prune_by_threshold(far, 0.9, mode="relative")
    shrunk = shrink_model(far)
    assert any(p.hidden < cfg.head_dim for blk in shrunk.mixers
               for p in blk.scans)
    for blk, small, live in zip(far.mixers, shrunk.mixers, far.masks):
        for k in range(2 * cfg.heads):
            np.testing.assert_allclose(_importance(small, k),
                                       _importance(blk, k)[live[k]],
                                       rtol=1e-12)
    np.testing.assert_allclose(
        hoyer_penalty_total(shrunk, extension=True).item(),
        hoyer_penalty_total(far, extension=True).item(), rtol=1e-12)


def test_weight_zero_masks_cover_pruned_entries():
    """The masks read back from the weights mark exactly the pruned units,
    and every weight coupled to a masked unit is zero."""
    cfg = desk_config("f64")
    far = replace_attention(TeacherModel(cfg, seed=17), seed=17)
    drops = [[np.flatnonzero(_importance(blk, k)
                             <= 0.9 * _importance(blk, k).max())
              for k in range(2 * cfg.heads)] for blk in far.mixers]
    prune_by_threshold(far, 0.9, mode="relative")
    assert any(len(units) for layer in drops for units in layer)
    for blk, keep, drop in zip(far.mixers, far.masks, drops):
        for k, p in enumerate(blk.scans):
            assert keep[k].shape == (p.hidden,)
            assert np.flatnonzero(~keep[k]).tolist() == drop[k].tolist()
            rows, cols, out_rows = coupled(blk, k, drop[k])
            for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
                assert np.all(t.data[rows] == 0.0)
            assert np.all(p.w_hh.data[:, cols] == 0.0)
            assert np.all(blk.out_w.data[out_rows] == 0.0)


def test_regularization_drives_group_sparsity():
    """Hoyer gradient steps shrink small units faster than large ones."""
    far = replace_attention(TeacherModel(desk_config("f64"), seed=18), seed=18)
    blk = far.mixers[0]
    p = blk.scans[0]
    p.w_ih.requires_grad = p.w_hh.requires_grad = True  # born frozen
    # make unit 0 dominant
    rows = coupled(blk, 0, [0])[0]
    p.w_ih.data[rows] *= 10.0
    before = np.sqrt(unit_sq_norms([(blk, 0)], extension=False)[0].data)
    start = hoyer_penalty(before * before).item()
    for _ in range(200):
        loss = hoyer_penalty(unit_sq_norms([(blk, 0)], extension=False)[0])
        for t in (p.w_ih, p.w_hh):
            t.grad = None
        loss.backward()
        for t in (p.w_ih, p.w_hh):
            t.data -= 0.05 * t.grad
    after = np.sqrt(unit_sq_norms([(blk, 0)], extension=False)[0].data)
    # dominant unit survives, tail shrinks relative to it
    assert after[0] / after[1:].max() > before[0] / before[1:].max()
    final = hoyer_penalty(unit_sq_norms([(blk, 0)], extension=False)[0])
    assert final.item() < start


def test_retention_report_row_count(far_f64):
    rows = retention_report(far_f64)
    cfg = far_f64.cfg
    assert len(rows) == cfg.layers * cfg.heads * 2
    assert all(r["ratio"] == 1.0 for r in rows)


def test_retention_rows_name_each_scan_by_layer_head_direction(far_f64):
    """One row per scan, layer-major, each scan's head and direction in
    coupled order, and its retained count read from its mask."""
    prune_by_threshold(far_f64, 0.9, mode="relative")
    rows = retention_report(far_f64)
    assert [(r["layer"], r["head"], r["direction"]) for r in rows] == [
        (l, h, d) for l in range(far_f64.cfg.layers)
        for h in range(far_f64.cfg.heads) for d in ("fwd", "rev")]
    assert [r["retained"] for r in rows] == [
        int(keep.sum()) for layer in far_f64.masks for keep in layer]


def test_report_csv_round_trip(tmp_path, far_f64):
    """``far prune --report`` holds the retention report of the model it
    saves, one line per scan."""
    path, out, report = (tmp_path / n for n in
                         ("far.farc", "pruned.farc", "retention.csv"))
    save_model(far_f64, path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[prune]\nthreshold = 0.9\nthreshold_mode = relative\n"
                       "reg_epochs = 0\nfinetune_epochs = 0\n[data]\nn = 20\n")
    assert cli.main(["prune", "--config", str(cfgfile), "--checkpoint",
                     str(path), "--out", str(out), "--report",
                     str(report)]) == 0
    rows = retention_report(load_model(out))
    assert any(r["retained"] < r["total"] for r in rows)
    with open(report, newline="") as fh:
        assert list(csv.DictReader(fh)) == [
            {**{k: str(v) for k, v in r.items()}, "ratio": f"{r['ratio']:.6f}"}
            for r in rows]


def test_pipeline_noop_when_alpha_and_tau_zero():
    cfg = desk_config()
    teacher = TeacherModel(cfg, seed=19)
    far = replace_attention(teacher, seed=19)
    ds = synth_dataset(19, 40, 10, 32)
    before = {n: p.data.copy() for n, p in far.named_parameters().items()}
    reg = TrainConfig(phase="prune-regularize", lr=0.0, epochs=1,
                      batch_size=20, seed=19, warmup_epochs=0,
                      weight_decay=0.0)
    tune = TrainConfig(phase="prune-finetune", lr=0.0, epochs=1,
                       batch_size=20, seed=19, warmup_epochs=0,
                       weight_decay=0.0)
    rows = three_stage_pipeline(far, teacher, ds, reg, tune,
                                tau=0.0, mode="absolute", reg_coeff=0.0)
    assert all(r["ratio"] == 1.0 for r in rows)
    for n, p in far.named_parameters().items():
        np.testing.assert_array_equal(before[n], p.data)


def test_pipeline_smoke_prunes_and_keeps_accuracy_finite():
    cfg = desk_config()
    teacher = TeacherModel(cfg, seed=20)
    far = replace_attention(teacher, seed=20)
    ds = synth_dataset(20, 40, 10, 32)
    reg = TrainConfig(phase="prune-regularize", lr=5e-4, epochs=2,
                      batch_size=20, seed=20, warmup_epochs=0,
                      weight_decay=0.0)
    tune = TrainConfig(phase="prune-finetune", lr=5e-5, epochs=2,
                       batch_size=20, seed=20, warmup_epochs=0,
                       weight_decay=0.0)
    rows = three_stage_pipeline(far, teacher, ds, reg, tune,
                                tau=0.9, mode="relative", reg_coeff=1e-3)
    assert any(r["ratio"] < 1.0 for r in rows)
    # the finetuned model is shrunk: no all-zero unit, widths = retained
    widths = [p.hidden for blk in far.mixers for p in blk.scans]
    assert widths == [r["retained"] for r in rows]
    assert all(keep.all() for layer in far.masks for keep in layer)
    assert 0.0 <= accuracy(far, ds, "val") <= 1.0


def test_train_teacher_and_pipeline_read_their_configs_without_writing():
    teacher = TeacherModel(desk_config(), seed=22)
    ds = synth_dataset(22, 20, 10, 32)
    # each left at the default phase, which no call below runs in
    tcfg, reg, tune = (TrainConfig(lr=1e-3, epochs=1, batch_size=20, seed=22,
                                   warmup_epochs=0) for _ in range(3))
    before = [dataclasses.replace(c) for c in (tcfg, reg, tune)]
    assert distill.train_teacher(teacher, ds, tcfg)[0]["phase"] == "teacher"
    rows = []
    three_stage_pipeline(replace_attention(teacher, seed=22), teacher, ds,
                         reg, tune, tau=0.9, mode="relative", reg_coeff=1e-3,
                         log_rows=rows)
    assert [r["phase"] for r in rows] == ["prune-regularize", "prune-finetune"]
    assert [tcfg, reg, tune] == before


@pytest.mark.parametrize("kwargs,name", [({"tau": -1e-6}, "tau"),
                                         ({"reg_coeff": -1.0}, "reg_coeff"),
                                         ({"tau": float("nan")}, "tau"),
                                         ({"reg_coeff": float("nan")},
                                          "reg_coeff")])
def test_pipeline_rejects_negative_values_before_training(monkeypatch, kwargs,
                                                          name):
    calls = []
    monkeypatch.setattr(distill, "run_phase",
                        lambda *args, **kw: calls.append(args) or [])
    cfg = desk_config()
    far = replace_attention(TeacherModel(cfg, seed=21), seed=21)
    ds = synth_dataset(21, 20, 10, 32)
    reg = TrainConfig(phase="prune-regularize", epochs=1, batch_size=20)
    tune = TrainConfig(phase="prune-finetune", epochs=1, batch_size=20)
    with pytest.raises(ValueError, match=f"{name} must be non-negative"):
        three_stage_pipeline(far, None, ds, reg, tune,
                             **{"tau": 1e-4, "mode": "absolute",
                                "reg_coeff": 1e-4, **kwargs})
    assert calls == []


def test_pipeline_rejects_unknown_mode_before_training(monkeypatch):
    calls = []
    monkeypatch.setattr(distill, "run_phase",
                        lambda *args, **kw: calls.append(args) or [])
    cfg = desk_config()
    far = replace_attention(TeacherModel(cfg, seed=21), seed=21)
    ds = synth_dataset(21, 20, 10, 32)
    reg = TrainConfig(phase="prune-regularize", epochs=1, batch_size=20)
    tune = TrainConfig(phase="prune-finetune", epochs=1, batch_size=20)
    with pytest.raises(ValueError, match="pruning mode must be one of .*"
                                         "got 'Relative'"):
        three_stage_pipeline(far, None, ds, reg, tune, tau=0.97,
                             mode="Relative", reg_coeff=1e-4)
    assert calls == []


@pytest.mark.parametrize("call", [
    lambda m: prune_by_threshold(m, 0.5, "relative"),
    lambda m: hoyer_penalty_total(m),
], ids=["prune_by_threshold", "hoyer_penalty_total"])
def test_a_model_with_no_far_layer_is_named(call):
    with pytest.raises(ValueError, match="the model has no FAR layer"):
        call(TeacherModel(desk_config(), seed=0))


def test_pipeline_rejects_a_model_with_no_far_layer_before_training(
        monkeypatch):
    calls = []
    monkeypatch.setattr(distill, "run_phase",
                        lambda *args, **kw: calls.append(args) or [])
    teacher = TeacherModel(desk_config(), seed=21)
    ds = synth_dataset(21, 20, 10, 32)
    reg = TrainConfig(phase="prune-regularize", epochs=1, batch_size=20)
    tune = TrainConfig(phase="prune-finetune", epochs=1, batch_size=20)
    with pytest.raises(ValueError, match="the model has no FAR layer"):
        three_stage_pipeline(teacher, None, ds, reg, tune, tau=0.97,
                             mode="relative", reg_coeff=1e-4)
    assert calls == []
