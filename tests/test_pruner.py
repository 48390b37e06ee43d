import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from far import tensor as T
from far.tensor import Tensor
from far.vit import TeacherModel
from far.far_block import DIRECTIONS, coupled, init_lstm_dir, replace_attention
from far.data import synth_dataset
from far.distill import TrainConfig, accuracy
from far.pruner import (composite_matrix, group_hs, hoyer_penalty,
                        hoyer_penalty_total, prune_by_threshold,
                        report_to_csv, retention_report, shrink_model,
                        three_stage_pipeline, unit_importance)

from conftest import desk_config


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


# -- composite matrix -----------------------------------------------------------

def test_composite_mandatory_width():
    dh, d = 64, 192
    p = init_lstm_dir(np.random.default_rng(4), dh, dh, "f64")
    wl = composite_matrix(p)
    assert wl.shape == (dh, 4 * dh + 4 * dh)  # 512 at D_h = 64
    assert wl.shape[1] == 512


def test_composite_extension_width():
    dh, d = 64, 192
    p = init_lstm_dir(np.random.default_rng(5), dh, dh, "f64")
    out_rows = Tensor(np.random.default_rng(5).normal(size=(dh, d)))
    wl = composite_matrix(p, out_rows, extension=True)
    # 4*64 + 4*64 (rows) + 4*64 (cols) + 4 + 4 (biases) + 192 = 968
    assert wl.shape == (dh, 968)


def test_composite_row_collects_unit_slices():
    dh = 3
    p = init_lstm_dir(np.random.default_rng(6), dh, dh, "f64")
    j = 1
    row = composite_matrix(p).data[j]
    expect = np.concatenate(
        [p.w_ih.data[g * dh + j] for g in range(4)] +
        [p.w_hh.data[g * dh + j] for g in range(4)])
    np.testing.assert_array_equal(row, expect)


def test_composite_zero_unit_zero_row():
    dh = 4
    p = init_lstm_dir(np.random.default_rng(7), dh, dh, "f64")
    j = 2
    for g in range(4):
        p.w_ih.data[g * dh + j] = 0.0
        p.w_hh.data[g * dh + j] = 0.0
    wl = composite_matrix(p).data
    assert np.all(wl[j] == 0.0)
    assert np.all(np.linalg.norm(wl[[0, 1, 3]], axis=1) > 0)


def test_composite_out_proj_row_mismatch():
    p = init_lstm_dir(np.random.default_rng(8), 4, 4, "f64")
    with pytest.raises(T.ShapeError):
        composite_matrix(p, Tensor(np.zeros((5, 8))), extension=True)


# -- differentiable penalty -------------------------------------------------------

def test_hoyer_penalty_matches_group_hs():
    rng = np.random.default_rng(9)
    wl = rng.normal(size=(6, 10))
    groups = [np.arange(r * 10, (r + 1) * 10) for r in range(6)]
    np.testing.assert_allclose(hoyer_penalty(wl).item(),
                               group_hs(wl, groups), atol=1e-12)


def test_hoyer_penalty_single_alive_row_is_one():
    wl = np.zeros((5, 8))
    wl[3] = np.random.default_rng(10).normal(size=8)
    assert abs(hoyer_penalty(wl).item() - 1.0) <= 1e-12


def test_hoyer_penalty_gradient_fd():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    hoyer_penalty(x).backward()
    flat = x.data.ravel()
    an = x.grad.ravel()
    for i in rng.choice(30, size=10, replace=False):
        h = 1e-6
        orig = flat[i]
        flat[i] = orig + h
        lp = hoyer_penalty(Tensor(x.data)).item()
        flat[i] = orig - h
        lm = hoyer_penalty(Tensor(x.data)).item()
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(an[i] - fd) / max(1.0, abs(an[i])) <= 1e-5


def test_hoyer_penalty_zero_rows_get_zero_grad():
    rng = np.random.default_rng(12)
    data = rng.normal(size=(4, 6))
    data[1] = 0.0
    x = Tensor(data, requires_grad=True)
    hoyer_penalty(x).backward()
    np.testing.assert_array_equal(x.grad[1], np.zeros(6))
    assert np.abs(x.grad[[0, 2, 3]]).max() > 0


def test_hoyer_penalty_total_bounds(far_f64):
    cfg = far_f64.cfg
    n_terms = cfg.layers * cfg.heads * 2
    val = hoyer_penalty_total(far_f64).item()
    assert n_terms * 1.0 <= val <= n_terms * cfg.head_dim + 1e-9
    mean_val = hoyer_penalty_total(far_f64, reduce="mean").item()
    np.testing.assert_allclose(mean_val, val / n_terms, rtol=1e-12)


# -- thresholding, zeroing and shrinking ------------------------------------------

def test_tau_zero_retains_everything(far_f64):
    prune_by_threshold(far_f64, 0.0)
    assert all(r["retained"] == r["total"] for r in retention_report(far_f64))


def test_threshold_keeps_clearly_large_units():
    cfg = desk_config("f64")
    teacher = TeacherModel(cfg, seed=13)
    far = replace_attention(teacher, seed=13)
    dh = cfg.head_dim
    # craft head (0,0,fwd): unit 0 large, all others tiny
    p = far.blocks[0].heads[0]["fwd"]
    for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
        t.data[:] = 1e-6
    for g in range(4):
        p.w_ih.data[g * dh, :] = 1.0
        p.w_hh.data[g * dh, 0] = 1.0  # keep off-diagonal columns tiny
    far.blocks[0].out_w.data[:dh] = 1e-6
    far.blocks[0].out_w.data[0] = 1.0
    prune_by_threshold(far, 1e-4, mode="absolute")
    keep = far.masks[0][0]["fwd"]
    assert keep[0]
    assert not keep[1:].any()


def test_floor_rule_keeps_max_norm_unit(far_f64):
    prune_by_threshold(far_f64, 1e9, mode="absolute")
    for layer in far_f64.masks:
        for head in layer.values():
            for keep in head.values():
                assert keep.sum() == 1


def test_relative_mode_uses_max_norm():
    cfg = desk_config("f64")
    far = replace_attention(TeacherModel(cfg, seed=14), seed=14)
    blk = far.blocks[0]
    norms = unit_importance(blk, 0, "fwd")
    tau = 0.5
    expect = norms > tau * norms.max()
    prune_by_threshold(far, tau, mode="relative")
    np.testing.assert_array_equal(far.masks[0][0]["fwd"], expect)


def test_negative_threshold_rejected(far_f64):
    with pytest.raises(ValueError):
        prune_by_threshold(far_f64, -1e-6)


def test_prune_zeroes_exactly_the_coupled_set():
    cfg = desk_config("f64")
    far = replace_attention(TeacherModel(cfg, seed=15), seed=15)
    dh = cfg.head_dim
    rows, cols, out_rows = coupled(far.blocks[0], 1, "rev", [3])
    assert rows.tolist() == [g * dh + 3 for g in range(4)]
    assert cols.tolist() == [3]
    assert out_rows.tolist() == [3 * dh + 3]

    expect = {n: t.data.copy() for n, t in far.named_parameters().items()}
    dropped = 0
    for l, blk in enumerate(far.blocks):
        for h in range(cfg.heads):
            for d in DIRECTIONS:
                norms = unit_importance(blk, h, d)
                drop = np.flatnonzero(norms <= 0.9 * norms.max())
                dropped += len(drop)
                rows, cols, out_rows = coupled(blk, h, d, drop)
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
    assert any(p.hidden < cfg.head_dim for blk in shrunk.blocks
               for head in blk.heads for p in head.values())
    for blk, small, live in zip(far.blocks, shrunk.blocks, far.masks):
        for h in range(cfg.heads):
            for d in DIRECTIONS:
                np.testing.assert_allclose(
                    unit_importance(small, h, d),
                    unit_importance(blk, h, d)[live[h][d]], rtol=1e-12)
    np.testing.assert_allclose(
        hoyer_penalty_total(shrunk, extension=True).item(),
        hoyer_penalty_total(far, extension=True).item(), rtol=1e-12)


def test_weight_zero_masks_cover_pruned_entries():
    """The masks read back from the weights mark exactly the pruned units,
    and every weight coupled to a masked unit is zero."""
    cfg = desk_config("f64")
    far = replace_attention(TeacherModel(cfg, seed=17), seed=17)
    drops = [{h: {d: np.flatnonzero(unit_importance(blk, h, d)
                                    <= 0.9 * unit_importance(blk, h, d).max())
                  for d in DIRECTIONS} for h in range(cfg.heads)}
             for blk in far.blocks]
    prune_by_threshold(far, 0.9, mode="relative")
    assert any(len(units) for layer in drops for head in layer.values()
               for units in head.values())
    for blk, keep, drop in zip(far.blocks, far.masks, drops):
        for h in range(cfg.heads):
            for d in DIRECTIONS:
                assert keep[h][d].shape == (blk.heads[h][d].hidden,)
                assert np.flatnonzero(~keep[h][d]).tolist() == drop[h][d].tolist()
                p = blk.heads[h][d]
                rows, cols, out_rows = coupled(blk, h, d, drop[h][d])
                for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
                    assert np.all(t.data[rows] == 0.0)
                assert np.all(p.w_hh.data[:, cols] == 0.0)
                assert np.all(blk.out_w.data[out_rows] == 0.0)


def test_regularization_drives_group_sparsity():
    """Hoyer gradient steps shrink small units faster than large ones."""
    rng = np.random.default_rng(18)
    p = init_lstm_dir(rng, 8, 8, "f64")
    p.w_ih.requires_grad = p.w_hh.requires_grad = True  # born frozen
    # make unit 0 dominant
    for g in range(4):
        p.w_ih.data[g * 8] *= 10.0
    before = np.linalg.norm(composite_matrix(p).data, axis=1)
    for _ in range(200):
        wl = composite_matrix(p)
        loss = hoyer_penalty(wl)
        for t in (p.w_ih, p.w_hh):
            t.grad = None
        loss.backward()
        for t in (p.w_ih, p.w_hh):
            t.data -= 0.05 * t.grad
    after = np.linalg.norm(composite_matrix(p).data, axis=1)
    # dominant unit survives, tail shrinks relative to it
    assert after[0] / after[1:].max() > before[0] / before[1:].max()
    assert hoyer_penalty(composite_matrix(p)).item() < 8.0


def test_retention_report_row_count(far_f64):
    rows = retention_report(far_f64)
    cfg = far_f64.cfg
    assert len(rows) == cfg.layers * cfg.heads * 2
    assert all(r["ratio"] == 1.0 for r in rows)


def test_report_csv_round_trip(tmp_path, far_f64):
    prune_by_threshold(far_f64, 0.5, mode="relative")
    rows = retention_report(far_f64)
    path = tmp_path / "retention.csv"
    report_to_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "layer,head,direction,retained,total,ratio"
    assert len(lines) == 1 + len(rows)


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
                                tau=0.0, reg_coeff=0.0)
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
    widths = [p.hidden for blk in far.blocks for head in blk.heads
              for p in (head["fwd"], head["rev"])]
    assert widths == [r["retained"] for r in rows]
    assert all(keep.all() for layer in far.masks for head in layer.values()
               for keep in head.values())
    assert 0.0 <= accuracy(far, ds, "val") <= 1.0
