import numpy as np
import pytest

from far import tensor as T
from far.tensor import ShapeError, Tensor
from far.vit import ModelConfig, TeacherModel
from far.far_block import (DIRECTIONS, FarModel, bilstm_head,
                           far_block_forward, init_far_block, init_lstm_dir,
                           lstm_step, replace_attention)
from far.profiler import _attn_layer_params, _far_layer_params, _mlp_params

from conftest import desk_config


def _zero_dir(dh, din=None):
    din = din or dh
    return init_lstm_dir(np.random.default_rng(0), din, dh, "f64")


def test_lstm_step_all_zero_state():
    dh = 4
    p = _zero_dir(dh)
    for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
        t.data[:] = 0.0
    h, c = lstm_step(T.zeros(dh, "f64"), T.zeros(dh, "f64"),
                     T.zeros(dh, "f64"), p)
    np.testing.assert_array_equal(h.data, np.zeros(dh))
    np.testing.assert_array_equal(c.data, np.zeros(dh))


def test_lstm_step_forget_saturation_preserves_cell():
    dh = 4
    p = _zero_dir(dh)
    for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
        t.data[:] = 0.0
    p.b_ih.data[dh:2 * dh] = 60.0  # forget gate saturated open
    c0 = np.array([0.3, -0.7, 1.1, 0.0])
    _, c1 = lstm_step(T.zeros(dh, "f64"), T.zeros(dh, "f64"), Tensor(c0), p)
    np.testing.assert_allclose(c1.data, c0, atol=1e-12)


def test_lstm_step_scalar_loop_oracle():
    dh = 5
    rng = np.random.default_rng(1)
    p = init_lstm_dir(rng, dh, dh, "f64")
    x = rng.normal(size=dh)
    h0 = rng.normal(size=dh)
    c0 = rng.normal(size=dh)
    h1, c1 = lstm_step(Tensor(x), Tensor(h0), Tensor(c0), p)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    for j in range(dh):
        pre = np.zeros(4)
        for g in range(4):
            row = g * dh + j
            acc = p.b_ih.data[row] + p.b_hh.data[row]
            for k in range(dh):
                acc += p.w_ih.data[row, k] * x[k]
                acc += p.w_hh.data[row, k] * h0[k]
            pre[g] = acc
        i, f, gg, o = sig(pre[0]), sig(pre[1]), np.tanh(pre[2]), sig(pre[3])
        c_exp = f * c0[j] + i * gg
        h_exp = o * np.tanh(c_exp)
        assert abs(c1.data[j] - c_exp) <= 1e-12
        assert abs(h1.data[j] - h_exp) <= 1e-12


def test_bilstm_single_token_halves_identical():
    dh = 4
    rng = np.random.default_rng(2)
    head = {d: init_lstm_dir(rng, dh, dh, "f64") for d in DIRECTIONS}
    head["rev"] = head["fwd"]  # same params both directions
    x = Tensor(rng.normal(size=(1, dh)))
    out = bilstm_head(x, head)
    np.testing.assert_array_equal(out.data[0, :dh], out.data[0, dh:])


def test_bilstm_forward_causality():
    dh = 4
    t = 7
    rng = np.random.default_rng(3)
    head = {d: init_lstm_dir(rng, dh, dh, "f64") for d in DIRECTIONS}
    x = rng.normal(size=(t, dh))
    base = bilstm_head(Tensor(x), head).data
    for pos in range(t - 1):
        pert = x.copy()
        pert[pos + 1:] += rng.normal(size=(t - pos - 1, dh))
        out = bilstm_head(Tensor(pert), head).data
        # forward half at <= pos unchanged
        assert np.abs(out[:pos + 1, :dh] - base[:pos + 1, :dh]).max() <= 1e-12


def test_bilstm_reverse_causality():
    dh = 4
    t = 7
    rng = np.random.default_rng(4)
    head = {d: init_lstm_dir(rng, dh, dh, "f64") for d in DIRECTIONS}
    x = rng.normal(size=(t, dh))
    base = bilstm_head(Tensor(x), head).data
    for pos in range(1, t):
        pert = x.copy()
        pert[:pos] += rng.normal(size=(pos, dh))
        out = bilstm_head(Tensor(pert), head).data
        assert np.abs(out[pos:, dh:] - base[pos:, dh:]).max() <= 1e-12


def test_bilstm_reversal_symmetry():
    """Reversing input swaps the halves and flips positions."""
    dh = 4
    t = 6
    rng = np.random.default_rng(5)
    p = init_lstm_dir(rng, dh, dh, "f64")
    head = {"fwd": p, "rev": p}  # shared params make the symmetry exact
    x = rng.normal(size=(t, dh))
    out = bilstm_head(Tensor(x), head).data
    out_rev = bilstm_head(Tensor(x[::-1].copy()), head).data
    np.testing.assert_allclose(out_rev[::-1, dh:], out[:, :dh], atol=1e-14)
    np.testing.assert_allclose(out_rev[::-1, :dh], out[:, dh:], atol=1e-14)


def test_far_block_zero_out_proj_is_identity():
    cfg = desk_config("f64")
    blk = init_far_block(cfg, np.random.default_rng(6))
    blk.out_w.data[:] = 0.0
    blk.out_b.data[:] = 0.0
    x = Tensor(np.random.default_rng(6).normal(size=(1, cfg.tokens, cfg.dim)))
    out = far_block_forward(x, blk)
    np.testing.assert_array_equal(out.data, x.data)


@pytest.mark.parametrize("t", [1, 3, 17])
def test_far_block_output_shape(t):
    cfg = desk_config("f64")
    blk = init_far_block(cfg, np.random.default_rng(7))
    x = Tensor(np.random.default_rng(7).normal(size=(2, t, cfg.dim)))
    assert far_block_forward(x, blk).shape == (2, t, cfg.dim)


def test_head_isolation():
    """Perturbing head n's params only changes its own columns of H."""
    cfg = desk_config("f64")
    blk = init_far_block(cfg, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(1, cfg.tokens, cfg.dim)))
    dh = cfg.head_dim

    def hidden_concat():
        h = T.layer_norm(x, blk.ln_g, blk.ln_b)
        u = T.matmul(h, blk.in_w) + blk.in_b
        subs = T.split(u, cfg.heads, axis=-1)
        return np.concatenate(
            [bilstm_head(subs[i], blk.heads[i]).data
             for i in range(cfg.heads)], axis=-1)

    base = hidden_concat()
    blk.heads[1]["fwd"].w_hh.data += rng.normal(
        size=blk.heads[1]["fwd"].w_hh.data.shape)
    after = hidden_concat()
    lo, hi = 1 * 2 * dh, 2 * 2 * dh
    assert np.array_equal(base[..., :lo], after[..., :lo])
    assert not np.array_equal(base[..., lo:hi], after[..., lo:hi])


def test_replace_attention_shares_and_freezes_structure(desk_cfg):
    teacher = TeacherModel(desk_cfg, seed=10)
    far = replace_attention(teacher, seed=10)
    named = far.named_parameters()
    assert not any(".qkv_" in n or ".proj_" in n for n in named)
    # MLP weights are the same objects
    assert named["layer.0.fc1_w"] is teacher.layers[0].fc1_w
    # substitute LN initialized from teacher LN1 but a distinct tensor
    assert far.blocks[0].ln_g is not teacher.layers[0].ln1_g
    np.testing.assert_array_equal(far.blocks[0].ln_g.data,
                                  teacher.layers[0].ln1_g.data)


def test_replace_attention_rejects_bad_heads():
    cfg = ModelConfig(layers=1, dim=33, heads=2, head_dim=16,
                      patch_size=8, image_size=32)
    teacher = None
    with pytest.raises(ShapeError):
        # dim != heads*head_dim fails at teacher construction already;
        # go through FarModel directly to exercise its check
        t = TeacherModel.__new__(TeacherModel)
        t.cfg = cfg
        FarModel(t)


def test_param_count_closed_form_matches_enumeration(desk_cfg):
    teacher = TeacherModel(desk_cfg, seed=11)
    far = replace_attention(teacher, seed=11)
    blk = far.blocks[0]
    actual = sum(t.data.size for t in blk.named("b").values())
    assert actual == _far_layer_params(desk_cfg) - _mlp_params(desk_cfg)


def test_replacement_param_delta_deit_tiny():
    cfg = ModelConfig(dim=192, heads=3, head_dim=64)
    delta = _far_layer_params(cfg) - _attn_layer_params(cfg)
    total_added = 12 * delta
    assert abs(total_added - 2.0e6) / 2.0e6 < 0.03  # ~2.0M params added
    # and lands at ~7.7M from the 5.7M teacher
    assert abs((5.72e6 + total_added) - 7.7e6) / 7.7e6 < 0.03


def test_replaced_model_with_zero_out_proj_matches_ablated_teacher():
    cfg = desk_config("f64")
    teacher = TeacherModel(cfg, seed=12)
    far = replace_attention(teacher, seed=12)
    for blk in far.blocks:
        blk.out_w.data[:] = 0.0
        blk.out_b.data[:] = 0.0
    rng = np.random.default_rng(12)
    img = rng.normal(size=(3, 32, 32))
    logits, _ = far.forward(img)
    x = teacher.patch_embed(img)
    for layer in teacher.layers:
        x = teacher.mlp_block(x, layer)
    expect = teacher.classify(x)
    np.testing.assert_array_equal(logits.data, expect.data)
