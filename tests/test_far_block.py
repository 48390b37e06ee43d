import gc
import queue
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from far import tensor as T
from far.tensor import ShapeError, Tensor
from far.vit import ATTENTION, ModelConfig, TeacherModel, tensor_shapes
from far import far_block
from far.far_block import (DIRECTIONS, FarBlockParams, LstmDirParams,
                           bilstm_head, far_block_forward, init_far_block,
                           init_lstm_dir, lstm_step, replace_attention,
                           scan_heads, scan_of, shrink_block)
from far.attribution import cls_saliency, token_dependency
from far.data import synth_dataset
from far.distill import TrainConfig, run_phase
from far.pruner import prune_by_threshold, three_stage_pipeline
from far.profiler import count_params

from conftest import desk_config, in_new_thread, random_image


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


def _reference_scans(u, scans):
    """Every scan of ``scans`` (in ``coupled`` order) run token by token
    with ``lstm_step``, side by side in that order."""
    batched = u.ndim == 3
    t = u.shape[-2]
    lead = u.shape[:-2]
    d_in = u.shape[-1] // (len(scans) // 2)
    cols = []
    for k, p in enumerate(scans):
        n, d = scan_of(k)
        sl = slice(n * d_in, (n + 1) * d_in)
        h = c = T.zeros(lead + (p.hidden,), "f64")
        steps = [None] * t
        for j in (range(t) if d == "fwd" else reversed(range(t))):
            h, c = lstm_step(u[:, j, sl] if batched else u[j, sl], h, c, p)
            steps[j] = T.reshape(h, lead + (1, p.hidden))
        cols.append(T.concat(steps, axis=-2))
    return T.concat(cols, axis=-1)


def _reference_block(x, blk):
    u = T.matmul(T.layer_norm(x, blk.ln_g, blk.ln_b), blk.in_w) + blk.in_b
    return x + (T.matmul(_reference_scans(u, blk.scans), blk.out_w)
                + blk.out_b)


def _block_grads(forward, blk, x):
    params = blk.named("b")
    for p in params.values():
        p.requires_grad, p.grad = True, None
    leaf = Tensor(x.copy(), requires_grad=True)
    out = forward(leaf, blk)
    weight = np.random.default_rng(31).normal(size=out.shape)
    T.tsum(out * Tensor(weight)).backward()
    grads = {n: p.grad for n, p in params.items()}
    for p in params.values():
        p.requires_grad, p.grad = False, None
    return out.data, leaf.grad, grads


def _assert_block_matches_reference(blk, x):
    """Block output and every gradient within 1e-12 of the lstm_step
    scans (float64)."""
    out, gx, grads = _block_grads(far_block_forward, blk, x)
    ref_out, ref_gx, ref_grads = _block_grads(_reference_block, blk, x)
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gx, ref_gx, rtol=0, atol=1e-12)
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-12,
                                   err_msg=name)
    return out


@pytest.mark.parametrize("shape", [(3, 7, 32), (7, 32)])
@pytest.mark.parametrize("widths", ["full", "unequal"])
def test_fused_scan_matches_per_step_reference(widths, shape):
    """One fused node per block == the per-step lstm_step scans, in the
    output and in the gradients of the input and of every scan tensor."""
    cfg = desk_config("f64")
    rng = np.random.default_rng(30)
    blk = init_far_block(cfg, rng)
    for p in blk.scans:  # init leaves b_hh zero
        p.b_hh.data[:] = rng.normal(size=p.b_hh.shape)
    if widths == "unequal":
        keep = [rng.random(cfg.head_dim) < 0.6 for _ in range(2 * cfg.heads)]
        keep[1][:] = False  # head 0 rev
        keep[1][:3] = True
        blk = FarBlockParams.from_tensors(shrink_block(blk, keep, "blk"),
                                          "blk", cfg.heads, cfg.head_dim,
                                          cfg.precision)
        assert len({p.hidden for p in blk.scans}) > 1
    _assert_block_matches_reference(blk, rng.normal(size=shape))


def test_fused_scan_finite_differences():
    rng = np.random.default_rng(32)
    scans = [init_lstm_dir(rng, 3, hid, "f64") for hid in (3, 2, 1, 3)]
    u = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
    params = [t for p in scans for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh)]
    for t in params:
        t.requires_grad = True
        t.data[:] += rng.normal(scale=0.1, size=t.shape)  # init leaves b_hh zero
    weight = Tensor(rng.normal(size=(2, 4, 9)))

    def loss():
        return T.tsum(T.square(scan_heads(u, scans) * weight))

    loss().backward()
    step = 1e-6
    for t in [u] + params:
        flat = t.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss().item()
            flat[i] = orig - step
            down = loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * step)
            assert abs(t.grad.ravel()[i] - fd) <= 1e-7 * max(1.0, abs(fd))


def _scan_block(precision, widths, rng):
    """A desk block with nonzero b_hh; with ``widths="unequal"`` shrunk to
    scans of different widths."""
    cfg = desk_config(precision)
    blk = init_far_block(cfg, rng)
    for p in blk.scans:  # init leaves b_hh zero
        p.b_hh.data[:] = rng.normal(size=p.b_hh.shape)
    if widths == "unequal":
        keep = [rng.random(cfg.head_dim) < 0.6 for _ in range(2 * cfg.heads)]
        keep[1][:] = False  # head 0 rev
        keep[1][:3] = True
        blk = FarBlockParams.from_tensors(shrink_block(blk, keep, "blk"),
                                          "blk", cfg.heads, cfg.head_dim,
                                          cfg.precision)
    return blk


def _scans_f64(scans):
    """A float64 copy of every scan of ``scans``."""
    return [LstmDirParams(*(Tensor(t.data.astype(np.float64)) for t in
                            (p.w_ih, p.w_hh, p.b_ih, p.b_hh)))
            for p in scans]


def _scan_grads(scan, scans, u, input_grad=True, weight_grads=True):
    """Output of ``scan(u, scans)`` and the gradients of the input and of
    every scan tensor under a fixed random weighting of the output (None
    for what does not require grad)."""
    params = [t for p in scans for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh)]
    for t in params:
        t.requires_grad, t.grad = weight_grads, None
    leaf = Tensor(u, requires_grad=input_grad)
    out = scan(leaf, scans)
    weight = np.random.default_rng(35).normal(size=out.shape)
    T.tsum(out * Tensor(weight.astype(out.dtype))).backward()
    grads = [t.grad for t in params]
    for t in params:
        t.requires_grad, t.grad = False, None
    return out.data, leaf.grad, grads


@pytest.mark.parametrize("shape", [(7, 32), (3, 7, 32), (3, 1, 32), (1, 32)])
@pytest.mark.parametrize("widths", ["full", "unequal"])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_frozen_and_training_scans_give_identical_outputs(precision, widths,
                                                          shape):
    """The forward that keeps no activations and the one that keeps them
    for the backward give bit-identical hidden states."""
    rng = np.random.default_rng(36)
    blk = _scan_block(precision, widths, rng)
    u = rng.normal(size=shape).astype(T.DTYPES[precision])
    frozen = scan_heads(Tensor(u), blk.scans)
    assert frozen._backward_fn is None
    trained, _, _ = _scan_grads(scan_heads, blk.scans, u)
    assert frozen.dtype == trained.dtype == T.DTYPES[precision]
    np.testing.assert_array_equal(frozen.data, trained)


def _bptt_factors_per_gate(ws, whh):
    """The BPTT of ``far_block._bptt`` with its step factors written as
    four strided views of a (T, S, B, 4, hid) buffer and ``dc`` broadcast
    over a gate axis inside it: the oracle of the gate-layout factors."""
    dhs, gates, cs, tcs = ws.dhs, ws.gates, ws.cs, ws.tcs
    t, s, b, hid = dhs.shape
    dtype = gates.dtype
    i, f, o, g = gates.transpose(1, 0, 2, 3, 4)
    dsig = gates[:, :3] * (1.0 - gates[:, :3])
    dc_dh = o * (1.0 - tcs * tcs)
    fac = np.empty((t, s, b, 4, hid), dtype)
    fac_i, fac_f, fac_o, fac_g = fac.transpose(3, 0, 1, 2, 4)
    np.multiply(g, dsig[:, 0], out=fac_i)
    np.multiply(cs[:-1], dsig[:, 1], out=fac_f)
    np.multiply(tcs, dsig[:, 2], out=fac_o)
    np.multiply(i, 1.0 - g * g, out=fac_g)
    dz = np.empty((s, b, t, 4, hid), dtype)
    dh, ddc = np.empty((s, b, hid), dtype), np.empty((s, b, hid), dtype)
    dh_next = np.zeros((s, b, hid), dtype)
    dc = np.zeros((s, b, hid), dtype)
    dc_gates = dc[:, :, None]
    steps = zip(dhs, dc_dh, fac, fac_o, dz.transpose(2, 0, 1, 3, 4),
                dz[..., 2, :].transpose(2, 0, 1, 3),
                dz.reshape(s, b, t, 4 * hid).transpose(2, 0, 1, 3), f)
    for dh_out, a, fz, fo, dzj, dzo, dzf, fj in reversed(list(steps)):
        np.add(dh_out, dh_next, out=dh)
        np.multiply(dh, a, out=ddc)
        np.add(dc, ddc, out=dc)
        np.multiply(dc_gates, fz, out=dzj)
        np.multiply(dh, fo, out=dzo)
        np.matmul(dzf, whh, out=dh_next)
        np.multiply(dc, fj, out=dc)
    return dz


@pytest.mark.parametrize("batch", [1, 17, 32])
@pytest.mark.parametrize("widths", ["full", "unequal"])
def test_bptt_factors_in_the_gate_layout_are_bit_identical(monkeypatch,
                                                           widths, batch):
    """The input and every scan weight get the gradients, bit for bit, of
    the per-gate factor layout, at desk B=1, 17 and 32 (T=17) and for a
    shrunk block."""
    rng = np.random.default_rng(37)
    blk = _scan_block("f32", widths, rng)
    u = rng.normal(size=(batch, 17, 32)).astype(np.float32)
    _, du, grads = _scan_grads(scan_heads, blk.scans, u)
    monkeypatch.setattr(far_block, "_bptt", _bptt_factors_per_gate)
    _, ref_du, ref_grads = _scan_grads(scan_heads, blk.scans, u)
    np.testing.assert_array_equal(du, ref_du)
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_array_equal(g, ref)


def test_input_or_weight_gradients_alone_match_the_full_backward():
    """With only the input, or only the scan tensors, requiring grad the
    backward gives the same gradients as with both, and none to the
    rest."""
    rng = np.random.default_rng(38)
    blk = _scan_block("f64", "unequal", rng)
    u = rng.normal(size=(3, 7, 32))
    _, gu, grads = _scan_grads(scan_heads, blk.scans, u)
    _, gu_alone, no_grads = _scan_grads(scan_heads, blk.scans, u,
                                        weight_grads=False)
    _, no_gu, grads_alone = _scan_grads(scan_heads, blk.scans, u,
                                        input_grad=False)
    np.testing.assert_array_equal(gu_alone, gu)
    assert no_gu is None and all(g is None for g in no_grads)
    for alone, both in zip(grads_alone, grads):
        np.testing.assert_array_equal(alone, both)


@pytest.mark.parametrize("widths", ["full", "unequal"])
def test_f32_scan_matches_f64_per_step_reference(widths):
    """A float32 scan (its sigmoid taken as tanh(z/2)/2 + 1/2 on halved
    i/f/o rows) stays within float32 rounding of ``lstm_step`` run in
    float64 on the same weights: hidden states within 5e-7, gradients
    within 1e-6 of their largest entry (measured: 1.4e-7 and 3.9e-7)."""
    rng = np.random.default_rng(37)
    blk = _scan_block("f32", widths, rng)
    scans64 = _scans_f64(blk.scans)
    u = rng.normal(size=(3, 17, 32))
    out, gu, grads = _scan_grads(scan_heads, blk.scans, u.astype(np.float32))
    ref, ref_gu, ref_grads = _scan_grads(_reference_scans, scans64, u)
    assert out.dtype == gu.dtype == np.float32
    np.testing.assert_allclose(out, ref, rtol=0, atol=5e-7)
    for g, r in zip([gu] + grads, [ref_gu] + ref_grads):
        assert g.dtype == np.float32
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-6 * np.abs(r).max())


# -- the scan's shape plan holds indices, never weight values -----------------

def test_scan_reads_weights_zeroed_in_place_after_a_forward():
    far = replace_attention(TeacherModel(desk_config("f64"), seed=50), seed=50)
    blk = far.blocks[1]
    x = np.random.default_rng(50).normal(size=(2, 17, 32))
    before = _assert_block_matches_reference(blk, x)
    prune_by_threshold(far, 0.97, mode="relative")
    assert not all(m.all() for m in far.masks[1])
    after = _assert_block_matches_reference(blk, x)
    assert not np.array_equal(after, before)


def test_scan_reads_weights_rebound_like_an_optimizer_step():
    blk = _scan_block("f64", "full", np.random.default_rng(51))
    x = np.random.default_rng(52).normal(size=(3, 7, 32))
    before = _assert_block_matches_reference(blk, x)
    for p in blk.scans:  # as AdamW.step does: a new array, not in place
        for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
            t.data = t.data - 0.1 * (t.data + 0.05)
    after = _assert_block_matches_reference(blk, x)
    assert not np.array_equal(after, before)


def test_scan_plans_of_alternating_blocks_stay_apart():
    """Full and shrunk (unequal widths) blocks in float32 and float64, with
    2-D and 3-D input, called in turn: each call equals the lstm_step
    scans, and equals the same call made with an empty plan cache, bit for
    bit."""
    rng = np.random.default_rng(53)
    blocks = {(p, w): _scan_block(p, w, rng) for p in ("f32", "f64")
              for w in ("full", "unequal")}
    calls = []
    for (precision, widths), blk in blocks.items():
        for shape in ((7, 32), (2, 7, 32)):
            u = rng.normal(size=shape)
            calls.append((blk, u.astype(T.DTYPES[precision]), u, precision))
    rng.shuffle(calls)
    results = []
    for blk, u, u64, precision in calls + calls:
        out = scan_heads(Tensor(u), blk.scans)
        ref = _reference_scans(Tensor(u64), _scans_f64(blk.scans))
        assert out.dtype == T.DTYPES[precision]
        np.testing.assert_allclose(out.data, ref.data, rtol=0,
                                   atol=5e-7 if precision == "f32" else 1e-12)
        results.append(out.data)
    for (blk, u, _, _), warm in zip(calls + calls, results):
        far_block._plan.cache_clear()
        cold = scan_heads(Tensor(u), blk.scans)
        np.testing.assert_array_equal(cold.data, warm)


def test_second_frozen_forward_of_the_same_shapes_plans_nothing(desk_cfg):
    far = replace_attention(TeacherModel(desk_cfg, seed=54), seed=54)
    image = np.random.default_rng(54).normal(size=(1, 3, 32, 32))
    far.forward(image)
    misses = far_block._plan.cache_info().misses
    far.forward(image)
    far.forward(image[0])
    assert far_block._plan.cache_info().misses == misses


def test_fused_scan_on_frozen_model_keeps_no_graph(desk_cfg):
    far = replace_attention(TeacherModel(desk_cfg, seed=33), seed=33)
    blk = far.blocks[0]
    u = Tensor(np.random.default_rng(33).normal(
        size=(2, desk_cfg.tokens, desk_cfg.dim)).astype(np.float32))
    out = scan_heads(u, blk.scans)
    assert out.shape == (2, desk_cfg.tokens, 2 * desk_cfg.dim)
    assert out._parents == () and out._backward_fn is None
    assert not out.requires_grad


# -- the scan workspace pool --------------------------------------------------

def _grad_call(u, scans):
    """``scan_heads`` with ``u`` requiring grad; its graph is freed on
    return."""
    return scan_heads(Tensor(u, requires_grad=True), scans).data


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("widths", ["full", "unequal"])
@pytest.mark.parametrize("shape", [(7, 32), (2, 7, 32)])
def test_frozen_scan_equals_the_same_call_with_grad(precision, widths, shape):
    """A frozen call, cold and warm, equals bit for bit the call whose
    input requires grad; and a returned array is the caller's own, so
    writing to it changes no later call."""
    rng = np.random.default_rng(56)
    blk = _scan_block(precision, widths, rng)
    u = rng.normal(size=shape).astype(T.DTYPES[precision])
    want = _grad_call(u, blk.scans)
    outs = [scan_heads(Tensor(u), blk.scans).data for _ in range(3)]
    for out in outs:
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
    outs[0][...] = np.nan
    again = scan_heads(Tensor(u), blk.scans).data
    assert not np.shares_memory(again, outs[1])
    assert again.tobytes() == want.tobytes()


def test_weight_zeroed_in_place_between_frozen_calls_is_read():
    rng = np.random.default_rng(57)
    blk = _scan_block("f32", "full", rng)
    u = rng.normal(size=(2, 7, 32)).astype(np.float32)
    before = scan_heads(Tensor(u), blk.scans).data
    blk.scans[1].w_hh.data[:, :5] = 0.0
    blk.scans[2].b_ih.data[:] = 0.0
    after = scan_heads(Tensor(u), blk.scans).data
    assert not np.array_equal(after, before)
    assert after.tobytes() == _grad_call(u, blk.scans).tobytes()


def test_workspaces_of_a_shape_sweep_stay_within_the_byte_cap():
    """Frozen calls of many (B, T) shapes, whose workspaces hold more than
    WORKSPACE_BYTES in all, keep at most that many bytes, of the most
    recently used shapes, and a kept workspace is reused."""
    blk = _scan_block("f64", "full", np.random.default_rng(58))
    shapes = [(b, t) for t in (17, 65, 130) for b in (1, 8, 32, 64)]

    def call(b, t):
        scan_heads(Tensor(np.ones((b, t, 32))), blk.scans)
        return [(key, ws) for key, kept in far_block._workspaces.idle.items()
                for ws in kept]

    def sweep():
        made = {}
        for b, t in shapes + shapes[::-1]:
            kept = call(b, t)
            key, ws = kept[-1]
            assert key[1:] == (b, t)
            made[key] = ws.nbytes
            total = sum(w.nbytes for _, w in kept)
            assert far_block._workspaces.nbytes == total
            assert total <= far_block.WORKSPACE_BYTES
        return made, kept, call(*shapes[0])

    made, kept, again = in_new_thread(sweep)
    assert sum(made.values()) > 2 * far_block.WORKSPACE_BYTES
    assert len(kept) < len(shapes)
    assert [key[1:] for key, _ in kept[-2:]] == shapes[1::-1]
    assert again == kept


def test_a_scan_larger_than_the_byte_cap_runs_on_fresh_buffers(monkeypatch):
    blk = _scan_block("f32", "full", np.random.default_rng(59))
    u = np.random.default_rng(59).normal(size=(2, 7, 32)).astype(np.float32)
    monkeypatch.setattr(far_block, "WORKSPACE_BYTES", 1000)

    def call():
        out = scan_heads(Tensor(u), blk.scans).data
        return out, far_block._workspaces.idle

    out, kept = in_new_thread(call)
    assert kept == {}
    assert out.tobytes() == _grad_call(u, blk.scans).tobytes()


def test_frozen_forwards_on_two_threads_equal_sequential_ones():
    """Two threads run frozen FAR forwards of B=1 at T=17 and B=32 at
    T=65, interleaved, so each thread runs both shapes while the other
    does; every output equals the sequential result bit for bit."""
    rng = np.random.default_rng(60)
    calls = []
    for batch, size in ((1, 32), (32, 64)):
        cfg = desk_config()
        cfg.image_size = size
        far = replace_attention(TeacherModel(cfg, seed=60), seed=60)
        images = [random_image(cfg, rng, batch) for _ in range(3)]
        calls.append((far, images))
    calls = [(far, img) for far, imgs in calls for img in imgs] * 8
    rng.shuffle(calls)
    want = [far.forward(img)[0].data for far, img in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(far.forward, img) for far, img in calls]
            got = [f.result(timeout=120)[0].data for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()



def _counting_workspaces(monkeypatch, collect=False):
    """The (B, T) of every ``_Workspace`` made from now on; with
    ``collect``, making one first runs a garbage collection."""
    made = []

    class Counted(far_block._Workspace):
        def __init__(self, plan, b, t):
            made.append((b, t))
            if collect:
                gc.collect()
            super().__init__(plan, b, t)

    monkeypatch.setattr(far_block, "_Workspace", Counted)
    return made


def test_two_live_graphs_of_one_shape_never_share_a_workspace():
    """Two grad calls of one shape, with a frozen call of that shape between
    them, then both backwards: each graph kept its own workspace, so its
    output and gradients equal bit for bit those of the call made alone."""
    rng = np.random.default_rng(61)
    blk = _scan_block("f32", "unequal", rng)
    us = [rng.normal(size=(3, 7, 32)).astype(np.float32) for _ in range(3)]
    alone = [_scan_grads(scan_heads, blk.scans, u) for u in us[:2]]
    params = [t for p in blk.scans for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh)]
    leaves, outs = [], []
    try:
        for u in us[:2]:
            for t in params:
                t.requires_grad = True
            leaves.append(Tensor(u, requires_grad=True))
            outs.append(scan_heads(leaves[-1], blk.scans))
            for t in params:
                t.requires_grad = False
            scan_heads(Tensor(us[2]), blk.scans)
        for leaf, out, (want, want_du, want_grads) in reversed(
                list(zip(leaves, outs, alone))):
            for t in params:
                t.requires_grad, t.grad = True, None
            weight = np.random.default_rng(35).normal(size=out.shape)
            T.tsum(out * Tensor(weight.astype(out.dtype))).backward()
            assert out.data.tobytes() == want.tobytes()
            assert leaf.grad.tobytes() == want_du.tobytes()
            for t, g in zip(params, want_grads):
                assert t.grad.tobytes() == g.tobytes()
    finally:
        for t in params:
            t.requires_grad, t.grad = False, None


def test_a_freed_graph_s_workspace_serves_the_next_call_of_its_shape(
        monkeypatch):
    """Grad and frozen calls of one shape, each after the last graph was
    freed, run on the first call's workspace and give its results bit for
    bit; only a call made while a graph of the shape is alive makes a
    second workspace."""
    blk = _scan_block("f32", "full", np.random.default_rng(62))
    u = np.random.default_rng(62).normal(size=(2, 7, 32)).astype(np.float32)
    made = _counting_workspaces(monkeypatch)

    def calls():
        first = _scan_grads(scan_heads, blk.scans, u)
        again = [_scan_grads(scan_heads, blk.scans, u) for _ in range(3)]
        frozen = scan_heads(Tensor(u), blk.scans).data
        reused = list(made)
        live = scan_heads(Tensor(u, requires_grad=True), blk.scans)
        scan_heads(Tensor(u), blk.scans)
        del live
        scan_heads(Tensor(u), blk.scans)
        return first, again, frozen, reused

    first, again, frozen, reused = in_new_thread(calls)
    assert reused == [(2, 7)] and made == [(2, 7)] * 2
    for result in again:
        for got, want in zip(result[:2] + tuple(result[2]),
                             first[:2] + tuple(first[2])):
            assert got.tobytes() == want.tobytes()
    assert frozen.tobytes() == first[0].tobytes()


def test_a_graph_freed_by_a_collection_inside_the_pool_comes_back(
        monkeypatch):
    """A graph in a reference cycle, freed by the garbage collection that
    runs while the pool makes a workspace of another shape: its release
    waits in ``released`` until the pool files it, the pool's byte count
    stays its idle workspaces' total, and the next call of the graph's
    shape makes no workspace."""
    blk = _scan_block("f32", "full", np.random.default_rng(63))
    u = np.random.default_rng(63).normal(size=(2, 7, 32)).astype(np.float32)
    made = _counting_workspaces(monkeypatch, collect=True)

    def calls():
        pool = far_block._workspaces
        cycle = [scan_heads(Tensor(u, requires_grad=True), blk.scans)]
        cycle.append(cycle)
        del cycle
        assert pool.released == [] and pool.idle == {}
        scan_heads(Tensor(np.ones((3, 7, 32), np.float32)), blk.scans)
        idle = [ws for kept in pool.idle.values() for ws in kept]
        state = (sorted(ws.key[1:] for ws in idle), len(pool.released),
                 pool.nbytes == sum(ws.nbytes for ws in idle))
        scan_heads(Tensor(u), blk.scans)
        return state

    assert in_new_thread(calls) == ([(2, 7), (3, 7)], 0, True)
    assert made == [(2, 7), (3, 7)]


def test_explain_maps_on_three_threads_equal_sequential_ones(desk_cfg):
    """Three threads (more than the two cores of the test host) run
    ``cls_saliency`` and ``token_dependency`` calls of two layers,
    interleaved, so each thread's grad and frozen scans run while the
    others' do; every map equals the sequential one bit for bit."""
    rng = np.random.default_rng(64)
    far = replace_attention(TeacherModel(desk_cfg, seed=64), seed=64)
    images = random_image(desk_cfg, rng, 2)
    calls = [(cls_saliency, (far, img, layer, head)) for img in images
             for layer in (1, 3) for head in (0, 1)]
    calls += [(token_dependency, (far, img, layer)) for img in images
              for layer in (1, 3)]
    calls *= 2
    rng.shuffle(calls)
    want = [fn(*args) for fn, args in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(fn, *args) for fn, args in calls]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_graphs_freed_on_other_threads_come_back_to_their_owner_s_pool(
        monkeypatch):
    """One thread makes grad scans of one shape and hands each graph to
    two others, which run its backward and free it: each workspace comes
    back to the maker's pool while the maker takes more, so it makes no
    more workspaces than graphs can be alive at once, and every input
    gradient equals the sequential one bit for bit."""
    blk = _scan_block("f32", "full", np.random.default_rng(66))
    rng = np.random.default_rng(66)
    us = [rng.normal(size=(2, 7, 32)).astype(np.float32) for _ in range(6)]
    weight = Tensor(rng.normal(size=(2, 7, 64)).astype(np.float32))

    def input_grad(leaf, out):
        T.tsum(out * weight).backward()
        return leaf.grad.tobytes()

    def graph(u):
        leaf = Tensor(u, requires_grad=True)
        return leaf, scan_heads(leaf, blk.scans)

    want = [input_grad(*graph(u)) for u in us]
    made = _counting_workspaces(monkeypatch)
    handed = queue.Queue(maxsize=2)
    calls = list(enumerate(us)) * 8

    def maker():
        for k, u in calls:
            handed.put((k, *graph(u)), timeout=60)
        for _ in range(2):
            handed.put(None, timeout=60)

    def user():
        got = []
        while (item := handed.get(timeout=60)) is not None:
            k, leaf, out = item
            got.append((k, input_grad(leaf, out)))
            del item, leaf, out
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            users = [pool.submit(user) for _ in range(2)]
            pool.submit(maker).result(timeout=120)
            got = [g for f in users for g in f.result(timeout=120)]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(k for k, _ in got) == sorted(k for k, _ in calls)
    for k, grad in got:
        assert grad == want[k]
    # at most 2 queued, 2 in a backward and 1 being made
    assert len(made) <= 5


def test_idle_workspaces_of_freed_graphs_stay_within_the_byte_cap():
    """Three graphs per shape of a sweep, alive together and then freed
    after their backwards, leave three idle workspaces of their shape: the
    pool keeps them, and the most recently given ones of other shapes, at
    most WORKSPACE_BYTES in all, with ``nbytes`` their total, no
    workspace twice, and evicts the rest."""
    blk = _scan_block("f64", "full", np.random.default_rng(65))
    shapes = [(b, t) for t in (17, 65) for b in (1, 8, 16)]

    def sweep():
        pool, seen, evicted = far_block._workspaces, set(), False
        for b, t in shapes + shapes[::-1]:
            graphs = [scan_heads(Tensor(np.ones((b, t, 32)),
                                        requires_grad=True), blk.scans)
                      for _ in range(3)]
            for g in graphs:
                T.tsum(g).backward()
            del graphs, g
            scan_heads(Tensor(np.ones((b, t, 32))), blk.scans)  # files them
            idle = [ws for kept in pool.idle.values() for ws in kept]
            assert pool.released == []
            assert len({id(ws) for ws in idle}) == len(idle)
            assert [ws.key[1:] for ws in idle[-3:]] == [(b, t)] * 3
            assert pool.nbytes == sum(ws.nbytes for ws in idle)
            assert pool.nbytes <= far_block.WORKSPACE_BYTES
            seen.add((b, t))
            evicted = evicted or len(idle) < 3 * len(seen)
        return evicted

    assert in_new_thread(sweep)

def test_scan_k_is_named_and_grouped_by_scan_of(desk_cfg):
    """Scan k of a block holds the tensors named ``<prefix>.<head>.<dir>.*``
    for (head, dir) = scan_of(k), in coupled order, and ``head(n)`` holds
    head n's fwd and rev scans."""
    blk = replace_attention(TeacherModel(desk_cfg, seed=55), seed=55).blocks[0]
    named = blk.named("far.0")
    assert len(blk.scans) == 2 * desk_cfg.heads
    assert [scan_of(k) for k in range(4)] == [
        (0, "fwd"), (0, "rev"), (1, "fwd"), (1, "rev")]
    for k, p in enumerate(blk.scans):
        n, d = scan_of(k)
        for name in ("w_ih", "w_hh", "b_ih", "b_hh"):
            assert named[f"far.0.{n}.{d}.{name}"] is getattr(p, name)
        assert blk.head(n)[d] is p
    assert list(blk.head(1)) == list(DIRECTIONS)


@pytest.mark.parametrize("d_ins,width", [((4, 4, 4), 4), ((4, 4), 8),
                                         ((4, 3, 4, 4), 8)])
def test_scan_heads_names_scans_that_do_not_fit_the_input(d_ins, width):
    """An odd scan count, an input that is not 2 scans' input size a head,
    or scans of unequal input size are a ShapeError naming the width."""
    rng = np.random.default_rng(56)
    scans = [init_lstm_dir(rng, d_in, 3, "f64") for d_in in d_ins]
    with pytest.raises(ShapeError, match=f"input width {width} does not "
                                         f"split into heads"):
        scan_heads(Tensor(rng.normal(size=(5, width))), scans)


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


def test_far_block_with_too_few_out_proj_rows_is_a_shape_error():
    """A hand-built block whose out_w has fewer rows than the scans have
    units fails in out_proj's matmul, naming both shapes."""
    cfg = desk_config("f64")
    blk = init_far_block(cfg, np.random.default_rng(8))
    blk.out_w = Tensor(blk.out_w.data[:-1])
    x = Tensor(np.random.default_rng(8).normal(size=(2, 5, cfg.dim)))
    with pytest.raises(ShapeError, match=r"inner dimensions disagree: "
                                         r"\(2, 5, 64\) @ \(63, 32\)"):
        far_block_forward(x, blk)


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
            [bilstm_head(subs[i], blk.head(i)).data
             for i in range(cfg.heads)], axis=-1)

    base = hidden_concat()
    blk.head(1)["fwd"].w_hh.data += rng.normal(
        size=blk.head(1)["fwd"].w_hh.data.shape)
    after = hidden_concat()
    lo, hi = 1 * 2 * dh, 2 * 2 * dh
    assert np.array_equal(base[..., :lo], after[..., :lo])
    assert not np.array_equal(base[..., lo:hi], after[..., lo:hi])


def _bytes(model):
    return {n: t.data.tobytes() for n, t in model.named_parameters().items()}


def test_replace_attention_copies_and_freezes_structure(desk_cfg):
    teacher = TeacherModel(desk_cfg, seed=10)
    far = replace_attention(teacher, seed=10)
    named = far.named_parameters()
    assert not any(".qkv_" in n or ".proj_" in n for n in named)
    # the backbone and each substitute LN start as copies of the teacher's
    backbone = tensor_shapes(desk_cfg, attention=False)
    source = teacher.named_parameters()
    for n in backbone:
        np.testing.assert_array_equal(named[n].data, source[n].data)
    np.testing.assert_array_equal(far.blocks[0].ln_g.data,
                                  teacher.layers[0].ln1_g.data)
    # training every FAR tensor leaves each teacher tensor byte-identical
    before = _bytes(teacher)
    ds = synth_dataset(10, 40, 10, 32)
    run_phase(far, teacher, ds, TrainConfig(
        phase="finetune", lr=1e-3, epochs=1, batch_size=20, seed=10,
        warmup_epochs=0))
    assert _bytes(teacher) == before
    trained = _bytes(far)
    assert all(trained[n] != before[n] for n in backbone)
    reg = TrainConfig(phase="prune-regularize", lr=1e-3, epochs=1,
                      batch_size=20, seed=10, warmup_epochs=0)
    tune = TrainConfig(phase="prune-finetune", lr=1e-3, epochs=1,
                       batch_size=20, seed=10, warmup_epochs=0)
    three_stage_pipeline(far, teacher, ds, reg, tune, tau=0.9,
                         mode="relative", reg_coeff=1e-3)
    assert _bytes(teacher) == before


def test_replace_attention_rejects_bad_heads():
    with pytest.raises(ShapeError, match="dim == heads"):
        ModelConfig(layers=1, dim=33, heads=2, head_dim=16, patch_size=8,
                    image_size=32)


def test_param_count_matches_enumeration(desk_cfg):
    teacher = TeacherModel(desk_cfg, seed=11)
    far = replace_attention(teacher, seed=11)
    block = sum(t.data.size for t in far.blocks[0].named("b").values())
    attention = sum(getattr(teacher.layers[0], k).data.size
                    for k in ATTENTION)
    assert (count_params(desk_cfg, "far")
            - count_params(desk_cfg, "attention")
            == desk_cfg.layers * (block - attention))


def test_replacement_param_delta_deit_tiny():
    cfg = ModelConfig(layers=12, dim=192, heads=3, head_dim=64,
                      patch_size=16, image_size=224, num_classes=1000)
    total_added = count_params(cfg, "far") - count_params(cfg, "attention")
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
    for mlp in teacher.mlps:
        x = teacher.mlp_block(x, mlp)
    expect = teacher.classify(x)
    np.testing.assert_array_equal(logits.data, expect.data)
