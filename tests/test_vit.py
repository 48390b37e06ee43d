import numpy as np
import pytest

from far import tensor as T
from far.tensor import ShapeError, Tensor
from far.far_block import replace_attention
from far.vit import (ATTENTION, MLP, ModelConfig, TeacherModel, take,
                     tensor_shapes)

from conftest import desk_config, random_image


def test_token_count_desk():
    assert desk_config().tokens == 17


def test_token_count_deit_geometry():
    assert ModelConfig(12, 192, 3, 64, 4, 16, 224, 1000).tokens == 197


def test_patch_size_must_divide():
    with pytest.raises(ShapeError):
        ModelConfig(image_size=30, patch_size=8)


def test_teacher_requires_head_factorization():
    with pytest.raises(ShapeError, match="dim == heads"):
        ModelConfig(layers=1, dim=30, heads=2, head_dim=16, patch_size=8,
                    image_size=32)


def test_zero_image_zero_projection_gives_positional():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=0)
    model.patch_w.data[:] = 0.0
    model.patch_b.data[:] = 0.0
    model.cls.data[:] = 0.0
    x = model.patch_embed(np.zeros((cfg.channels, 32, 32)))
    np.testing.assert_array_equal(x.data[0], model.pos.data)


def test_a_teacher_holds_each_tensor_once():
    """``layers[i]`` holds exactly layer i's attention tensors, ``mlps[i]``
    its MLP ones, and ``named_parameters`` names those very Tensors."""
    cfg = desk_config()
    model = TeacherModel(cfg, seed=8)
    assert not hasattr(model, "attention")
    named = model.named_parameters()
    assert named.keys() == tensor_shapes(cfg).keys()
    assert len({id(t) for t in named.values()}) == len(named)
    for i, (layer, mlp) in enumerate(zip(model.layers, model.mlps)):
        assert tuple(vars(layer)) == ATTENTION and tuple(vars(mlp)) == MLP
        for k, t in {**vars(layer), **vars(mlp)}.items():
            assert named[f"layer.{i}.{k}"] is t


def test_take_is_a_copy_cast_bit_for_bit():
    x = np.random.default_rng(9).normal(size=(3, 4))
    t32 = take({"x": x}, "x", (3, 4), "f32").data
    assert t32.dtype == np.float32
    assert np.array_equal(t32.view(np.uint32),
                          x.astype(np.float32).view(np.uint32))
    assert not np.shares_memory(t32, x)
    t64 = take({"x": Tensor(x)}, "x", (3, 4), "f64").data
    assert np.array_equal(t64, x) and not np.shares_memory(t64, x)


def test_patch_embed_rejects_wrong_size():
    model = TeacherModel(desk_config(), seed=0)
    with pytest.raises(ShapeError):
        model.patch_embed(np.zeros((3, 16, 16)))


def test_attention_zero_weights_is_identity():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=1)
    layer = model.layers[0]
    layer.qkv_w.data[:] = 0.0
    layer.qkv_b.data[:] = 0.0
    layer.proj_w.data[:] = 0.0
    layer.proj_b.data[:] = 0.0
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, cfg.tokens, cfg.dim)))
    y, _ = model.attention_block(x, layer)
    np.testing.assert_array_equal(y.data, x.data)


def test_attention_rows_are_probabilities():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=1)
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, cfg.tokens, cfg.dim)))
    _, attn = model.attention_block(x, model.layers[0])
    sums = attn.data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() <= 1e-6
    assert (attn.data >= 0).all()


def test_single_token_attention_degenerates():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=1)
    x = Tensor(np.random.default_rng(2).normal(size=(1, 1, cfg.dim)))
    _, attn = model.attention_block(x, model.layers[0])
    np.testing.assert_allclose(attn.data, np.ones((1, cfg.heads, 1, 1)))


def test_mlp_zero_weights_is_identity():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=1)
    mlp = model.mlps[0]
    mlp.fc1_w.data[:] = 0.0
    mlp.fc1_b.data[:] = 0.0
    mlp.fc2_w.data[:] = 0.0
    mlp.fc2_b.data[:] = 0.0
    x = Tensor(np.random.default_rng(3).normal(size=(1, cfg.tokens, cfg.dim)))
    out = model.mlp_block(x, mlp)
    np.testing.assert_array_equal(out.data, x.data)


def test_mlp_matches_straight_line_oracle():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=4)
    mlp = model.mlps[0]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(cfg.tokens, cfg.dim))
    out = model.mlp_block(Tensor(x[None]), mlp).data[0]

    # independent straight-line reimplementation
    from scipy.special import erf
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    h = (x - mu) / np.sqrt(var + 1e-5)
    h = h * mlp.ln2_g.data + mlp.ln2_b.data
    h = h @ mlp.fc1_w.data + mlp.fc1_b.data
    h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
    expect = x + h @ mlp.fc2_w.data + mlp.fc2_b.data
    assert np.abs(out - expect).max() <= 1e-12


def test_teacher_forward_contract(desk_cfg):
    model = TeacherModel(desk_cfg, seed=5)
    rng = np.random.default_rng(5)
    img = rng.normal(size=(3, 32, 32)).astype(np.float32)
    logits, blocks = model.forward(img)
    assert len(blocks) == desk_cfg.layers
    assert logits.shape == (1, desk_cfg.num_classes)


def test_block_outputs_match_prefix_replay():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=6)
    rng = np.random.default_rng(6)
    img = rng.normal(size=(3, 32, 32))
    _, blocks = model.forward(img)
    for i in range(cfg.layers):
        x = model.patch_embed(img)
        for j in range(i + 1):
            y, _ = model.attention_block(x, model.layers[j])
            x = model.mlp_block(y, model.mlps[j])
        np.testing.assert_array_equal(blocks[i].data, x.data)


def test_token_permutation_equivariance_with_zero_pos():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=7)
    model.pos.data[:] = 0.0
    rng = np.random.default_rng(7)
    img = rng.normal(size=(3, 32, 32))
    x = model.patch_embed(img)
    perm = np.concatenate([[0], 1 + rng.permutation(cfg.tokens - 1)])
    xp = Tensor(x.data[:, perm, :])

    def run(tok):
        cur = tok
        for layer, mlp in zip(model.layers, model.mlps):
            y, _ = model.attention_block(cur, layer)
            cur = model.mlp_block(y, mlp)
        return model.classify(cur).data

    np.testing.assert_allclose(run(x), run(xp), atol=1e-10)


@pytest.mark.parametrize("variant", ["teacher", "far"])
@pytest.mark.parametrize("batch,image_size", [(1, 32), (32, 64)])
def test_classify_of_the_cls_row_equals_the_full_layer_norm(variant, batch,
                                                             image_size):
    """``classify`` normalizes only the CLS token. Its logits and the
    gradients of its input and of the final LN's gain and bias are those of
    normalizing every token and then taking the CLS row, byte for byte; on
    the discarded rows the full path's zero gradient carries the gain's
    sign, so the input gradients compare after ``+ 0.0`` makes -0 +0."""
    cfg = desk_config()
    cfg.image_size = image_size
    rng = np.random.default_rng(8)
    model = TeacherModel(cfg, seed=8)
    if variant == "far":
        model = replace_attention(model, seed=8)
    model.ln_f_g.data[:] = rng.normal(size=cfg.dim)
    model.ln_f_b.data[:] = rng.normal(size=cfg.dim)
    x0 = model.tokens(random_image(cfg, rng, batch))[-1].data
    weights = rng.normal(size=(batch, cfg.num_classes)).astype(np.float32)

    def run(classify):
        x = Tensor(x0, requires_grad=True)
        for t in (model.ln_f_g, model.ln_f_b):
            t.requires_grad, t.grad = True, None
        logits = classify(x)
        T.tsum(logits * weights).backward()
        return logits.data, x.grad + 0.0, model.ln_f_g.grad, model.ln_f_b.grad

    def full_ln(x):
        h = T.layer_norm(x, model.ln_f_g, model.ln_f_b)
        return T.linear(h[:, 0, :], model.head_w, model.head_b)

    for got, want in zip(run(model.classify), run(full_ln)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
