import numpy as np
import pytest

from far import tensor as T
from far.tensor import ShapeError, Tensor
from far.vit import ModelConfig, TeacherModel

from conftest import desk_config


def test_token_count_desk():
    assert desk_config().tokens == 17


def test_token_count_deit_geometry():
    assert ModelConfig(12, 192, 3, 64, 4, 16, 224, 1000).tokens == 197


def test_patch_size_must_divide():
    with pytest.raises(ShapeError):
        ModelConfig(image_size=30, patch_size=8)


def test_teacher_requires_head_factorization():
    cfg = ModelConfig(layers=1, dim=30, heads=2, head_dim=16,
                      patch_size=8, image_size=32)
    with pytest.raises(ShapeError):
        TeacherModel(cfg)


def test_zero_image_zero_projection_gives_positional():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=0)
    model.patch_w.data[:] = 0.0
    model.patch_b.data[:] = 0.0
    model.cls.data[:] = 0.0
    x = model.patch_embed(np.zeros((cfg.channels, 32, 32)))
    np.testing.assert_array_equal(x.data[0], model.pos.data)


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
    layer = model.layers[0]
    layer.fc1_w.data[:] = 0.0
    layer.fc1_b.data[:] = 0.0
    layer.fc2_w.data[:] = 0.0
    layer.fc2_b.data[:] = 0.0
    x = Tensor(np.random.default_rng(3).normal(size=(1, cfg.tokens, cfg.dim)))
    out = model.mlp_block(x, layer)
    np.testing.assert_array_equal(out.data, x.data)


def test_mlp_matches_straight_line_oracle():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=4)
    layer = model.layers[0]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(cfg.tokens, cfg.dim))
    out = model.mlp_block(Tensor(x[None]), layer).data[0]

    # independent straight-line reimplementation
    from scipy.special import erf
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    h = (x - mu) / np.sqrt(var + 1e-5)
    h = h * layer.ln2_g.data + layer.ln2_b.data
    h = h @ layer.fc1_w.data + layer.fc1_b.data
    h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
    expect = x + h @ layer.fc2_w.data + layer.fc2_b.data
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
            x = model.mlp_block(y, model.layers[j])
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
        for layer in model.layers:
            y, _ = model.attention_block(cur, layer)
            cur = model.mlp_block(y, layer)
        return model.classify(cur).data

    np.testing.assert_allclose(run(x), run(xp), atol=1e-10)
