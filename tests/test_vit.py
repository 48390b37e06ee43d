import numpy as np
import pytest

from far import tensor as T
from far.attribution import cls_saliency
from far.checkpoint import load_checkpoint, load_model, save_model
from far.cli import main
from far.tensor import ShapeError, Tensor
from far.far_block import replace_attention
from far.profiler import count_flops
from far.vit import (ATTENTION, EMBED, FINAL, MLP, Model, ModelConfig,
                     TeacherModel, take, tensor_shapes)

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
    model.embed.patch_w.data[:] = 0.0
    model.embed.patch_b.data[:] = 0.0
    model.embed.cls.data[:] = 0.0
    x = model.patch_embed(np.zeros((cfg.channels, 32, 32)))
    np.testing.assert_array_equal(x.data[0], model.embed.pos.data)


@pytest.mark.parametrize("kind", ["teacher", "far"])
def test_every_tensor_has_one_holder_and_one_name(kind):
    """``named_parameters`` names the very Tensor each holder has, in order:
    ``embed``, each ``mlps[i]`` and ``final``, then each ``mixers[i]`` (the
    attention tensors or a FAR block). No Tensor is named twice, and the
    model keeps no second table."""
    cfg = desk_config()
    model = TeacherModel(cfg, seed=8)
    if kind == "far":
        model = replace_attention(model, seed=8)
    assert tuple(vars(model.embed)) == EMBED
    assert tuple(vars(model.final)) == FINAL
    assert all(tuple(vars(mlp)) == MLP for mlp in model.mlps)
    held = {f"embed.{k}": t for k, t in vars(model.embed).items()}
    held.update((f"layer.{i}.{k}", t) for i, mlp in enumerate(model.mlps)
                for k, t in vars(mlp).items())
    held.update((f"final.{k}", t) for k, t in vars(model.final).items())
    assert list(held) == list(tensor_shapes(cfg, attention=False))
    if kind == "teacher":
        assert all(tuple(vars(layer)) == ATTENTION for layer in model.mixers)
        held.update((f"layer.{i}.{k}", t) for i, layer in
                    enumerate(model.mixers) for k, t in vars(layer).items())
        assert held.keys() == tensor_shapes(cfg).keys()
    else:
        for i, blk in enumerate(model.mixers):
            held.update(blk.named(f"far.{i}"))
    named = model.named_parameters()
    assert list(named) == list(held)
    assert all(named[n] is t for n, t in held.items())
    assert len({id(t) for t in named.values()}) == len(named)
    assert not any(hasattr(model, a) for a in (
        "backbone", "attention", "patch_w", "cls", "pos", "ln_f_g", "head_w"))


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
    layer = model.mixers[0]
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
    _, attn = model.attention_block(x, model.mixers[0])
    sums = attn.data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() <= 1e-6
    assert (attn.data >= 0).all()


def test_single_token_attention_degenerates():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=1)
    x = Tensor(np.random.default_rng(2).normal(size=(1, 1, cfg.dim)))
    _, attn = model.attention_block(x, model.mixers[0])
    np.testing.assert_allclose(attn.data, np.ones((1, cfg.heads, 1, 1)))


def _composed_attention(qkv, n, dh):
    """The oracle of ``T.attention``: the graph of split, reshape,
    transpose, matmul, scale and softmax nodes that the teacher ran before
    it had that one node."""
    b, t, _ = qkv.shape
    d = n * dh
    q, k, v = T.split(qkv, 3, axis=-1)
    q = T.transpose(T.reshape(q, (b, t, n, dh)), (0, 2, 1, 3))
    k = T.transpose(T.reshape(k, (b, t, n, dh)), (0, 2, 1, 3))
    v = T.transpose(T.reshape(v, (b, t, n, dh)), (0, 2, 1, 3))
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    attn = T.softmax(scores, axis=-1)
    out = T.matmul(attn, v)
    return T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, t, d)), attn


def _composed_attention_block(model, x, layer):
    h = T.layer_norm(x, layer.ln1_g, layer.ln1_b)
    qkv = T.linear(h, layer.qkv_w, layer.qkv_b)
    out, attn = _composed_attention(qkv, model.cfg.heads, model.cfg.head_dim)
    return x + T.linear(out, layer.proj_w, layer.proj_b), attn


@pytest.mark.parametrize("heads,head_dim", [(2, 16), (3, 8)])
@pytest.mark.parametrize("batch", [1, 3, 32])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_attention_block_equals_the_composed_graph_bit_for_bit(
        precision, batch, heads, head_dim):
    """Output, weights, input gradient and the six ``ATTENTION`` gradients
    of the one-node attention equal the composed graph's byte for byte; at
    head_dim 8, scaling by 1/√head_dim rounds, so where the backward scales
    matters."""
    cfg = desk_config(precision)
    cfg.heads, cfg.head_dim, cfg.dim = heads, head_dim, heads * head_dim
    model = TeacherModel(cfg, seed=9)
    layer = model.mixers[1]
    rng = np.random.default_rng(batch)
    x0 = model.tokens(random_image(cfg, rng, batch), stop=1)[-1].data
    g = rng.normal(size=x0.shape).astype(x0.dtype)

    def run(block):
        x = Tensor(x0, requires_grad=True)
        for t in vars(layer).values():
            t.requires_grad, t.grad = True, None
        y, attn = block(x, layer)
        T.tsum(y * Tensor(g)).backward()
        return [y.data, attn.data, x.grad] + [getattr(layer, k).grad
                                              for k in ATTENTION]

    want = run(lambda x, lay: _composed_attention_block(model, x, lay))
    got = run(model.attention_block)
    for name, a, b in zip(["y", "attn", "x"] + list(ATTENTION), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# graph nodes of a desk B=1 forward; the teacher's was 108 when its
# attention core was 16 nodes of its own
FORWARD_NODES = {"teacher": 52, "far": 48}


def test_forward_graph_nodes(monkeypatch):
    cfg = desk_config()
    teacher = TeacherModel(cfg, seed=5)
    models = {"teacher": teacher, "far": replace_attention(teacher, seed=5)}
    image = random_image(cfg, np.random.default_rng(5))
    count, make = [0], T._make

    def counting_make(*args):
        count[0] += 1
        return make(*args)

    monkeypatch.setattr(T, "_make", counting_make)
    for name, model in models.items():
        count[0] = 0
        model.forward(image)
        assert count[0] <= FORWARD_NODES[name], (name, count[0])


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
            y, _ = model.attention_block(x, model.mixers[j])
            x = model.mlp_block(y, model.mlps[j])
        np.testing.assert_array_equal(blocks[i].data, x.data)


def test_token_permutation_equivariance_with_zero_pos():
    cfg = desk_config("f64")
    model = TeacherModel(cfg, seed=7)
    model.embed.pos.data[:] = 0.0
    rng = np.random.default_rng(7)
    img = rng.normal(size=(3, 32, 32))
    x = model.patch_embed(img)
    perm = np.concatenate([[0], 1 + rng.permutation(cfg.tokens - 1)])
    xp = Tensor(x.data[:, perm, :])

    def run(tok):
        cur = tok
        for layer, mlp in zip(model.mixers, model.mlps):
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
    f = model.final
    f.ln_g.data[:] = rng.normal(size=cfg.dim)
    f.ln_b.data[:] = rng.normal(size=cfg.dim)
    x0 = model.tokens(random_image(cfg, rng, batch))[-1].data
    weights = rng.normal(size=(batch, cfg.num_classes)).astype(np.float32)

    def run(classify):
        x = Tensor(x0, requires_grad=True)
        for t in (f.ln_g, f.ln_b):
            t.requires_grad, t.grad = True, None
        logits = classify(x)
        T.tsum(logits * weights).backward()
        return logits.data, x.grad + 0.0, f.ln_g.grad, f.ln_b.grad

    def full_ln(x):
        h = T.layer_norm(x, f.ln_g, f.ln_b)
        return T.linear(h[:, 0, :], f.head_w, f.head_b)

    for got, want in zip(run(model.classify), run(full_ln)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _swapped(model, source, layers):
    """The table of ``model`` with the mixers of ``layers`` taken from
    ``source``, whose backbone is ``model``'s."""
    def mixers(m):
        return {n: t for n, t in m.mixer_parameters().items()
                if int(n.split(".")[1]) in layers}

    drop = mixers(model)
    return {**{n: t for n, t in model.named_parameters().items()
               if n not in drop}, **mixers(source)}


def test_a_model_mixes_attention_and_far_layers(teacher_f64, far_f64,
                                                tmp_path, capsys):
    """Attention at layers 0 and 2 from the teacher, FAR blocks at 1 and 3
    from ``replace_attention``, in one f64 model of one table."""
    cfg = teacher_f64.cfg
    mixed = Model(cfg, _swapped(teacher_f64, far_f64, (1, 3)))
    assert [type(m).__name__ for m in mixed.mixers] == [
        "SimpleNamespace", "FarBlockParams"] * 2
    assert not isinstance(mixed, TeacherModel)
    img = random_image(cfg, np.random.default_rng(61), batch=2)
    logits, blocks = mixed.forward(img)
    t_logits, t_blocks = teacher_f64.forward(img)
    f_logits = far_f64.forward(img)[0]
    assert np.array_equal(blocks[0].data, t_blocks[0].data)
    assert not np.array_equal(blocks[1].data, t_blocks[1].data)
    assert not np.array_equal(logits.data, t_logits.data)
    assert not np.array_equal(logits.data, f_logits.data)

    back = Model(cfg, _swapped(mixed, teacher_f64, (1, 3)))
    assert np.array_equal(back.forward(img)[0].data, t_logits.data)
    every = Model(cfg, _swapped(mixed, far_f64, (0, 2)))
    assert np.array_equal(every.forward(img)[0].data, f_logits.data)

    path, out = tmp_path / "mixed.farc", tmp_path / "out.farc"
    save_model(mixed, path)
    assert load_checkpoint(path)[1] == "mixed"
    loaded = load_model(path)
    assert type(loaded) is Model
    assert np.array_equal(loaded.forward(img)[0].data, logits.data)
    assert main(["finetune", "--checkpoint", str(path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "expected a far checkpoint" in err
    assert not out.exists()
    assert main(["bench", "--checkpoint", str(path)]) == 0
    rows = dict(line.split(",", 1)
                for line in capsys.readouterr().out.splitlines())
    assert rows["variant"] == "mixed"
    assert int(rows["params"]) == sum(
        a.size for a in load_checkpoint(path)[2].values())
    kinds = {v: count_flops(cfg, v, breakdown=True)[1]
             for v in ("attention", "far")}
    assert [int(rows[f"flops_layer_{i}"]) for i in range(cfg.layers)] == [
        kinds["attention"][0], kinds["far"][1],
        kinds["attention"][2], kinds["far"][3]]

    for head in range(cfg.heads):
        assert np.array_equal(cls_saliency(mixed, img[0], 0, head),
                              cls_saliency(teacher_f64, img[0], 0, head))
