import gc
import re
import weakref

import numpy as np
import pytest

from far import attribution, far_block, pruner
from far import tensor as T
from far.checkpoint import load_model, save_model
from far.tensor import Tensor
from far.vit import Model, TeacherModel
from far.far_block import (DIRECTIONS, SCAN, FarBlockParams,
                           replace_attention, scan_of, shrink_block)
from far.attribution import (band_mass, cls_saliency, export_heatmaps,
                             token_dependency, uniform_band_mass)

from conftest import desk_config, in_new_thread


@pytest.fixture(scope="module")
def models():
    cfg = desk_config("f64")
    teacher = TeacherModel(cfg, seed=21)
    far = replace_attention(teacher, seed=21)
    rng = np.random.default_rng(21)
    img = rng.normal(size=(3, 32, 32))
    return cfg, teacher, far, img


def test_teacher_dependency_rows_are_probabilities(models):
    cfg, teacher, _, img = models
    dep = token_dependency(teacher, img, layer=1)
    assert dep.shape == (cfg.tokens, cfg.tokens)
    assert np.abs(dep.sum(axis=1) - 1.0).max() <= 1e-6
    assert (dep >= 0).all()


def _full_forward_attention(teacher, image):
    """Reference: every layer's attention weights from one full forward,
    whose logits must equal the model's own forward bit for bit."""
    x = teacher.patch_embed(image)
    attns = []
    for layer, mlp in zip(teacher.mixers, teacher.mlps):
        y, attn = teacher.attention_block(x, layer)
        x = teacher.mlp_block(y, mlp)
        attns.append(attn.data[0])
    np.testing.assert_array_equal(teacher.classify(x).data,
                                  teacher.forward(image)[0].data)
    return attns


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_teacher_maps_equal_full_forward_attention(precision):
    cfg = desk_config(precision)
    teacher = TeacherModel(cfg, seed=26)
    img = np.random.default_rng(26).normal(size=(3, 32, 32))
    attns = _full_forward_attention(teacher, img)
    for layer, attn in enumerate(attns):
        dep = token_dependency(teacher, img, layer)
        assert dep.dtype == attn.dtype
        assert np.array_equal(dep, attn.mean(axis=0))
        for head in range(cfg.heads):
            row = attn[head, 0, 1:]  # CLS row, patch columns
            want = (row - row.min()) / (row.max() - row.min())
            sal = cls_saliency(teacher, img, layer, head)
            assert np.array_equal(sal, want.reshape(cfg.grid, cfg.grid))


def test_far_dependency_rows_normalized(models):
    cfg, _, far, img = models
    dep = token_dependency(far, img, layer=0)
    assert dep.shape == (cfg.tokens, cfg.tokens)
    assert np.abs(dep.sum(axis=1) - 1.0).max() <= 1e-9
    assert (dep >= 0).all()


def test_saliency_shape_and_range(models):
    cfg, teacher, far, img = models
    for model in (teacher, far):
        sal = cls_saliency(model, img, layer=0, head=0)
        assert sal.shape == (cfg.grid, cfg.grid)
        assert sal.min() >= 0.0 and sal.max() <= 1.0
        assert sal.max() == 1.0  # min-max normalized, non-constant input


def test_constant_image_zero_pos_uniform_teacher_saliency():
    cfg = desk_config("f64")
    teacher = TeacherModel(cfg, seed=22)
    teacher.embed.pos.data[:] = 0.0
    img = np.full((3, 32, 32), 0.37)
    sal = cls_saliency(teacher, img, layer=0, head=0)
    # identical keys -> uniform attention row -> constant map collapses
    # to zero after min-max normalization
    assert np.abs(sal).max() <= 1e-6


def test_far_saliency_tracks_true_sensitivity(models):
    """Gradient saliency ranks patches like direct input perturbation."""
    from scipy.stats import spearmanr
    cfg, _, far, img = models
    layer, head = 0, 0
    sal = cls_saliency(far, img, layer, head).ravel()

    from far import tensor as T
    from far.far_block import bilstm_head

    def readout(x_tokens):
        blk = far.mixers[layer]
        h = T.layer_norm(x_tokens, blk.ln_g, blk.ln_b)
        u = T.matmul(h, blk.in_w) + blk.in_b
        sub = T.split(u, cfg.heads, axis=-1)[head]
        hh = bilstm_head(sub, blk.head(head))
        v = hh.data[:, 0, :]
        return float(np.sqrt((v * v).sum()))

    leaf = far.tokens(img, stop=layer)[-1]  # the layer's input tokens
    base = readout(leaf)
    effects = np.zeros(cfg.tokens - 1)
    rng = np.random.default_rng(23)
    for tok in range(1, cfg.tokens):
        acc = 0.0
        for _ in range(4):
            pert = leaf.data.copy()
            pert[0, tok] += 1e-3 * rng.normal(size=cfg.dim)
            from far.tensor import Tensor
            acc += abs(readout(Tensor(pert)) - base)
        effects[tok - 1] = acc
    rho = spearmanr(sal, effects).statistic
    assert rho >= 0.9


def test_forward_only_dependency_is_causal(models):
    cfg, _, far, img = models
    dep = token_dependency(far, img, layer=0, directions=("fwd",))
    upper = np.triu(dep, k=1)
    assert np.abs(upper).max() <= 1e-10
    # and the reverse-only map is the mirror image
    dep_r = token_dependency(far, img, layer=0, directions=("rev",))
    lower = np.tril(dep_r, k=-1)
    assert np.abs(lower).max() <= 1e-10


def _per_query_dependency(model, image, layer, directions):
    """Reference map: one block forward and backward per query token,
    through a rebuilt block whose scans outside ``directions`` have all
    their weights zero, so they output zero and pass no gradient."""
    blk = model.mixers[layer]
    tensors = {n: t.data for n, t in blk.named("blk").items()}
    for k in range(len(blk.scans)):
        n, d = scan_of(k)
        if d not in directions:
            for name in SCAN:
                tensors[f"blk.{n}.{d}.{name}"] = np.zeros_like(
                    tensors[f"blk.{n}.{d}.{name}"])
    blk = FarBlockParams.from_tensors(tensors, "blk", len(blk.scans) // 2,
                                      model.cfg.head_dim, model.cfg.precision)
    x = model.tokens(image, stop=layer)[-1].data
    dep = np.zeros((model.cfg.tokens, model.cfg.tokens))
    for q in range(model.cfg.tokens):
        leaf = Tensor(x, requires_grad=True)
        out = far_block.far_block_forward(leaf, blk)
        T.sqrt(T.tsum(T.square(out[:, q, :]))).backward()
        dep[q] = np.sqrt((leaf.grad[0] ** 2).sum(axis=-1))
    return dep / dep.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("directions", [DIRECTIONS, ("fwd",), ("rev",)])
@pytest.mark.parametrize("widths", ["full", "shrunk"])
def test_batched_dependency_matches_per_query_reference(directions, widths):
    cfg = desk_config("f64")
    far = replace_attention(TeacherModel(cfg, seed=26), seed=26)
    if widths == "shrunk":
        rng = np.random.default_rng(26)
        first = np.arange(cfg.head_dim) == 0  # every scan keeps a unit
        keep = [first | (rng.random(cfg.head_dim) < 0.5)
                for _ in range(2 * cfg.heads)]
        far.mixers = [FarBlockParams.from_tensors(
            shrink_block(blk, keep, "blk"), "blk", cfg.heads, cfg.head_dim,
            cfg.precision) for blk in far.mixers]
    img = np.random.default_rng(26).normal(size=(3, 32, 32))
    for layer in (0, cfg.layers - 1):
        np.testing.assert_allclose(
            token_dependency(far, img, layer, directions),
            _per_query_dependency(far, img, layer, directions),
            rtol=0, atol=1e-12)


# T=17: 85 rows -> passes of 5, 5, 5, 2 queries; 1 row -> 1 query a pass
@pytest.mark.parametrize("rows,passes", [(85, 4), (1, 17)])
def test_dependency_in_passes_matches_one_pass(models, monkeypatch, rows,
                                               passes):
    cfg, _, far, img = models
    layer = cfg.layers - 1
    one = token_dependency(far, img, layer)
    calls = []
    block_forward = attribution.far_block_forward

    def counting(*args, **kwargs):
        calls.append(1)
        return block_forward(*args, **kwargs)

    monkeypatch.setattr(attribution, "far_block_forward", counting)
    monkeypatch.setattr(attribution, "ROWS", rows)
    split = token_dependency(far, img, layer)
    assert len(calls) == passes
    np.testing.assert_allclose(split, one, rtol=0, atol=1e-12)


def test_band_mass_definition():
    dep = np.eye(5)
    assert band_mass(dep, width=1) == 1.0
    assert uniform_band_mass(5, width=1) == 13 / 25
    flat = np.full((5, 5), 0.2)
    np.testing.assert_allclose(band_mass(flat, 1), 13 / 25, atol=1e-12)


def test_far_dependency_is_diagonally_concentrated(models):
    """Residual-free recurrent maps still favour nearby tokens."""
    _, _, far, img = models
    dep = token_dependency(far, img, layer=0)
    t = dep.shape[0]
    assert band_mass(dep, width=1) > uniform_band_mass(t, width=1)


def test_scalarization_scale_invariance_of_ranking(models):
    cfg, _, far, img = models
    a = cls_saliency(far, img, 0, 0)
    b = cls_saliency(far, np.asarray(img) * 1.0, 0, 0)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_range_checks(models):
    cfg, teacher, far, img = models
    with pytest.raises(IndexError):
        cls_saliency(far, img, layer=cfg.layers, head=0)
    with pytest.raises(IndexError):
        cls_saliency(teacher, img, layer=0, head=cfg.heads)
    with pytest.raises(IndexError):
        token_dependency(far, img, layer=-1)


@pytest.mark.parametrize("directions", [("forward",), ()])
def test_far_maps_name_directions_that_select_no_scan(models, directions):
    _, _, far, img = models
    with pytest.raises(ValueError, match=re.escape(str(directions))):
        token_dependency(far, img, 0, directions)


@pytest.mark.parametrize("directions", [(), ("bogus",), ("fwd",), ("rev",),
                                        ("fwd", "bogus")])
def test_teacher_maps_take_only_every_direction(models, directions):
    """A teacher has no scan direction: any ``directions`` but all of
    DIRECTIONS is named, not answered with the full attention map."""
    _, teacher, _, img = models
    with pytest.raises(ValueError, match=r"map has no scan "
                                         r"direction.*" +
                                         re.escape(str(directions))):
        token_dependency(teacher, img, 0, directions)


def test_teacher_map_of_every_direction_is_the_default(models):
    _, teacher, _, img = models
    default = token_dependency(teacher, img, 1)
    for directions in (DIRECTIONS, DIRECTIONS[::-1], list(DIRECTIONS)):
        assert np.array_equal(
            token_dependency(teacher, img, 1, directions), default)


ENTRY_POINTS = {
    "forward": lambda m, img: m.forward(img),
    "cls_saliency": lambda m, img: cls_saliency(m, img, 1, 0),
    "token_dependency": lambda m, img: token_dependency(m, img, 1),
}


@pytest.mark.parametrize("shape", [(32, 32), (1, 1, 3, 32, 32)])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("kind", ["teacher", "far"])
def test_wrong_image_rank_is_named_error(models, kind, entry, shape):
    _, teacher, far, _ = models
    model = {"teacher": teacher, "far": far}[kind]
    with pytest.raises(T.ShapeError, match=re.escape(f"image shape {shape}")):
        ENTRY_POINTS[entry](model, np.zeros(shape))


@pytest.mark.parametrize("entry", ["cls_saliency", "token_dependency"])
@pytest.mark.parametrize("kind", ["teacher", "far"])
def test_maps_reject_a_batch_of_images(models, kind, entry):
    _, teacher, far, img = models
    model = {"teacher": teacher, "far": far}[kind]
    batch = np.stack([img, img[:, ::-1]])
    with pytest.raises(T.ShapeError, match="batch of 2"):
        ENTRY_POINTS[entry](model, batch)
    ENTRY_POINTS[entry](model, batch[:1])  # a batch of one is one image


def test_export_pgm_and_csv_round_trip(tmp_path, models):
    cfg, teacher, _, img = models
    sal = cls_saliency(teacher, img, 0, 0)
    dep = token_dependency(teacher, img, 0)
    paths = export_heatmaps({"sal": sal, "dep": dep},
                            str(tmp_path) + "/run_")
    assert len(paths) == 4
    pgm = (tmp_path / "run_sal.pgm").read_bytes()
    header, rest = pgm.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == f"{cfg.grid} {cfg.grid}".encode()
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(pixels) == cfg.grid * cfg.grid
    # CSV stores exact repr round trip
    back = np.loadtxt(tmp_path / "run_dep.csv", delimiter=",", ndmin=2)
    assert np.array_equal(back, dep)


def test_export_csv_bytes(tmp_path):
    """A heatmap CSV holds each value as ``repr`` of its float64, one row
    of the matrix per line."""
    mat = np.array([[1 / 3, 0.0, -0.0], [-2.5e-17, 123456789.125, 5e-324]])
    export_heatmaps({"m": mat, "f32": np.float32([[1 / 3, 1.5]])},
                    f"{tmp_path}/run_")
    assert (tmp_path / "run_m.csv").read_bytes() == (
        b"0.3333333333333333,0.0,-0.0\n-2.5e-17,123456789.125,5e-324\n")
    assert (tmp_path / "run_f32.csv").read_bytes() == (
        b"0.3333333432674408,1.5\n")


@pytest.mark.parametrize("blocked", ["pgm", "csv"])
def test_export_error_names_the_file_it_failed_to_write(tmp_path, blocked):
    (tmp_path / f"run_dep.{blocked}").mkdir()
    with pytest.raises(OSError, match=re.escape(
            f"failed writing heatmap to {tmp_path}/run_dep.{blocked}:")):
        export_heatmaps({"dep": np.eye(3)}, f"{tmp_path}/run_")


def test_token_dependency_runs_layer_prefix_once(models, monkeypatch):
    """A map of an image no other test maps starts from a miss: the layer
    prefix runs once (``layer`` block forwards), then the layer. A second
    map of that image takes the kept layer input: 1 block forward."""
    cfg, _, far, _ = models
    img = np.random.default_rng(336).normal(size=(3, 32, 32))
    calls = []
    block_forward = attribution.far_block_forward

    def counting(*args, **kwargs):
        calls.append(1)
        return block_forward(*args, **kwargs)

    # the layer prefix runs in far_block (Model.mix), the maps here
    monkeypatch.setattr(attribution, "far_block_forward", counting)
    monkeypatch.setattr(far_block, "far_block_forward", counting)
    layer = cfg.layers - 1
    token_dependency(far, img, layer)
    assert len(calls) == layer + 1
    calls.clear()
    token_dependency(far, img, layer)
    assert len(calls) == 1


def _prefix_runs(monkeypatch):
    """The ``stop`` of every ``Model.tokens`` call from now on."""
    runs, tokens = [], Model.tokens

    def counting(self, image, stop=None):
        runs.append(stop)
        return tokens(self, image, stop)

    monkeypatch.setattr(Model, "tokens", counting)
    return runs


def _memo_models(precision, seed):
    cfg = desk_config(precision)
    teacher = TeacherModel(cfg, seed=seed)
    far = replace_attention(teacher, seed=seed)
    img = np.random.default_rng(seed).normal(size=(3, 32, 32))
    return cfg, teacher, far, img


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("kind", ["teacher", "far"])
def test_kept_layer_input_gives_the_maps_of_a_recomputed_prefix(
        monkeypatch, precision, kind):
    cfg, teacher, far, img = _memo_models(precision, 401)
    model = {"teacher": teacher, "far": far}[kind]
    layer = cfg.layers - 1
    calls = [(cls_saliency, (model, img, layer, h))
             for h in range(cfg.heads)]
    calls.append((token_dependency, (model, img, layer)))
    runs = _prefix_runs(monkeypatch)
    got = [fn(*args) for fn, args in calls]
    assert runs == [layer]
    x = attribution._layer_input(model, img, layer)
    assert runs == [layer]
    assert not x.data.flags.writeable
    assert not x.requires_grad and x._parents == ()
    for g, (fn, args) in zip(got, calls):
        assert np.array_equal(g, in_new_thread(fn, *args))


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("kind", ["teacher", "far"])
def test_layer_input_is_recomputed_when_a_prefix_weight_is_rebound(
        monkeypatch, precision, kind):
    """Each parameter the prefix of the last layer reads (the embedding,
    then every lower layer's) is rebound in turn to new values, zeros
    included (``t.data = t.data * 2 + 1``): the next call recomputes. A
    rebound parameter of the last layer or the head leaves the kept input
    in use."""
    cfg, teacher, far, img = _memo_models(precision, 402)
    model = {"teacher": teacher, "far": far}[kind]
    layer = cfg.layers - 1
    runs = _prefix_runs(monkeypatch)
    attribution._layer_input(model, img, layer)
    for name, t in model.named_parameters().items():
        parts = name.split(".")
        in_prefix = parts[0] == "embed" or (parts[0] in ("layer", "far")
                                            and int(parts[1]) < layer)
        runs.clear()
        t.data = t.data * 2 + 1
        x = attribution._layer_input(model, img, layer)
        assert len(runs) == in_prefix, name
    want = in_new_thread(attribution._layer_input, model, img, layer)
    assert np.array_equal(x.data, want.data)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_layer_input_is_recomputed_after_pruning_and_shrinking(
        monkeypatch, precision):
    cfg, _, far, img = _memo_models(precision, 403)
    layer = cfg.layers - 1
    runs = _prefix_runs(monkeypatch)
    token_dependency(far, img, layer)
    pruner.prune_by_threshold(far, 0.97, mode="relative")  # zeroes in place
    token_dependency(far, img, layer)
    assert len(runs) == 2
    far.mixers = pruner.shrink_model(far).mixers
    assert all(p.hidden < cfg.head_dim for blk in far.mixers[:layer]
               for p in blk.scans)
    got = token_dependency(far, img, layer)
    assert len(runs) == 3
    assert np.array_equal(got, in_new_thread(token_dependency, far, img,
                                             layer))


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_layer_input_is_recomputed_for_another_image_layer_or_model(
        monkeypatch, precision):
    """Only a call equal in image, layer, model type, config and prefix
    weights reuses the kept input; an equal copy of the model does."""
    cfg, teacher, far, img = _memo_models(precision, 404)
    other_far = replace_attention(teacher, seed=405)
    other_img = img + 1.0
    runs = _prefix_runs(monkeypatch)
    calls = [(far, img, 3), (far, other_img, 3), (far, other_img, 2),
             (other_far, other_img, 2), (teacher, other_img, 2)]
    for model, image, layer in calls:
        attribution._layer_input(model, image, layer)
    assert runs == [3, 3, 2, 2, 2]
    copy = TeacherModel.from_tensors(cfg, teacher.named_parameters())
    attribution._layer_input(copy, other_img.copy(), 2)
    assert len(runs) == 5
    # the image is taken at the model's dtype: its f32 cast is the same
    # image to an f32 model and another one to an f64 model
    attribution._layer_input(copy, other_img.astype(np.float32), 2)
    attribution._layer_input(teacher, other_img, 2)
    assert len(runs) == {"f32": 5, "f64": 7}[precision]
    # so is an object array equal in value
    runs.clear()
    x = attribution._layer_input(teacher, other_img.astype(object), 2)
    assert runs == []
    assert np.array_equal(x.data, in_new_thread(
        attribution._layer_input, teacher, other_img, 2).data)


@pytest.mark.parametrize("kind", ["teacher", "far"])
def test_an_f64_image_reuses_the_layer_input_of_its_f32_cast(monkeypatch,
                                                            kind):
    """An f32 model computes on its image at f32 (``patch_embed`` casts it
    before any arithmetic), so an f64 image hits the entry of its f32 cast,
    and the maps of that hit equal those of a fresh prefix."""
    cfg, teacher, far, img = _memo_models("f32", 408)
    model = {"teacher": teacher, "far": far}[kind]
    layer = cfg.layers - 1
    runs = _prefix_runs(monkeypatch)
    attribution._layer_input(model, img.astype(np.float32), layer)
    calls = [(cls_saliency, (model, img, layer, h))
             for h in range(cfg.heads)]
    calls.append((token_dependency, (model, img, layer)))
    got = [fn(*args) for fn, args in calls]
    assert runs == [layer]
    for g, (fn, args) in zip(got, calls):
        assert np.array_equal(g, in_new_thread(fn, *args))


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_a_third_image_evicts_the_kept_layer_input(monkeypatch, precision):
    """One entry per thread: after images a, b and c, a runs its prefix
    again."""
    cfg, _, far, a = _memo_models(precision, 406)
    runs = _prefix_runs(monkeypatch)
    for img in (a, a + 1.0, a + 2.0, a):
        cls_saliency(far, img, cfg.layers - 1, 0)
    assert len(runs) == 4


def test_kept_layer_input_holds_no_model_and_range_checks_run_first():
    cfg, _, far, img = _memo_models("f32", 407)
    layer = cfg.layers - 1
    token_dependency(far, img, layer)
    with pytest.raises(IndexError, match="head"):
        cls_saliency(far, img, layer, cfg.heads)
    with pytest.raises(IndexError, match="layer"):
        token_dependency(far, img, cfg.layers)
    ref = weakref.ref(far)
    del far
    gc.collect()
    assert ref() is None


def test_attribution_of_loaded_model_leaves_no_parameter_grads(tmp_path):
    cfg = desk_config()
    save_model(replace_attention(TeacherModel(cfg, seed=25), seed=25),
               tmp_path / "far.farc")
    far = load_model(tmp_path / "far.farc")
    img = np.random.default_rng(25).normal(size=(3, 32, 32))
    for head in range(cfg.heads):
        cls_saliency(far, img, cfg.layers - 1, head)
    token_dependency(far, img, cfg.layers - 1)
    assert all(p.grad is None for p in far.named_parameters().values())
