import dataclasses

import numpy as np
import pytest

from far import profiler
from far.cli import _print_rows, main
from far.vit import ModelConfig, TeacherModel
from far.far_block import replace_attention
from far.profiler import bench_latency, cost_rows, count_flops, count_params
from far.pruner import prune_by_threshold, shrink_model
from far.tensor import ShapeError

from conftest import desk_config


def deit(layers=12, dim=192, heads=3):
    return ModelConfig(layers=layers, dim=dim, heads=heads,
                       head_dim=dim // heads, mlp_ratio=4, patch_size=16,
                       image_size=224, num_classes=1000)


TINY, SMALL, BASE = deit(), deit(dim=384, heads=6), deit(dim=768, heads=12)

# Published parameter totals for the three model sizes, attention vs
# recurrent substitute.  Frozen from the closed-form audit; the analytic
# counts must stay within 3% of these.
PARAM_TABLE = [
    (TINY, 5.7e6, 7.7e6),
    (SMALL, 22.1e6, 25.1e6),
    (BASE, 86.6e6, 89.1e6),
]


@pytest.mark.parametrize("cfg,attn_m,far_m", PARAM_TABLE,
                         ids=["tiny", "small", "base"])
def test_param_table(cfg, attn_m, far_m):
    a = count_params(cfg, "attention")
    f = count_params(cfg, "far")
    assert abs(a - attn_m) / attn_m <= 0.03
    assert abs(f - far_m) / far_m <= 0.03
    assert f > a  # substitute adds parameters


def test_flops_table_tiny_224():
    a = count_flops(TINY, "attention", image_size=224)
    f = count_flops(TINY, "far", image_size=224)
    assert abs(a - 1.25e9) / 1.25e9 <= 0.10
    assert abs(f - 1.45e9) / 1.45e9 <= 0.10
    assert f > a  # at 197 tokens the recurrent path costs more


def test_flops_table_tiny_384():
    cfg = ModelConfig(layers=12, dim=192, heads=3, head_dim=64, mlp_ratio=4,
                      patch_size=16, image_size=384, num_classes=1000)
    a = count_flops(cfg, "attention", image_size=384)
    f = count_flops(cfg, "far", image_size=384)
    assert abs(a - 4.63e9) / 4.63e9 <= 0.10
    assert abs(f - 4.20e9) / 4.20e9 <= 0.10
    assert f < a  # at 577 tokens the quadratic term dominates


def test_crossover_inequalities_exact():
    assert count_flops(TINY, "far", t=197) > count_flops(TINY, "attention",
                                                         t=197)
    assert count_flops(TINY, "far", t=577) < count_flops(TINY, "attention",
                                                         t=577)


def test_flops_monotone_in_tokens():
    prev_a = prev_f = 0
    for t in (17, 65, 197, 577, 1025):
        a = count_flops(TINY, "attention", t=t)
        f = count_flops(TINY, "far", t=t)
        assert a > prev_a and f > prev_f
        prev_a, prev_f = a, f


def test_scaling_order_quadratic_vs_linear():
    """Fit cost(T) = c2*T^2 + c1*T + c0; attention needs the quadratic
    term, the recurrent substitute does not."""
    ts = np.array([64, 128, 256, 512], dtype=float)
    attn = np.array([count_flops(TINY, "attention", t=int(t)) for t in ts])
    far = np.array([count_flops(TINY, "far", t=int(t)) for t in ts])
    ca = np.polyfit(ts, attn, 2)
    cf = np.polyfit(ts, far, 2)
    assert ca[0] > 1e3          # genuine T^2 coefficient
    assert abs(cf[0]) <= 1e-3   # numerically zero quadratic term


def test_tokens_for_image():
    for cfg, size, t in ((TINY, 224, 197), (TINY, 384, 577),
                         (desk_config(), 32, 17)):
        for variant in ("attention", "far"):
            assert (count_flops(cfg, variant, image_size=size)
                    == count_flops(cfg, variant, t=t))


def test_full_masks_match_unmasked():
    cfg = desk_config()
    full = [[np.ones(cfg.head_dim, dtype=bool) for _ in range(2 * cfg.heads)]
            for _ in range(cfg.layers)]
    assert count_params(cfg, "far", masks=full) == count_params(cfg, "far")
    assert count_flops(cfg, "far", t=17, masks=full) == \
        count_flops(cfg, "far", t=17)


def test_pruned_costs_strictly_lower():
    cfg = desk_config()
    masks = [[np.arange(cfg.head_dim) < 8 for _ in range(2 * cfg.heads)]
             for _ in range(cfg.layers)]
    assert count_params(cfg, "far", masks=masks) < count_params(cfg, "far")
    assert count_flops(cfg, "far", t=17, masks=masks) < \
        count_flops(cfg, "far", t=17)


def test_params_hand_check_desk():
    """Straight-line recount of the desk FAR model parameter total."""
    cfg = desk_config()
    d, n, dh, t = cfg.dim, cfg.heads, cfg.head_dim, cfg.tokens
    embed = 3 * 8 * 8 * d + d + t * d + d
    mlp = 2 * d + d * 4 * d + 4 * d + 4 * d * d + d
    far_layer = (2 * d + d * d + d
                 + n * 2 * (4 * dh * dh + 4 * dh * dh + 8 * dh)
                 + 2 * n * dh * d + d + mlp)
    head = 2 * d + d * 10 + 10
    expect = embed + head + cfg.layers * far_layer
    assert count_params(cfg, "far") == expect


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        count_params(TINY, "mamba")
    with pytest.raises(ValueError):
        count_flops(TINY, "mamba", t=10)


def test_bench_latency_protocol(monkeypatch):
    class Clock:  # a busy-wait of exactly 1/512 s per call
        now = 0.0

        def perf_counter(self):
            return self.now

    clock = Clock()
    monkeypatch.setattr(profiler, "time", clock)

    def busy():
        clock.now += 1 / 512

    stats = bench_latency(busy, warmups=3, runs=20)
    assert stats["p10"] <= stats["median"] <= stats["p90"]
    assert stats["median"] >= 1.0
    # deterministic busy-wait: median and mean agree closely
    assert abs(stats["median"] - stats["mean"]) / stats["median"] < 0.5


def test_bench_latency_defaults_and_validation():
    # the defaults live in config.SCHEMA; test_io pins runs 100, warmups 30
    with pytest.raises(ValueError):
        bench_latency(lambda: None, warmups=30, runs=0)
    with pytest.raises(ValueError):
        bench_latency(lambda: None, warmups=-1, runs=100)


def test_cost_report_csv(capsys):
    rows = cost_rows(desk_config(), "far")
    _print_rows(rows)
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "metric,value"
    values = dict(rows)
    assert f"params,{values['params']}" in lines
    assert f"flops,{values['flops']}" in lines
    # total = layer costs + embed + head overhead
    per_layer = [v for k, v in rows if k.startswith("flops_layer_")]
    assert values["flops"] > sum(per_layer) > 0
    assert len([l for l in lines if l.startswith("flops_layer_")]) == 4


# -- counts against the closed forms they replaced ----------------------------

# The closed forms as they stood before the counts were read from the
# tensor tables, kept as the reference the tables must match exactly.

def _embed_params(cfg):
    d = cfg.dim
    return (cfg.channels * cfg.patch_size ** 2 * d + d  # patch proj
            + cfg.tokens * d                            # positional
            + d)                                        # CLS


def _head_params(cfg):
    return 2 * cfg.dim + cfg.dim * cfg.num_classes + cfg.num_classes


def _mlp_params(cfg):
    d, r = cfg.dim, cfg.mlp_ratio
    return 2 * d + d * r * d + r * d + r * d * d + d  # LN2 + two linears


def _attn_layer_params(cfg):
    d = cfg.dim
    return 2 * d + 3 * d * d + 3 * d + d * d + d + _mlp_params(cfg)


def _far_layer_params(cfg, live=None):
    d, dh = cfg.dim, cfg.head_dim
    total = 2 * d + d * d + d  # LN + in_proj
    retained_sum = 0
    for scan in range(2 * cfg.heads):  # each head's fwd and rev
        k = dh if live is None else int(live[scan].sum())
        total += 4 * k * dh + 4 * k * k + 8 * k  # W_ih, W_hh, biases
        retained_sum += k
    total += retained_sum * d + d  # out_proj
    return total + _mlp_params(cfg)


def _attn_layer_flops(cfg, t):
    d, n, dh = cfg.dim, cfg.heads, cfg.head_dim
    return (t * d * 3 * d          # QKV projection
            + 2 * n * t * t * dh   # scores + attention-weighted values
            + t * d * d            # output projection
            + 2 * t * d * cfg.mlp_ratio * d)  # MLP


def _far_layer_flops(cfg, t, live=None):
    d, dh = cfg.dim, cfg.head_dim
    macs = t * d * d  # in_proj
    retained_sum = 0
    for scan in range(2 * cfg.heads):  # each head's fwd and rev
        k = dh if live is None else int(live[scan].sum())
        macs += t * (4 * k * dh + 4 * k * k)
        retained_sum += k
    macs += t * retained_sum * d            # out_proj
    macs += 2 * t * d * cfg.mlp_ratio * d   # MLP
    return macs


def _oracle_params(cfg, variant, masks):
    total = _embed_params(cfg) + _head_params(cfg)
    for l in range(cfg.layers):
        if variant == "attention":
            total += _attn_layer_params(cfg)
        else:
            total += _far_layer_params(
                cfg, None if masks is None else masks[l])
    return total


def _oracle_flops(cfg, variant, t, masks):
    per_layer = [_attn_layer_flops(cfg, t) if variant == "attention"
                 else _far_layer_flops(cfg, t,
                                       None if masks is None else masks[l])
                 for l in range(cfg.layers)]
    embed = (t - 1) * cfg.channels * cfg.patch_size ** 2 * cfg.dim
    return embed + cfg.dim * cfg.num_classes + sum(per_layer), per_layer


ORACLE_CFGS = [dataclasses.replace(base, image_size=size)
               for base in (TINY, SMALL, BASE) for size in (224, 384)]
ORACLE_CFGS.append(desk_config())


@pytest.mark.parametrize("cfg", ORACLE_CFGS,
                         ids=[f"{c.dim}-{c.image_size}" for c in ORACLE_CFGS])
@pytest.mark.parametrize("variant,random_widths", [
    ("attention", False), ("far", False), ("far", True)])
def test_counts_match_closed_forms(cfg, variant, random_widths):
    masks = None
    if random_widths:  # a random share kept per scan, none kept included
        rng = np.random.default_rng(cfg.dim + cfg.image_size)
        masks = [[rng.random(cfg.head_dim) < rng.random()
                  for _ in range(2 * cfg.heads)] for _ in range(cfg.layers)]
    assert count_params(cfg, variant, masks=masks) == \
        _oracle_params(cfg, variant, masks)
    for t in (None, 1, 17, 65, 197, 577):  # None: the config's own image
        assert count_flops(cfg, variant, t=t, masks=masks,
                           breakdown=True) == \
            _oracle_flops(cfg, variant, t or cfg.tokens, masks)


def test_params_are_built_models_parameter_sizes():
    cfg = desk_config()
    teacher = TeacherModel(cfg, seed=5)
    far = replace_attention(teacher, seed=5)

    def size(model):
        return sum(t.data.size for t in model.named_parameters().values())

    assert count_params(cfg, "attention") == size(teacher)
    assert count_params(cfg, "far", masks=far.masks) == size(far)
    prune_by_threshold(far, 0.97, mode="relative")
    shrunk = shrink_model(far)
    assert size(shrunk) < size(far)
    assert count_params(cfg, "far", masks=shrunk.masks) == size(shrunk)


DEIT_TINY_INI = """[model]
layers = 12
dim = 192
heads = 3
head_dim = 64
patch_size = 16
image_size = 384
num_classes = 1000
"""


@pytest.mark.parametrize("ini, attention, far", [
    ("[model]\nimage_size = 384\n", 131_178, 161_642),  # desk at 384 px
    (DEIT_TINY_INI, 5_790_376, 7_739_560),  # 577 positions, not 197
], ids=["desk", "deit-tiny"])
def test_cli_flops_counts_params_at_its_image_size(tmp_path, capsys, ini,
                                                   attention, far):
    path = tmp_path / "run.ini"
    path.write_text(ini)
    assert main(["flops", "--config", str(path)]) == 0
    assert f"params,{attention},{far}" in capsys.readouterr().out.splitlines()


# -- bad sizes fail by name ---------------------------------------------------

@pytest.mark.parametrize("size,match", [
    (0, "image_size must be positive, got 0"),
    (-32, "image_size must be positive, got -32"),
    (225, "patch size 8 does not divide image size 225"),
    (7, "patch size 8 does not divide image size 7"),
], ids=["0", "-32", "225", "7"])
def test_flops_rejects_bad_image_size(size, match, tmp_path, capsys):
    cfg = desk_config()
    with pytest.raises(ShapeError, match=match):
        count_flops(cfg, "far", image_size=size)
    path = tmp_path / "run.ini"
    path.write_text(f"[model]\nimage_size = {size}\n")
    assert main(["flops", "--config", str(path)]) == 1
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("t", [0, -5])
def test_flops_rejects_token_count_below_one(t):
    with pytest.raises(ValueError, match=f"at least 1, got {t}"):
        count_flops(desk_config(), "attention", t=t)
