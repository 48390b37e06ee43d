import time

import numpy as np
import pytest

from far.vit import ModelConfig
from far.far_block import DIRECTIONS
from far.profiler import (bench_latency, cost_report, count_flops,
                          count_params, tokens_for_image)

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
    assert tokens_for_image(TINY, 224) == 197
    assert tokens_for_image(TINY, 384) == 577
    assert tokens_for_image(desk_config(), 32) == 17


def test_full_masks_match_unmasked():
    cfg = desk_config()
    full = [{h: {d: np.ones(cfg.head_dim, dtype=bool) for d in DIRECTIONS}
             for h in range(cfg.heads)} for _ in range(cfg.layers)]
    assert count_params(cfg, "far", masks=full) == count_params(cfg, "far")
    assert count_flops(cfg, "far", t=17, masks=full) == \
        count_flops(cfg, "far", t=17)


def test_pruned_costs_strictly_lower():
    cfg = desk_config()
    masks = [{h: {d: np.arange(cfg.head_dim) < 8 for d in DIRECTIONS}
              for h in range(cfg.heads)} for _ in range(cfg.layers)]
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


def test_bench_latency_protocol():
    def busy():
        end = time.perf_counter() + 0.001
        while time.perf_counter() < end:
            pass

    stats = bench_latency(busy, warmups=3, runs=20)
    assert stats["runs"] == 20 and stats["warmups"] == 3
    assert stats["p10"] <= stats["median"] <= stats["p90"]
    assert stats["median"] >= 1.0
    # deterministic busy-wait: median and mean agree closely
    assert abs(stats["median"] - stats["mean"]) / stats["median"] < 0.5


def test_bench_latency_defaults_and_validation():
    import inspect
    sig = inspect.signature(bench_latency)
    assert sig.parameters["runs"].default == 100
    assert sig.parameters["warmups"].default == 30
    with pytest.raises(ValueError):
        bench_latency(lambda: None, runs=0)
    with pytest.raises(ValueError):
        bench_latency(lambda: None, warmups=-1)


def test_cost_report_csv():
    rep = cost_report(desk_config(), "far")
    text = rep.csv()
    lines = text.strip().splitlines()
    assert lines[0] == "metric,value"
    assert f"params,{rep.params}" in lines
    assert f"flops,{rep.flops}" in lines
    # total = layer costs + embed + head overhead
    assert rep.flops > sum(rep.per_layer) > 0
    assert len([l for l in lines if l.startswith("flops_layer_")]) == 4
