"""Analytic cost model and wall-clock latency harness.

Compute counts follow the MAC-dominant convention used for the DeiT
family (one multiply-accumulate counted once; normalization, softmax and
activation costs only included in verbose mode). Latency follows the
warmup-then-median protocol. The harness sets no thread count: numpy's
BLAS runs with whatever its environment sets.
"""

import time
from dataclasses import dataclass, field

import numpy as np

VARIANTS = ("attention", "far")


@dataclass
class CostReport:
    variant: str
    params: int = 0
    flops: int = 0
    per_layer: list = field(default_factory=list)
    latency_ms: dict = field(default_factory=dict)
    runs: int = 0
    warmups: int = 0

    def csv(self):
        lines = ["metric,value",
                 f"variant,{self.variant}",
                 f"params,{self.params}",
                 f"flops,{self.flops}"]
        for i, fl in enumerate(self.per_layer):
            lines.append(f"flops_layer_{i},{fl}")
        for k, v in self.latency_ms.items():
            lines.append(f"latency_{k}_ms,{v:.6f}")
        if self.runs:
            lines += [f"runs,{self.runs}", f"warmups,{self.warmups}"]
        return "\n".join(lines) + "\n"


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
    for h in range(cfg.heads):
        for dirn in ("fwd", "rev"):
            k = dh if live is None else int(live[h][dirn].sum())
            total += 4 * k * dh + 4 * k * k + 8 * k  # W_ih, W_hh, biases
            retained_sum += k
    total += retained_sum * d + d  # out_proj
    return total + _mlp_params(cfg)


def count_params(cfg, variant, masks=None):
    """Exact closed-form parameter total for a model variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    total = _embed_params(cfg) + _head_params(cfg)
    for l in range(cfg.layers):
        if variant == "attention":
            total += _attn_layer_params(cfg)
        else:
            total += _far_layer_params(
                cfg, None if masks is None else masks[l])
    return total


def _attn_layer_flops(cfg, t, verbose=False):
    d, n, dh = cfg.dim, cfg.heads, cfg.head_dim
    macs = (t * d * 3 * d          # QKV projection
            + 2 * n * t * t * dh   # scores + attention-weighted values
            + t * d * d            # output projection
            + 2 * t * d * cfg.mlp_ratio * d)  # MLP
    if verbose:
        macs += 2 * t * d + n * t * t + t * cfg.mlp_ratio * d  # LN/softmax/act
    return macs


def _far_layer_flops(cfg, t, live=None, verbose=False):
    d, dh = cfg.dim, cfg.head_dim
    macs = t * d * d  # in_proj
    retained_sum = 0
    for h in range(cfg.heads):
        for dirn in ("fwd", "rev"):
            k = dh if live is None else int(live[h][dirn].sum())
            macs += t * (4 * k * dh + 4 * k * k)
            retained_sum += k
    macs += t * retained_sum * d            # out_proj
    macs += 2 * t * d * cfg.mlp_ratio * d   # MLP
    if verbose:
        macs += 2 * t * d + t * cfg.mlp_ratio * d
    return macs


def tokens_for_image(cfg, image_size):
    g = image_size // cfg.patch_size
    return g * g + 1


def count_flops(cfg, variant, t=None, image_size=None, masks=None,
                verbose=False, breakdown=False):
    """MAC count of one forward pass at sequence length ``t``."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if t is None:
        t = tokens_for_image(cfg, image_size or cfg.image_size)
    d = cfg.dim
    embed = (t - 1) * cfg.channels * cfg.patch_size ** 2 * d
    head = d * cfg.num_classes
    per_layer = []
    for l in range(cfg.layers):
        if variant == "attention":
            per_layer.append(_attn_layer_flops(cfg, t, verbose))
        else:
            per_layer.append(_far_layer_flops(
                cfg, t, None if masks is None else masks[l], verbose))
    total = embed + head + sum(per_layer)
    if breakdown:
        return total, per_layer
    return total


def bench_latency(run_fn, warmups=30, runs=100):
    """Warmup-then-timed median latency of ``run_fn()``.

    Returns stats in milliseconds plus the run and warmup counts. The caller
    must pass a closure over an immutable model and fixed input.
    """
    if runs <= 0:
        raise ValueError("runs must be positive")
    if warmups < 0:
        raise ValueError("warmups must be non-negative")
    for _ in range(warmups):
        run_fn()
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        run_fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    arr = np.array(samples)
    return {
        "median": float(np.median(arr)),
        "mean": float(arr.mean()),
        "p10": float(np.percentile(arr, 10)),
        "p90": float(np.percentile(arr, 90)),
        "runs": runs,
        "warmups": warmups,
    }


def cost_report(cfg, variant, image_size=None, masks=None):
    total, per_layer = count_flops(cfg, variant, image_size=image_size,
                                   masks=masks, breakdown=True)
    return CostReport(variant=variant,
                      params=count_params(cfg, variant, masks=masks),
                      flops=total, per_layer=per_layer)
