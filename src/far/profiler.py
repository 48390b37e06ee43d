"""Analytic cost model and wall-clock latency harness.

Parameter and MAC counts are read from a model's tensor table (name ->
shape; ``variant_shapes`` lays one out from ``vit.tensor_shapes`` and
``far_block.block_shapes``), each layer's mixer kind from its names
(``vit.mixer_kinds``). A parameter count is the sum of the tensor sizes.
MACs follow the MAC-dominant convention used for the DeiT family (one
multiply-accumulate counted once; normalization, softmax, activation and
bias costs are not counted) at T tokens: every 2-D weight of a layer is
one matrix product per token; attention adds 2 * heads * T^2 * head_dim
for its scores and weighted values; ``embed.patch_w`` runs once per patch
(T - 1) and ``final.head_w`` once per image. The T of an image size is the
``ModelConfig.tokens`` of the config at that size, so ``ModelConfig``
alone checks the size. Latency follows the warmup-then-median protocol.
The harness sets no thread count: numpy's BLAS runs with whatever its
environment sets, and ``bench_latency`` records the thread variables
(``THREAD_VARS``) as they were set when it ran, each ``unset`` when
absent, which the report prints.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np

from . import vit
from .far_block import block_shapes

VARIANTS = ("attention", "far")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def variant_shapes(cfg, variant, masks):
    """name -> shape of every tensor of the ``variant`` model of ``cfg``:
    the teacher's table, or the backbone's with a FAR block per layer whose
    scan k has ``masks[layer][k].sum()`` units (``head_dim`` without)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    shapes = vit.tensor_shapes(cfg, attention=variant == "attention")
    if variant == "far":
        for l in range(cfg.layers):
            widths = ([cfg.head_dim] * (2 * cfg.heads) if masks is None
                      else [int(m.sum()) for m in masks[l]])
            shapes.update(block_shapes(f"far.{l}", widths, cfg.head_dim))
    return shapes


def _count(cfg, shapes, t):
    """(parameters, MACs, per-layer MACs) at ``t`` tokens of the model of
    ``cfg`` whose table has ``shapes``, by the rule the module states."""
    if t < 1:
        raise ValueError(f"token count must be at least 1, got {t}")
    runs = {"embed.patch_w": t - 1, "final.head_w": 1}  # embed.pos: no MAC
    attend = 2 * cfg.heads * t * t * cfg.head_dim
    per_layer = [attend if kind == "attention" else 0
                 for kind in vit.mixer_kinds(cfg, shapes)]
    total = 0
    for name, shape in shapes.items():
        if len(shape) != 2:
            continue
        group, layer = name.split(".")[:2]
        if group in ("layer", "far"):
            per_layer[int(layer)] += t * shape[0] * shape[1]
        else:
            total += runs.get(name, 0) * shape[0] * shape[1]
    return (sum(math.prod(s) for s in shapes.values()),
            total + sum(per_layer), per_layer)


def count_params(cfg, variant):
    """Parameter total of a model variant: its tensor table's sizes."""
    return _count(cfg, variant_shapes(cfg, variant, None), cfg.tokens)[0]


def count_flops(cfg, variant, t=None, image_size=None, masks=None,
                breakdown=False):
    """MAC count of one forward pass at sequence length ``t`` (by default
    the tokens of an image of ``image_size``, or of the config's), with the
    per-layer counts too when ``breakdown``; by the rule the module states."""
    if image_size is not None:
        cfg = replace(cfg, image_size=image_size)
    _, total, per_layer = _count(cfg, variant_shapes(cfg, variant, masks),
                                 cfg.tokens if t is None else t)
    return (total, per_layer) if breakdown else total


def bench_latency(run_fn, warmups, runs):
    """Warmup-then-timed median latency of ``run_fn()``.

    Returns stats in milliseconds and the thread variables in effect. The
    caller must pass a closure over an immutable model and fixed input.
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
        "threads": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
    }


def cost_rows(cfg, shapes):
    """(metric, value) rows of the model of ``cfg`` whose tensor table has
    ``shapes`` (name -> shape), whatever its layers' mixer kinds: its
    parameters, its MACs at ``cfg.tokens`` and each layer's MACs."""
    params, total, per_layer = _count(cfg, shapes, cfg.tokens)
    return [("params", params), ("flops", total),
            *((f"flops_layer_{i}", fl) for i, fl in enumerate(per_layer))]
