"""Analytic cost model and wall-clock latency harness.

Parameter and MAC counts are read from the tensor table a model is built
from: ``vit.tensor_shapes`` for the teacher and backbone, and
``far_block.block_shapes`` for each FAR layer at its scans' widths. A
parameter count is the sum of the tensor sizes. MACs follow the
MAC-dominant convention used for the DeiT family (one multiply-accumulate
counted once; normalization, softmax, activation and bias costs are not
counted) at T tokens: every 2-D weight of a layer is one matrix product
per token; attention adds 2 * heads * T^2 * head_dim for its scores and
weighted values; ``embed.patch_w`` runs once per patch (T - 1) and
``final.head_w`` once per image. Latency follows the
warmup-then-median protocol. The harness sets no thread count: numpy's
BLAS runs with whatever its environment sets, and ``bench_latency``
records the thread variables (``THREAD_VARS``) as they were set when it
ran, each ``unset`` when absent, which the report prints.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np

from . import vit
from .far_block import block_shapes
from .tensor import ShapeError

VARIANTS = ("attention", "far")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _shapes(cfg, variant, masks):
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


def count_params(cfg, variant, masks=None):
    """Parameter total of a model variant: its tensor table's sizes."""
    return sum(math.prod(s) for s in _shapes(cfg, variant, masks).values())


def tokens_for_image(cfg, image_size):
    if image_size <= 0 or image_size % cfg.patch_size:
        raise ShapeError(f"image size {image_size} is not a positive "
                         f"multiple of patch size {cfg.patch_size}")
    g = image_size // cfg.patch_size
    return g * g + 1


def count_flops(cfg, variant, t=None, image_size=None, masks=None,
                breakdown=False):
    """MAC count of one forward pass at sequence length ``t`` (by default
    of an image of ``image_size``, or of the config's), with the per-layer
    counts too when ``breakdown``; by the rule the module states."""
    if t is None:
        t = tokens_for_image(
            cfg, cfg.image_size if image_size is None else image_size)
    if t < 1:
        raise ValueError(f"token count must be at least 1, got {t}")
    runs = {"embed.patch_w": t - 1, "final.head_w": 1}  # embed.pos: no MAC
    attend = 2 * cfg.heads * t * t * cfg.head_dim
    per_layer = [attend if variant == "attention" else 0] * cfg.layers
    total = 0
    for name, shape in _shapes(cfg, variant, masks).items():
        if len(shape) != 2:
            continue
        group, layer = name.split(".")[:2]
        if group in ("layer", "far"):
            per_layer[int(layer)] += t * shape[0] * shape[1]
        else:
            total += runs.get(name, 0) * shape[0] * shape[1]
    total += sum(per_layer)
    if breakdown:
        return total, per_layer
    return total


def bench_latency(run_fn, warmups, runs):
    """Warmup-then-timed median latency of ``run_fn()``.

    Returns stats in milliseconds plus the run and warmup counts and the
    thread variables in effect. The caller must pass a closure over an
    immutable model and fixed input.
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
        "threads": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
    }


def cost_rows(cfg, variant, image_size=None, masks=None):
    """(metric, value) rows of the ``variant`` model of ``cfg`` built for
    ``image_size`` (the config's by default), whose position table grows
    with it: the variant, its parameters, its MACs and each layer's MACs."""
    total, per_layer = count_flops(cfg, variant, image_size=image_size,
                                   masks=masks, breakdown=True)
    if image_size is not None:
        cfg = replace(cfg, image_size=image_size)
    return [("variant", variant),
            ("params", count_params(cfg, variant, masks=masks)),
            ("flops", total),
            *((f"flops_layer_{i}", fl) for i, fl in enumerate(per_layer))]
