"""Deterministic synthetic classification dataset.

Each class is an oriented sinusoidal grating with class-specific angle;
per-sample frequency jitter, random phase and pixel noise keep the task
non-trivial while remaining separable by construction.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    images: np.ndarray  # (n, C, H, W) float32
    labels: np.ndarray  # (n,) int64
    train_idx: np.ndarray
    val_idx: np.ndarray

    def split(self, which):
        if which not in ("train", "val"):
            raise ValueError(f"split must be 'train' or 'val', got {which!r}")
        idx = self.train_idx if which == "train" else self.val_idx
        return self.images[idx], self.labels[idx]


def synth_dataset(seed, n, classes, image_size, channels=3, noise=0.25):
    """Stratified oriented-grating dataset with a fixed 80/20 split."""
    if classes < 1:
        raise ValueError(f"classes must be at least 1, got {classes}")
    if n < classes:
        raise ValueError(f"need n >= classes, got n={n}, classes={classes}")
    if image_size < 4:
        raise ValueError("image_size too small")
    if channels < 1:
        raise ValueError(f"channels must be at least 1, got {channels}")
    rng = np.random.default_rng(seed)
    counts = [n // classes + (1 if i < n % classes else 0)
              for i in range(classes)]
    yy, xx = np.mgrid[0:image_size, 0:image_size] / image_size

    images = np.empty((n, channels, image_size, image_size), np.float32)
    labels = np.repeat(np.arange(classes, dtype=np.int64), counts)
    train_idx, val_idx = [], []
    pos = 0
    for c, count in enumerate(counts):
        theta = np.pi * c / classes
        grid = xx * np.cos(theta) + yy * np.sin(theta)
        for j in range(pos, pos + count):
            freq = 3.0 + rng.uniform(-0.3, 0.3)
            phase = rng.uniform(0, 2 * np.pi)
            wave = np.sin(2 * np.pi * freq * grid + phase)
            # one wave per channel; the f64 sum is rounded to f32 on store
            images[j] = wave + rng.normal(
                0, noise, size=(channels, image_size, image_size))
        n_train = max(1, int(round(count * 0.8)))
        train_idx.extend(range(pos, pos + n_train))
        val_idx.extend(range(pos + n_train, pos + count))
        pos += count

    return Dataset(images=images, labels=labels,
                   train_idx=np.array(train_idx, dtype=np.int64),
                   val_idx=np.array(val_idx, dtype=np.int64))
