from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from far.vit import ModelConfig, TeacherModel
from far.far_block import replace_attention


def desk_config(precision="f32"):
    return ModelConfig(layers=4, dim=32, heads=2, head_dim=16, mlp_ratio=4,
                       patch_size=8, image_size=32, num_classes=10,
                       precision=precision)


@pytest.fixture
def desk_cfg():
    return desk_config()


@pytest.fixture
def desk_cfg_f64():
    return desk_config("f64")


@pytest.fixture
def teacher_f64(desk_cfg_f64):
    return TeacherModel(desk_cfg_f64, seed=3)


@pytest.fixture
def far_f64(teacher_f64):
    return replace_attention(teacher_f64, seed=3)


def random_image(cfg, rng, batch=1):
    return rng.normal(size=(batch, cfg.channels, cfg.image_size,
                            cfg.image_size)).astype(np.float32)


def in_new_thread(fn, *args):
    """``fn(*args)`` on a thread of its own, whose per-thread state (scan
    workspaces, the kept layer input of a map) starts empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result(timeout=60)
