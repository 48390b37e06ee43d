"""Attention-free inference for small vision transformers.

Replaces self-attention blocks with multi-head bidirectional LSTM
substitutes trained by block-wise distillation, then compresses them
with gate-coordinated group Hoyer-square structured pruning.
"""

from .tensor import Tensor
from .vit import Model, ModelConfig, TeacherModel
from .far_block import replace_attention

__all__ = ["Tensor", "ModelConfig", "Model", "TeacherModel",
           "replace_attention"]

__version__ = "0.1.0"
