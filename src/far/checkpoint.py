"""Bit-exact binary checkpoint format.

Layout (all integers little-endian):

    magic   4 bytes  b"FARC"
    version u32
    config  u32 byte length + UTF-8 "key=value" lines
    count   u64 number of tensors
    per tensor:
        u32 name byte length, UTF-8 name
        u32 rank, rank x u64 dims
        u8  dtype tag (0=f32, 1=f64, 2=u8)
        raw little-endian payload
    crc     u32 CRC-32 of all preceding bytes

Loading verifies magic, rejects versions newer than FORMAT_VERSION, and
fails hard on CRC mismatch or truncation.

Version 2 lets each LSTM scan of a FAR model be narrower than head_dim:
a pruned model is stored physically shrunk, and ``load_model`` builds each
scan at the hidden size of its ``w_hh`` tensor. Version 1 files stay
readable; their ``mask.*`` tensors are skipped, which is exact because a
v1 pruned file already holds its pruned units as all-zero weight groups.
"""

import os
import struct
import tempfile
import zlib

import numpy as np

from .far_block import DIRECTIONS, FarModel, replace_attention, shrink_block
from .tensor import Tensor
from .vit import ModelConfig, TeacherModel

MAGIC = b"FARC"
FORMAT_VERSION = 2
DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
TAG_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1,
           np.dtype(np.uint8): 2}


class CheckpointError(IOError):
    """Corrupt, truncated or incompatible checkpoint file."""


def _config_blob(cfg: ModelConfig, kind: str) -> bytes:
    fields = {"kind": kind, "layers": cfg.layers, "dim": cfg.dim,
              "heads": cfg.heads, "head_dim": cfg.head_dim,
              "mlp_ratio": cfg.mlp_ratio, "patch_size": cfg.patch_size,
              "image_size": cfg.image_size, "num_classes": cfg.num_classes,
              "channels": cfg.channels, "precision": cfg.precision}
    return "\n".join(f"{k}={v}" for k, v in fields.items()).encode()


def _parse_config_blob(blob: bytes):
    kv = dict(line.split("=", 1) for line in blob.decode().splitlines() if line)
    kind = kv.pop("kind", "teacher")
    cfg = ModelConfig(
        layers=int(kv["layers"]), dim=int(kv["dim"]), heads=int(kv["heads"]),
        head_dim=int(kv["head_dim"]), mlp_ratio=int(kv["mlp_ratio"]),
        patch_size=int(kv["patch_size"]), image_size=int(kv["image_size"]),
        num_classes=int(kv["num_classes"]), channels=int(kv["channels"]),
        precision=kv["precision"])
    return cfg, kind


def save_checkpoint(path, cfg, tensors, kind="teacher"):
    """Write named arrays atomically. ``tensors`` maps name -> array/Tensor."""
    body = bytearray()
    body += MAGIC
    body += struct.pack("<I", FORMAT_VERSION)
    blob = _config_blob(cfg, kind)
    body += struct.pack("<I", len(blob)) + blob
    body += struct.pack("<Q", len(tensors))
    for name in sorted(tensors):
        arr = tensors[name]
        arr = np.ascontiguousarray(arr.data if isinstance(arr, Tensor) else arr)
        tag = TAG_FOR.get(arr.dtype)
        if tag is None:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for {name}")
        nb = name.encode()
        body += struct.pack("<I", len(nb)) + nb
        body += struct.pack("<I", arr.ndim)
        body += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
        body += struct.pack("<B", tag)
        body += arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)

    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Returns (cfg, kind, dict name -> array). Hard-fails on corruption."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a FARC checkpoint")
    (stored_crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: CRC mismatch, file is corrupt")
    off = 4
    (version,) = struct.unpack_from("<I", raw, off); off += 4
    if version > FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} is newer than supported "
            f"{FORMAT_VERSION}")
    (clen,) = struct.unpack_from("<I", raw, off); off += 4
    cfg, kind = _parse_config_blob(raw[off:off + clen]); off += clen
    (count,) = struct.unpack_from("<Q", raw, off); off += 8
    tensors = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", raw, off); off += 4
        name = raw[off:off + nlen].decode(); off += nlen
        (rank,) = struct.unpack_from("<I", raw, off); off += 4
        dims = struct.unpack_from(f"<{rank}Q", raw, off) if rank else ()
        off += 8 * rank
        (tag,) = struct.unpack_from("<B", raw, off); off += 1
        dtype = DTYPE_TAGS.get(tag)
        if dtype is None:
            raise CheckpointError(f"{path}: unknown dtype tag {tag}")
        nbytes = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize if rank else dtype.itemsize
        payload = raw[off:off + nbytes]
        if len(payload) != nbytes:
            raise CheckpointError(f"{path}: truncated tensor {name}")
        off += nbytes
        tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    if off != len(raw) - 4:
        raise CheckpointError(f"{path}: trailing or missing bytes")
    return cfg, kind, tensors


# -- model <-> tensor-table bridging -------------------------------------------


def save_model(model, path):
    """Serialize a TeacherModel or FarModel at its current scan widths."""
    kind = "far" if isinstance(model, FarModel) else "teacher"
    save_checkpoint(path, model.cfg, model.named_parameters(), kind=kind)


def _file_widths(path, cfg, tensors, layer):
    """keep[head][direction] selecting the first w_hh-width units."""
    keep = {}
    for h in range(cfg.heads):
        keep[h] = {}
        for d in DIRECTIONS:
            name = f"far.{layer}.{h}.{d}.w_hh"
            shape = tensors[name].shape
            width = shape[1] if len(shape) == 2 else 0
            if not 1 <= width <= cfg.head_dim:
                raise CheckpointError(
                    f"{path}: tensor {name} has shape {shape}; its hidden "
                    f"size must be 1..{cfg.head_dim}")
            keep[h][d] = np.arange(cfg.head_dim) < width
    return keep


def load_model(path):
    """Rebuild a model shell from a checkpoint; returns the model."""
    cfg, kind, tensors = load_checkpoint(path)
    tensors = {n: a for n, a in tensors.items() if not n.startswith("mask.")}
    teacher = TeacherModel(cfg, seed=0)
    if kind == "teacher":
        model = teacher
    else:
        model = replace_attention(teacher, cfg, seed=0)
    named = model.named_parameters()
    for name in named:
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name}")
    for name in tensors:
        if name not in named:
            raise CheckpointError(f"{path}: unexpected tensor {name}")
    if kind == "far":
        for l, blk in enumerate(model.blocks):
            keep = _file_widths(path, cfg, tensors, l)
            if not all(k.all() for head in keep.values() for k in head.values()):
                model.blocks[l] = shrink_block(blk, keep)
        named = model.named_parameters()
    for name, arr in tensors.items():
        if named[name].data.shape != arr.shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {arr.shape}, expected "
                f"{named[name].data.shape}")
        named[name].data = arr.astype(named[name].data.dtype, copy=True)
    return model
