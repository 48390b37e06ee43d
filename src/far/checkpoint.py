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

Loading verifies magic, rejects versions outside 1..FORMAT_VERSION, and
fails with a CheckpointError naming the file on CRC mismatch, on any read
past the end and on a tensor name that is not UTF-8 or comes twice.
``load_model`` builds the model straight from the file's tensor table: a
missing, unexpected or misshapen tensor is a CheckpointError naming it,
and so is a stored ``kind`` (``model_kind``) other than the table's. Kind
``mixed`` needed no version bump: an older reader rejects it by name. A
loaded FAR model builds its ``teacher`` (a seed-0 random teacher holding a
copy of the file's backbone, read only by perfbench) on first read, so a
load that never reads it draws no random numbers.

Version 2 lets each LSTM scan of a FAR model be narrower than head_dim,
and ``load_model`` builds each scan at the hidden size of its ``w_hh``
tensor. ``save_model`` writes every FAR model at its live widths: a unit
whose coupled weights are all zero is dropped from the file, so a model
pruned in place loads back as small as ``pruner.shrink_model`` would make
it, and a block with no such unit is written without a re-pack. Version 1
files stay readable; their ``mask.*`` tensors are skipped, which is exact
because a v1 pruned file already holds its pruned units as all-zero weight
groups.
"""

import functools
import math
import os
import struct
import tempfile
import zlib
from dataclasses import fields

import numpy as np

from .far_block import FarBlockParams, live_tensors
from .tensor import ShapeError, Tensor
from .vit import Model, ModelConfig, TeacherModel, tensor_shapes

MAGIC = b"FARC"
FORMAT_VERSION = 2
KINDS = ("teacher", "far", "mixed")
DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
TAG_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1,
           np.dtype(np.uint8): 2}


class CheckpointError(IOError):
    """Corrupt, truncated or incompatible checkpoint file."""


def _config_blob(cfg: ModelConfig, kind: str) -> bytes:
    items = [("kind", kind)] + [(f.name, getattr(cfg, f.name))
                                for f in fields(ModelConfig)]
    return "\n".join(f"{k}={v}" for k, v in items).encode()


def _parse_config_blob(path, blob: bytes):
    """(ModelConfig, kind) from a config block; any fault is a
    CheckpointError naming ``path``."""
    try:
        lines = [line for line in blob.decode().splitlines() if line]
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: config block is not UTF-8") from exc
    for line in lines:
        if "=" not in line:
            raise CheckpointError(f"{path}: config line {line!r} has no '='")
    kv = dict(line.split("=", 1) for line in lines)
    keys = {"kind"} | {f.name for f in fields(ModelConfig)}
    if kv.keys() != keys:
        raise CheckpointError(
            f"{path}: config keys {sorted(kv)} differ from {sorted(keys)}")
    kind = kv.pop("kind")
    if kind not in KINDS:
        raise CheckpointError(
            f"{path}: model kind {kind!r} is not one of {KINDS}")
    try:
        return ModelConfig(**{f.name: f.type(kv[f.name])
                              for f in fields(ModelConfig)}), kind
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad config value: {exc}") from exc


def save_checkpoint(path, cfg, tensors, kind="teacher"):
    """Write named arrays atomically. ``tensors`` maps name -> array/Tensor.
    An OSError names ``path``, and no temporary file is left behind."""
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

    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # the target, not the temporary file
            raise OSError(exc.errno, exc.strerror or str(exc),
                          str(path)) from None
        raise


def load_checkpoint(path):
    """Returns (cfg, kind, dict name -> array). Hard-fails on corruption:
    every read is bounded by the bytes that remain."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a FARC checkpoint")
    (stored_crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: CRC mismatch, file is corrupt")
    off, end = 4, len(raw) - 4

    def read(n):
        nonlocal off
        if n > end - off:
            raise CheckpointError(f"{path}: truncated: {n} bytes needed at "
                                  f"byte {off}, {end - off} remain")
        off += n
        return raw[off - n:off]

    def unpack(fmt):
        return struct.unpack(fmt, read(struct.calcsize(fmt)))[0]

    version = unpack("<I")
    if not 1 <= version <= FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version} is not "
                              f"one of the supported 1..{FORMAT_VERSION}")
    cfg, kind = _parse_config_blob(path, read(unpack("<I")))
    tensors = {}
    for _ in range(unpack("<Q")):
        try:
            name = read(unpack("<I")).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: a tensor name is not UTF-8") from exc
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor {name}")
        rank = unpack("<I")
        dims = struct.unpack(f"<{rank}Q", read(8 * rank))
        tag = unpack("<B")
        dtype = DTYPE_TAGS.get(tag)
        if dtype is None:
            raise CheckpointError(f"{path}: unknown dtype tag {tag}")
        payload = read(math.prod(dims) * dtype.itemsize)
        tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    if off != end:
        raise CheckpointError(f"{path}: trailing or missing bytes")
    return cfg, kind, tensors


# -- model <-> tensor-table bridging -------------------------------------------


def model_kind(model):
    """``teacher``, ``far`` or ``mixed``: the kinds of ``model``'s mixers."""
    far = [isinstance(m, FarBlockParams) for m in model.mixers]
    return "far" if all(far) else "mixed" if any(far) else "teacher"


def save_model(model, path):
    """Serialize ``model``, unchanged, at its live widths: without the
    pruned units of its FAR blocks (``far_block.live_tensors``)."""
    save_checkpoint(path, model.cfg, live_tensors(model),
                    kind=model_kind(model))


class _FarFileModel(Model):
    """A FAR file's model, with ``teacher`` as well (the "known wart":
    perfbench distills against ``load_model(far).teacher`` and pins that
    loss; nothing in the package reads it). Until that first read the model
    keeps the file's backbone arrays, and only those."""

    def __init__(self, cfg, tensors):
        super().__init__(cfg, tensors)
        self._backbone = {n: tensors[n]
                          for n in tensor_shapes(cfg, attention=False)}

    @functools.cached_property
    def teacher(self):
        """A seed-0 random teacher holding a copy of the file's backbone."""
        backbone = self.__dict__.pop("_backbone")
        return TeacherModel.from_tensors(self.cfg, {
            n: backbone.get(n, t) for n, t in
            TeacherModel(self.cfg, seed=0).named_parameters().items()})


def load_model(path):
    """The model a checkpoint describes, built from its tensor table and of
    its stored kind: a TeacherModel for a ``teacher`` file, a ``Model`` for
    a ``mixed`` one, and for a ``far`` file a ``Model`` whose ``teacher``
    is built on first read (``_FarFileModel``)."""
    cfg, kind, tensors = load_checkpoint(path)
    tensors = {n: a for n, a in tensors.items() if not n.startswith("mask.")}
    build = {"teacher": TeacherModel.from_tensors, "far": _FarFileModel,
             "mixed": Model}[kind]
    try:
        model = build(cfg, tensors)
    except ShapeError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    found = model_kind(model)
    if found != kind:
        raise CheckpointError(f"{path}: stored kind {kind} but its tensors "
                              f"make a {found} model")
    unexpected = sorted(tensors.keys() - model.named_parameters().keys())
    if unexpected:
        raise CheckpointError(f"{path}: unexpected tensor {unexpected[0]}")
    return model
