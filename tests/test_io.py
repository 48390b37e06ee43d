import argparse
import contextlib
import csv
import dataclasses
import io
import os
import pathlib
import re
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from far import (checkpoint as ckpt, cli, distill, far_block, profiler,
                 pruner, vit)
from far import tensor as T
from far.checkpoint import (CheckpointError, load_checkpoint, load_model,
                            save_checkpoint, save_model)
from far.cli import build_parser, main
from far.config import (SCHEMA, ConfigError, default_config, load_config,
                        parse_config)
from far.data import synth_dataset
from far.distill import TrainConfig, run_phase, train_teacher
from far.far_block import replace_attention, scan_of
from far.pruner import prune_by_threshold, shrink_model
from far.tensor import ShapeError, Tensor
from far.attribution import cls_saliency, export_heatmaps, token_dependency
from far.vit import ModelConfig, TeacherModel

from conftest import desk_config


# -- checkpoint format ----------------------------------------------------------

def _toy_tensors(rng):
    return {
        "a": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=(2,)).astype(np.float64),
        "m": (rng.random(5) > 0.5).astype(np.uint8),
    }


def test_checkpoint_round_trip_exact(tmp_path):
    cfg = desk_config()
    rng = np.random.default_rng(30)
    tensors = _toy_tensors(rng)
    path = tmp_path / "toy.farc"
    save_checkpoint(path, cfg, tensors, kind="teacher")
    cfg2, kind, back = load_checkpoint(path)
    assert kind == "teacher"
    assert cfg2 == cfg
    assert set(back) == set(tensors)
    for name in tensors:
        assert back[name].dtype == tensors[name].dtype
        assert np.array_equal(back[name], tensors[name])


def test_checkpoint_save_is_deterministic(tmp_path):
    cfg = desk_config()
    tensors = _toy_tensors(np.random.default_rng(31))
    p1, p2 = tmp_path / "a.farc", tmp_path / "b.farc"
    save_checkpoint(p1, cfg, tensors)
    save_checkpoint(p2, cfg, dict(reversed(list(tensors.items()))))
    assert p1.read_bytes() == p2.read_bytes()  # sorted names


@pytest.mark.parametrize("target", ["missing/t.farc", "."])
def test_save_model_that_cannot_write_names_the_target(tmp_path, target):
    """A missing directory, or a target that is a directory: the OSError
    names the target, and no temporary file is left behind."""
    path = tmp_path / target
    with pytest.raises(OSError) as err:
        save_model(TeacherModel(desk_config(), seed=32), path)
    assert str(err.value).endswith(f": {str(path)!r}")
    assert ".tmp" not in str(err.value)
    assert list(tmp_path.rglob("*.tmp")) == []


def test_cli_that_cannot_write_its_checkpoint_names_it(tmp_path, capsys):
    cfgfile, out = tmp_path / "run.cfg", tmp_path / "missing" / "t.farc"
    cfgfile.write_text("[train]\nteacher_epochs = 0\n")
    assert main(["train-teacher", "--config", str(cfgfile),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and ".tmp" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


TRAINING = ("train-teacher", "distill", "finetune", "prune")


@pytest.mark.parametrize("command,target", [
    *(pytest.param(c, "missing/out.farc", id=c)
      for c in (*TRAINING, "attribute")),
    *(pytest.param(c, ".", id=f"{c}-directory") for c in TRAINING),
])
def test_cli_checks_its_out_directory_before_training(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      target):
    """With epochs to run (the defaults) and --out in a missing directory,
    or an --out that is a directory, a training command exits 1 naming
    --out before any epoch runs; with --out-prefix in a missing directory,
    `attribute` exits 1 naming it before any map."""
    teacher = TeacherModel(desk_config(), seed=34)
    checkpoints = {"distill": teacher,
                   "finetune": replace_attention(teacher, seed=34)}
    checkpoints["prune"] = checkpoints["attribute"] = checkpoints["finetune"]
    argv = [command]
    if command in checkpoints:
        path = tmp_path / "in.farc"
        save_model(checkpoints[command], path)
        argv += ["--checkpoint", str(path)]
    entered = []
    for module in (cli, distill):  # cli imports it; the rest call distill's
        monkeypatch.setattr(module, "run_phase",
                            lambda *args, **kwargs: entered.append(args))
    for name in ("cls_saliency", "token_dependency"):
        monkeypatch.setattr(cli, name,
                            lambda *args, **kwargs: entered.append(args))
    out = tmp_path / target
    flag = "--out-prefix" if command == "attribute" else "--out"
    assert main(argv + [flag, str(out)]) == 1
    assert entered == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_checkpoint_single_byte_corruption_detected(tmp_path):
    cfg = desk_config()
    path = tmp_path / "c.farc"
    save_checkpoint(path, cfg, _toy_tensors(np.random.default_rng(32)))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path):
    cfg = desk_config()
    path = tmp_path / "t.farc"
    save_checkpoint(path, cfg, _toy_tensors(np.random.default_rng(33)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.farc"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(CheckpointError, match="not a FARC"):
        load_checkpoint(path)


def test_checkpoint_future_version_rejected(tmp_path):
    import struct
    import zlib
    cfg = desk_config()
    path = tmp_path / "v.farc"
    save_checkpoint(path, cfg, {})
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    body = bytes(raw[:-4])
    raw[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_version_zero_rejected(tmp_path, capsys):
    path = tmp_path / "v0.farc"
    save_model(TeacherModel(desk_config(), seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 0)
    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"{path}: format version 0 "):
        load_checkpoint(path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[bench]\nruns = 1\nwarmups = 0\n")
    assert main(["bench", "--config", str(cfgfile),
                 "--checkpoint", str(path)]) == 1
    assert f"{path}: format version 0 " in capsys.readouterr().err


def test_checkpoint_empty_tensor_table(tmp_path):
    cfg = desk_config()
    path = tmp_path / "e.farc"
    save_checkpoint(path, cfg, {})
    _, _, tensors = load_checkpoint(path)
    assert tensors == {}


def _with_config_blob(path, blob):
    """Swap the file's config block for ``blob``; the CRC stays valid."""
    raw = path.read_bytes()
    (clen,) = struct.unpack_from("<I", raw, 8)
    body = raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + clen:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


@pytest.mark.parametrize("fault", ["missing key", "non-int value",
                                   "line without =", "non-UTF-8",
                                   "unknown kind"])
def test_bad_config_block_is_checkpoint_error(tmp_path, capsys, fault):
    path = tmp_path / "bad.farc"
    save_checkpoint(path, desk_config(), {}, kind="far")
    lines = ckpt._config_blob(desk_config(), "far").decode().splitlines()
    if fault == "missing key":
        lines.remove("dim=32")
    elif fault == "non-int value":
        lines[lines.index("layers=4")] = "layers=four"
    elif fault == "line without =":
        lines.append("junk")
    elif fault == "unknown kind":
        lines[lines.index("kind=far")] = "kind=student"
    blob = "\n".join(lines).encode()
    _with_config_blob(path, b"\xff" + blob if fault == "non-UTF-8" else blob)
    with pytest.raises(CheckpointError, match="bad.farc"):
        load_checkpoint(path)
    assert main(["bench", "--checkpoint", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("again", ["4", "2"], ids=["same", "other"])
def test_a_config_key_set_twice_in_a_checkpoint_is_named(tmp_path, capsys,
                                                         again):
    path = tmp_path / "bad.farc"
    save_checkpoint(path, desk_config(), {}, kind="far")
    blob = ckpt._config_blob(desk_config(), "far")
    _with_config_blob(path, blob + f"\nlayers={again}".encode())
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: config key 'layers' is set twice")):
        load_checkpoint(path)
    assert main(["bench", "--checkpoint", str(path)]) == 1
    assert "config key 'layers' is set twice" in capsys.readouterr().err


def _patch_bytes(path, offset, data):
    """Overwrite the bytes at ``offset``; the CRC stays valid."""
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(data)] = data
    body = bytes(raw[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


@pytest.mark.parametrize("fault", ["tensor count", "rank", "non-UTF-8 name",
                                   "duplicate name"])
def test_bad_tensor_table_is_checkpoint_error(tmp_path, capsys, fault):
    path = tmp_path / "bad.farc"
    one = np.zeros(1, np.float32)
    save_checkpoint(path, desk_config(), {"a": one, "b": one})
    (clen,) = struct.unpack_from("<I", path.read_bytes(), 8)
    first = 20 + clen  # name length of tensor "a"; its record is 22 bytes
    offset, data = {"tensor count": (12 + clen, struct.pack("<Q", 2 ** 32)),
                    "rank": (first + 5, struct.pack("<I", 2 ** 30)),
                    "non-UTF-8 name": (first + 4, b"\xff"),
                    "duplicate name": (first + 22 + 4, b"a")}[fault]
    _patch_bytes(path, offset, data)
    with pytest.raises(CheckpointError, match="bad.farc"):
        load_checkpoint(path)
    assert main(["bench", "--checkpoint", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_models_are_born_frozen_and_build_no_graph(tmp_path):
    teacher = TeacherModel(desk_config(), seed=37)
    far = replace_attention(teacher, seed=37)
    save_model(teacher, tmp_path / "teacher.farc")
    save_model(far, tmp_path / "far.farc")
    img = np.random.default_rng(37).normal(size=(2, 3, 32, 32))
    for model in (teacher, far, load_model(tmp_path / "teacher.farc"),
                  load_model(tmp_path / "far.farc")):
        assert not any(p.requires_grad
                       for p in model.named_parameters().values())
        logits, blocks = model.forward(img)
        assert logits._parents == () and not logits.requires_grad
        assert all(b._parents == () for b in blocks)


def _pruned_far(seed):
    far = replace_attention(TeacherModel(desk_config(), seed=seed), seed=seed)
    prune_by_threshold(far, 0.9, mode="relative")
    return far


def _same_logits(a, b, seed):
    img = np.random.default_rng(seed).normal(size=(2, 3, 32, 32))
    return np.array_equal(a.forward(img)[0].data, b.forward(img)[0].data)


def test_a_teacher_tensor_rebound_in_its_layer_is_the_one_saved(tmp_path):
    """The forward and ``named_parameters`` (so ``save_model``) read one
    holder: a tensor rebound in ``mixers[i]`` is used and saved."""
    teacher = TeacherModel(desk_config(), seed=41)
    layer = teacher.mixers[0]
    layer.qkv_w = Tensor(layer.qkv_w.data * 2)
    assert not _same_logits(teacher, TeacherModel(desk_config(), seed=41), 41)
    save_model(teacher, tmp_path / "rebound.farc")
    assert _same_logits(teacher, load_model(tmp_path / "rebound.farc"), 41)


@pytest.mark.parametrize("kind", ["teacher", "far"])
def test_a_backbone_tensor_rebound_in_its_holder_is_the_one_saved(tmp_path,
                                                                   kind):
    """A backbone tensor has one holder, which the forward reads and
    ``named_parameters`` (so ``save_model``) names: rebinding each kind of
    tensor in turn changes the logits, and the saved file gives them back."""
    teacher = TeacherModel(desk_config(), seed=42)
    model = teacher if kind == "teacher" else replace_attention(teacher,
                                                                seed=42)
    save_model(model, tmp_path / "start.farc")
    saved = load_model(tmp_path / "start.farc")
    for holder, k in ((model.embed, "patch_w"), (model.embed, "cls"),
                      (model.embed, "pos"), (model.mlps[1], "fc1_w"),
                      (model.final, "ln_g"), (model.final, "head_w")):
        setattr(holder, k, Tensor(getattr(holder, k).data * 2 + 0.5))
        assert not _same_logits(model, saved, 42), k
        save_model(model, tmp_path / f"{k}.farc")
        saved = load_model(tmp_path / f"{k}.farc")
        assert _same_logits(model, saved, 42), k


def test_shrunk_model_round_trip(tmp_path):
    far = _pruned_far(34)
    shrunk = shrink_model(far)
    save_model(far, tmp_path / "zeroed.farc")
    save_model(shrunk, tmp_path / "shrunk.farc")
    back = load_model(tmp_path / "shrunk.farc")
    for name, p in shrunk.named_parameters().items():
        assert np.array_equal(back.named_parameters()[name].data, p.data), name
    assert _same_logits(shrunk, back, 34)
    assert ((tmp_path / "zeroed.farc").read_bytes()
            == (tmp_path / "shrunk.farc").read_bytes())


def _widths(model):
    return [[p.hidden for p in blk.scans] for blk in model.mixers]


def _logit_gap(a, b, seed):
    img = np.random.default_rng(seed).normal(size=(2, 3, 32, 32))
    return np.abs(a.forward(img)[0].data - b.forward(img)[0].data).max()


def test_save_model_writes_a_pruned_model_at_its_live_widths(tmp_path):
    """prune in place -> save -> load, as perfbench builds its pruned
    models: the file holds the live units only and leaves the model as
    it was."""
    far = replace_attention(TeacherModel(desk_config("f64"), seed=33),
                            seed=33)
    prune_by_threshold(far, 0.97, mode="relative")
    before = {n: t.data.tobytes() for n, t in far.named_parameters().items()}
    save_model(far, tmp_path / "pruned.farc")
    assert {n: t.data.tobytes()
            for n, t in far.named_parameters().items()} == before
    back = load_model(tmp_path / "pruned.farc")
    live = [[int(m.sum()) for m in layer] for layer in far.masks]
    assert _widths(back) == live
    assert any(w < 16 for layer in live for w in layer)
    assert _logit_gap(far, back, 33) <= 1e-10


def test_save_model_of_an_unpruned_far_model_writes_its_parameters(tmp_path):
    far = replace_attention(TeacherModel(desk_config(), seed=35), seed=35)
    save_model(far, tmp_path / "a.farc")
    save_checkpoint(tmp_path / "b.farc", far.cfg, far.named_parameters(),
                    kind="far")
    assert (tmp_path / "a.farc").read_bytes() == (tmp_path / "b.farc").read_bytes()


def test_a_scan_with_no_live_unit_keeps_one_zero_unit(tmp_path):
    far = replace_attention(TeacherModel(desk_config("f64"), seed=32),
                            seed=32)
    blk = far.mixers[0]
    rows, cols, out_rows = far_block.coupled(blk, 1, np.arange(16))
    p = blk.scans[1]
    for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
        t.data[rows] = 0.0
    p.w_hh.data[:, cols] = 0.0
    blk.out_w.data[out_rows] = 0.0
    assert not far.masks[0][1].any()
    save_model(far, tmp_path / "dead.farc")
    for model in (load_model(tmp_path / "dead.farc"), shrink_model(far)):
        assert _widths(model)[0] == [16, 1, 16, 16]
        assert _logit_gap(far, model, 32) <= 1e-10


def test_load_model_reads_v1_file_with_masks(tmp_path, monkeypatch):
    far = _pruned_far(36)
    tensors = dict(far.named_parameters())
    for l, layer in enumerate(far.masks):
        for k, keep in enumerate(layer):
            tensors["mask.{}.{}.{}".format(l, *scan_of(k))] = keep.astype(
                np.uint8)
    monkeypatch.setattr(ckpt, "FORMAT_VERSION", 1)
    save_checkpoint(tmp_path / "v1.farc", far.cfg, tensors, kind="far")
    monkeypatch.undo()
    back = load_model(tmp_path / "v1.farc")
    assert _same_logits(far, back, 36)


def _forbidden(*args, **kwargs):
    raise AssertionError("load_model must build the model from the file")


@pytest.mark.parametrize("kind", ["teacher", "far", "shrunk"])
def test_load_model_builds_from_the_table_and_resaves_same_bytes(
        tmp_path, monkeypatch, kind):
    teacher = TeacherModel(desk_config(), seed=38)
    model = {"teacher": teacher, "far": replace_attention(teacher, seed=38),
             "shrunk": shrink_model(_pruned_far(38))}[kind]
    path, again = tmp_path / "a.farc", tmp_path / "b.farc"
    save_model(model, path)
    # a FAR file's seed-0 random teacher is drawn on first read, not here
    forbidden = [(T, "trunc_normal")] + ([] if kind == "teacher" else
                 [(m, n) for m in (far_block, ckpt)
                  for n in ("init_far_block", "shrink_block")])
    for module, name in forbidden:
        monkeypatch.setattr(module, name, _forbidden, raising=False)
    loaded = load_model(path)
    monkeypatch.undo()  # saving re-packs a FAR block with a pruned unit
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_an_unpruned_far_model_is_saved_without_a_repack(tmp_path,
                                                         precision):
    """``live_tensors`` of a FAR model with no pruned unit is its own
    Tensors, and ``save_model`` writes the bytes of the re-packed table."""
    cfg = desk_config(precision)
    far = replace_attention(TeacherModel(cfg, seed=46), seed=46)
    named = far.named_parameters()
    live = far_block.live_tensors(far)
    assert live.keys() == named.keys()
    assert all(live[n] is t for n, t in named.items())
    repacked = far.named_parameters()
    for i, (blk, masks) in enumerate(zip(far.mixers, far.masks)):
        assert all(m.all() for m in masks)
        repacked.update(far_block.shrink_block(blk, masks, f"far.{i}"))
    assert any(repacked[n] is not t for n, t in named.items())
    save_model(far, tmp_path / "a.farc")
    save_checkpoint(tmp_path / "b.farc", cfg, repacked, kind="far")
    assert (tmp_path / "a.farc").read_bytes() \
        == (tmp_path / "b.farc").read_bytes()


def _eager_teacher(cfg, tensors):
    """The seed-0 random teacher with a copy of a FAR table's backbone that
    ``load_model`` built on every FAR load before ``teacher`` was lazy."""
    return TeacherModel.from_tensors(cfg, {
        n: tensors.get(n, t)
        for n, t in TeacherModel(cfg, seed=0).named_parameters().items()})


def _count_teachers(monkeypatch):
    """A list that grows by one for each TeacherModel constructed, drawn
    or built ``from_tensors``: both run ``vit.Model.__init__``."""
    built, init = [], vit.Model.__init__

    def counted(self, *args):
        if isinstance(self, TeacherModel):
            built.append(self)
        init(self, *args)
    monkeypatch.setattr(vit.Model, "__init__", counted)
    return built


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("pruned", [False, True], ids=["unpruned", "pruned"])
def test_a_far_load_builds_its_teacher_on_first_read(tmp_path, monkeypatch,
                                                     precision, pruned):
    cfg = desk_config(precision)
    far = replace_attention(TeacherModel(cfg, seed=47), seed=47)
    if pruned:
        prune_by_threshold(far, 0.9, mode="relative")
    path = tmp_path / "far.farc"
    save_model(far, path)
    want = _eager_teacher(cfg, load_checkpoint(path)[2])
    built = _count_teachers(monkeypatch)
    loaded = load_model(path)
    assert built == [] and "teacher" not in vars(loaded)
    assert isinstance(loaded, vit.Model)
    assert not isinstance(loaded, TeacherModel)
    # the teacher copies the file's backbone, not the model's current one
    for t in loaded.named_parameters().values():
        t.data = t.data + 1.0
    teacher = loaded.teacher
    assert built and isinstance(teacher, TeacherModel)
    assert loaded.teacher is teacher
    assert "_backbone" not in vars(loaded)
    got, expect = teacher.named_parameters(), want.named_parameters()
    assert list(got) == list(expect)
    for n, t in expect.items():
        assert got[n].data.dtype == t.data.dtype
        assert got[n].data.tobytes() == t.data.tobytes(), n


def test_a_mixed_load_has_no_teacher(tmp_path, monkeypatch):
    teacher = TeacherModel(desk_config(), seed=48)
    tensors = replace_attention(teacher, seed=48).named_parameters()
    tensors = {n: t for n, t in tensors.items() if not n.startswith("far.0.")}
    tensors.update({n: t for n, t in teacher.named_parameters().items()
                    if n.startswith("layer.0.")})
    path = tmp_path / "mixed.farc"
    save_model(vit.Model(teacher.cfg, tensors), path)
    built = _count_teachers(monkeypatch)
    loaded = load_model(path)
    assert type(loaded) is vit.Model and not hasattr(loaded, "teacher")
    assert built == []


def _held_tensors(obj):
    """Every Tensor reachable from ``obj`` through attributes and
    containers, by id."""
    found, seen, stack = {}, set(), [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, Tensor):
            found[id(o)] = o
        elif isinstance(o, dict):
            stack += o.values()
        elif isinstance(o, (list, tuple)):
            stack += o
        elif hasattr(o, "__dict__"):
            stack += vars(o).values()
    return found


def _share_memory(a, b):
    """Whether any parameter array of model ``a`` overlaps one of ``b``."""
    return any(np.shares_memory(x.data, y.data)
               for x in a.named_parameters().values()
               for y in b.named_parameters().values())


def test_far_model_holds_its_parameters_and_no_attention_tensor(tmp_path):
    teacher = TeacherModel(desk_config(), seed=39)
    attention = {id(getattr(layer, k)) for layer in teacher.mixers
                 for k in ("ln1_g", "ln1_b", "qkv_w", "qkv_b", "proj_w",
                           "proj_b")}
    far = replace_attention(teacher, seed=39)
    shrunk = shrink_model(far)
    for model in (far, shrunk):
        named = {id(t) for t in model.named_parameters().values()}
        assert set(_held_tensors(model)) == named
        assert not named & attention
    # every model owns its arrays: the FAR model copies the teacher's
    # backbone and LNs, the shrunk model the FAR model's tensors, and a
    # loaded FAR file's ``.teacher`` the file's backbone
    save_model(far, tmp_path / "far.farc")
    loaded = load_model(tmp_path / "far.farc")
    for a, b in ((teacher, far), (far, shrunk), (loaded, loaded.teacher)):
        assert not _share_memory(a, b)


def _far_tensors(seed=37):
    far = replace_attention(TeacherModel(desk_config(), seed=seed), seed=seed)
    return {n: t.data for n, t in far.named_parameters().items()}


def _save_far(tmp_path, tensors):
    path = tmp_path / "x.farc"
    save_checkpoint(path, desk_config(), tensors, kind="far")
    return path


def test_load_model_rejects_missing_tensor(tmp_path):
    tensors = _far_tensors()
    del tensors["far.0.0.fwd.w_ih"]
    with pytest.raises(CheckpointError, match="missing tensor far.0.0.fwd.w_ih"):
        load_model(_save_far(tmp_path, tensors))


@pytest.mark.parametrize("width", [0, 17])
def test_load_model_rejects_out_of_range_width(tmp_path, width):
    tensors = _far_tensors()
    tensors["far.1.0.rev.w_hh"] = np.zeros((4 * width, width), np.float32)
    with pytest.raises(CheckpointError, match="far.1.0.rev.w_hh"):
        load_model(_save_far(tmp_path, tensors))


def test_load_model_rejects_disagreeing_widths(tmp_path):
    tensors = _far_tensors()
    tensors["far.1.0.rev.w_hh"] = tensors["far.1.0.rev.w_hh"][:, :5]
    with pytest.raises(CheckpointError, match=r"far\.1\.0\.rev\.b_hh has shape"):
        load_model(_save_far(tmp_path, tensors))
    tensors = _far_tensors()  # out_w needs one row per unit of every scan
    tensors["far.2.out_w"] = tensors["far.2.out_w"][:-1]
    with pytest.raises(CheckpointError, match=r"far\.2\.out_w has shape"):
        load_model(_save_far(tmp_path, tensors))


def test_load_model_rejects_unexpected_tensor(tmp_path):
    cfg = desk_config()
    teacher = TeacherModel(cfg, seed=35)
    tensors = dict(teacher.named_parameters())
    tensors["layer.9.bogus"] = np.zeros(3, dtype=np.float32)
    path = tmp_path / "x.farc"
    save_checkpoint(path, cfg, tensors, kind="teacher")
    with pytest.raises(CheckpointError, match="unexpected"):
        load_model(path)


@pytest.mark.parametrize("fault,named", [
    ("far table stored as teacher",
     "stored kind teacher but its tensors make a far model"),
    ("teacher table stored as far",
     "stored kind far but its tensors make a teacher model"),
    ("both mixers at layer 1", "layer 1 names both mixer kinds"),
    ("no mixer at layer 2", "layer 2 names no token mixer"),
])
def test_load_model_rejects_a_table_whose_mixers_disagree(tmp_path, capsys,
                                                          fault, named):
    """The stored kind must be the kind the table's mixers make, and every
    layer's names must give one mixer kind."""
    far = _far_tensors()
    teacher = {n: t.data for n, t in
               TeacherModel(desk_config(), seed=37).named_parameters().items()}
    tensors, kind = {
        "far table stored as teacher": (far, "teacher"),
        "teacher table stored as far": (teacher, "far"),
        "both mixers at layer 1": ({**far, **{
            n: a for n, a in teacher.items() if n.startswith("layer.1.")}},
            "far"),
        "no mixer at layer 2": ({n: a for n, a in far.items()
                                 if not n.startswith("far.2.")}, "far"),
    }[fault]
    path = tmp_path / "x.farc"
    save_checkpoint(path, desk_config(), tensors, kind=kind)
    with pytest.raises(CheckpointError, match=f"x.farc: {named}"):
        load_model(path)
    assert main(["bench", "--checkpoint", str(path)]) == 1
    assert named in capsys.readouterr().err


def test_teacher_and_far_forwards_run_apart_by_class(tmp_path, monkeypatch):
    """A tracer tells a teacher's spans from a FAR model's by class: a
    loaded teacher file is a TeacherModel and a FAR file is not; a teacher
    forward runs ``TeacherModel.attention_block`` once a layer and a FAR
    forward ``far_block.far_block_forward`` once a layer, and neither runs
    the other's."""
    cfg = desk_config()
    teacher = TeacherModel(cfg, seed=58)
    save_model(teacher, tmp_path / "teacher.farc")
    save_model(replace_attention(teacher, seed=58), tmp_path / "far.farc")
    teacher = load_model(tmp_path / "teacher.farc")
    far = load_model(tmp_path / "far.farc")
    assert isinstance(teacher, TeacherModel)
    assert not isinstance(far, TeacherModel)
    calls = []
    attention_block = TeacherModel.attention_block
    block_forward = far_block.far_block_forward

    def attention_spy(self, x, layer):
        calls.append("attention")
        return attention_block(self, x, layer)

    def far_spy(x, p):
        calls.append("far")
        return block_forward(x, p)

    monkeypatch.setattr(TeacherModel, "attention_block", attention_spy)
    monkeypatch.setattr(far_block, "far_block_forward", far_spy)
    img = np.random.default_rng(58).normal(size=(2, 3, 32, 32))
    teacher.forward(img)
    assert calls == ["attention"] * cfg.layers
    calls.clear()
    far.forward(img)
    assert calls == ["far"] * cfg.layers


@pytest.mark.parametrize("module", ["far.far_block", "far.vit",
                                    "far.checkpoint"])
def test_each_model_module_imports_first(module):
    """``vit`` and ``far_block`` refer to each other; each module imports
    as the first import of a fresh interpreter."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# -- run configuration --------------------------------------------------------

def test_config_defaults_match_documented_values():
    cfg = default_config()
    assert cfg["distill"]["lam"] == 1.0
    assert cfg["distill"]["lr"] == 5e-4
    assert cfg["train"]["weight_decay"] == 0.05
    assert cfg["prune"]["reg_coeff"] == 1e-4
    assert cfg["prune"]["threshold"] == 1e-4
    assert cfg["bench"]["runs"] == 100
    assert cfg["bench"]["warmups"] == 30


def test_config_unknown_key_and_section():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[model]\nwidth = 3\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[optimizer]\nlr = 1\n")
    with pytest.raises(ConfigError):
        parse_config("dim = 3\n")  # key outside a section
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[bench]\nthreads = 1\n")  # removed: nothing read it
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[distill]\ncosine_flat = true\n")  # removed: never on
    for removed in ("extension = true", "penalty_reduce = sum"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(f"[prune]\n{removed}\n")  # removed: one value used


@pytest.mark.parametrize("section,key,bad,allowed", [
    ("model", "precision", "f16", "f32, f64"),
    ("prune", "threshold_mode", "percentile", "absolute, relative"),
])
def test_config_rejects_value_outside_choices(tmp_path, capsys, section, key,
                                              bad, allowed):
    text = f"[{section}]\n{key} = {bad}\n"
    with pytest.raises(ConfigError, match=f"{key}: expected one of {allowed}"):
        parse_config(text)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["flops", "--config", str(path)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("section,key,bad,least", [
    ("train", "seed", "-1", "0"),
    ("train", "batch_size", "0", "1"),
    ("bench", "runs", "0", "1"),
    ("bench", "warmups", "-2", "0"),
    ("data", "noise", "-0.5", "0.0"),
    ("train", "teacher_epochs", "-3", "0"),
    ("train", "warmup_epochs", "-2", "0"),
    ("train", "teacher_lr", "-0.5", "0.0"),
    ("train", "warmup_lr", "-1e-5", "0.0"),
    ("train", "weight_decay", "-1", "0.0"),
    ("distill", "lam", "-1", "0.0"),
    ("distill", "epochs", "-1", "0"),
    ("distill", "lr", "-1e-3", "0.0"),
    ("distill", "finetune_epochs", "-1", "0"),
    ("distill", "finetune_lr", "-1e-3", "0.0"),
    ("prune", "reg_epochs", "-1", "0"),
    ("prune", "reg_lr", "-1e-3", "0.0"),
    ("prune", "reg_weight_decay", "-0.1", "0.0"),
    ("prune", "finetune_epochs", "-1", "0"),
    ("prune", "finetune_lr", "-1e-3", "0.0"),
])
def test_config_rejects_value_below_minimum(tmp_path, capsys, section, key,
                                            bad, least):
    text = f"[{section}]\n{key} = {bad}\n"
    with pytest.raises(ConfigError, match=f"{key}: expected at least {least}"):
        parse_config(text)
    path, out = tmp_path / "run.cfg", tmp_path / "t.farc"
    path.write_text(text)
    assert main(["train-teacher", "--config", str(path), "--out", str(out)]) == 1
    assert f"[{section}] {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,line", [
    ("[train]\nseed = 1\nbatch_size = 8\nseed = 2\n", 4),
    ("[train]\nseed = 1\n[data]\nn = 20\n[train]\nseed = 2\n", 6),
])
def test_config_rejects_repeated_key(tmp_path, capsys, text, line):
    """A key set twice in a section is an error naming the line and key,
    not a silent last-wins; one key name in two sections is two keys."""
    with pytest.raises(ConfigError, match=rf"line {line}: key 'seed' in "
                                          rf"\[train\] is already set"):
        parse_config(text)
    path, out = tmp_path / "run.cfg", tmp_path / "t.farc"
    path.write_text(text)
    assert main(["train-teacher", "--config", str(path), "--out", str(out)]) == 1
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()
    cfg = parse_config("[distill]\nfinetune_epochs = 3\n"
                       "[prune]\nfinetune_epochs = 4\n")
    assert (cfg["distill"]["finetune_epochs"], cfg["prune"]["finetune_epochs"]) == (3, 4)


@pytest.mark.parametrize("command", [["flops"], ["bench"],
                                     ["train-teacher", "--out", "t.farc"]])
def test_config_with_dim_not_heads_times_head_dim_fails(tmp_path, capsys,
                                                         monkeypatch, command):
    """dim != heads * head_dim is a ShapeError naming the rule, from every
    command that builds a model config from the run config (exit 1)."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_text("[model]\ndim = 32\nheads = 2\nhead_dim = 8\n")
    assert main(command + ["--config", str(path)]) == 1
    assert "dim == heads * head_dim, got 32 != 2 * 8" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [path]


FLOAT_KEYS = [(sec, key) for sec, keys in SCHEMA.items()
              for key, (typ, *_) in keys.items() if typ is float]


@pytest.mark.parametrize("raw", ["nan", "inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_config_rejects_non_finite_float(section, key, raw):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: expected "
                                          f"a finite number, got '{raw}'"):
        parse_config(f"[{section}]\n{key} = {raw}\n")


def test_config_comments_and_types():
    cfg = parse_config("[train]\nseed = 7  # reproducibility\n"
                       "[prune]\nthreshold = 0.5\n")
    assert cfg["train"]["seed"] == 7
    assert cfg["prune"]["threshold"] == 0.5


def test_config_load_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[model]\nlayers = 2\n")
    cfg = load_config(path)
    assert cfg["model"]["layers"] == 2
    assert load_config(None) == default_config()


# -- synthetic dataset ------------------------------------------------------------

def test_dataset_deterministic():
    a = synth_dataset(40, 100, 10, 32)
    b = synth_dataset(40, 100, 10, 32)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.train_idx, b.train_idx)
    c = synth_dataset(41, 100, 10, 32)
    assert not np.array_equal(a.images, c.images)


def test_dataset_stratified_and_split():
    ds = synth_dataset(42, 200, 10, 32)
    counts = np.bincount(ds.labels, minlength=10)
    assert (counts == 20).all()
    assert len(ds.train_idx) + len(ds.val_idx) == 200
    assert not set(ds.train_idx) & set(ds.val_idx)
    # split is stratified too
    val_counts = np.bincount(ds.labels[ds.val_idx], minlength=10)
    assert (val_counts == 4).all()


@pytest.mark.parametrize("kwargs,named", [
    ({"n": 9}, "need n >= classes, got n=9, classes=10"),
    ({"classes": 0}, "classes must be at least 1, got 0"),
    ({"n": -5, "classes": -3}, "classes must be at least 1, got -3"),
    ({"image_size": 3}, "image_size too small"),
    ({"channels": 0}, "channels must be at least 1, got 0"),
    ({"channels": -1}, "channels must be at least 1, got -1"),
], ids=["n", "classes=0", "classes=-3", "image_size", "channels=0",
        "channels=-1"])
def test_dataset_rejects_bad_inputs_by_name(kwargs, named):
    args = {"seed": 0, "n": 20, "classes": 10, "image_size": 8, **kwargs}
    with pytest.raises(ValueError, match=re.escape(named)):
        synth_dataset(**args)


def _stacked_synth_dataset(seed, n, classes, image_size, channels, noise):
    """``synth_dataset`` as it was built: a grating grid per image, an
    ``np.stack`` of channel copies, then one stack of every image."""
    rng = np.random.default_rng(seed)
    counts = [n // classes + (1 if i < n % classes else 0)
              for i in range(classes)]
    yy, xx = np.mgrid[0:image_size, 0:image_size] / image_size
    images, labels, train_idx, val_idx = [], [], [], []
    pos = 0
    for c, count in enumerate(counts):
        theta = np.pi * c / classes
        for j in range(count):
            freq = 3.0 + rng.uniform(-0.3, 0.3)
            phase = rng.uniform(0, 2 * np.pi)
            wave = np.sin(2 * np.pi * freq *
                          (xx * np.cos(theta) + yy * np.sin(theta)) + phase)
            img = np.stack([wave] * channels) + rng.normal(
                0, noise, size=(channels, image_size, image_size))
            images.append(img.astype(np.float32))
            labels.append(c)
        n_train = max(1, int(round(count * 0.8)))
        train_idx.extend(range(pos, pos + n_train))
        val_idx.extend(range(pos + n_train, pos + count))
        pos += count
    return (np.stack(images), np.array(labels, dtype=np.int64),
            np.array(train_idx, dtype=np.int64),
            np.array(val_idx, dtype=np.int64))


@pytest.mark.parametrize("noise", [0.25, 1.0])
@pytest.mark.parametrize("image_size", [16, 32, 64])
@pytest.mark.parametrize("channels", [1, 3])
def test_dataset_equals_the_per_image_stack_loop(channels, image_size,
                                                 noise):
    ds = synth_dataset(53, 23, 10, image_size, channels=channels,
                       noise=noise)
    want = _stacked_synth_dataset(53, 23, 10, image_size, channels, noise)
    got = (ds.images, ds.labels, ds.train_idx, ds.val_idx)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_dataset_split_names_train_and_val():
    ds = synth_dataset(42, 50, 10, 8)
    for which, idx in (("train", ds.train_idx), ("val", ds.val_idx)):
        images, labels = ds.split(which)
        assert np.array_equal(images, ds.images[idx])
        assert np.array_equal(labels, ds.labels[idx])


@pytest.mark.parametrize("which", ["bogus", "validation", "Train", ""])
def test_dataset_split_rejects_unknown_names(which):
    """An unknown split is named, not read as the validation split, and so
    is the split ``distill.accuracy`` is asked for."""
    ds = synth_dataset(42, 50, 10, 8)
    with pytest.raises(ValueError, match=f"split must be 'train' or 'val', "
                                         f"got {which!r}"):
        ds.split(which)
    teacher = TeacherModel(desk_config(), seed=42)
    with pytest.raises(ValueError, match=repr(which)):
        distill.accuracy(teacher, synth_dataset(42, 50, 10, 32), which)


def test_dataset_classes_are_separable():
    """A nearest-class-mean classifier on a phase-invariant feature
    (2-D FFT magnitude) must beat chance by a wide margin."""
    ds = synth_dataset(43, 200, 10, 32, noise=0.25)
    feats = np.abs(np.fft.fft2(ds.images[:, 0]))
    means = np.stack([feats[ds.train_idx][ds.labels[ds.train_idx] == c]
                      .mean(axis=0) for c in range(10)])
    val_feats = feats[ds.val_idx]
    dists = np.linalg.norm(val_feats[:, None] - means[None], axis=(2, 3))
    pred = dists.argmin(axis=1)
    acc = (pred == ds.labels[ds.val_idx]).mean()
    assert acc > 0.5
    assert ds.images.dtype == np.float32


def test_dataset_rejects_too_few_samples():
    with pytest.raises(ValueError):
        synth_dataset(0, 5, 10, 32)


# -- CLI --------------------------------------------------------------------------

def test_cli_no_args_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_cli_flops_csv(capsys):
    """One row per cost metric, with the attention model's value and the
    FAR model's."""
    assert main(["flops"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["metric", "attention", "far"]
    cfg = ModelConfig()
    attention, far = (
        profiler.cost_rows(cfg, profiler.variant_shapes(cfg, v, None))
        for v in ("attention", "far"))
    assert rows[1:] == [[k, str(a), str(f)]
                        for (k, a), (_, f) in zip(attention, far)]


def test_cli_params_lists_both_variants(capsys):
    assert main(["flops"]) == 0
    rows = {r[0]: r[1:] for r in csv.reader(io.StringIO(
        capsys.readouterr().out))}
    assert rows["params"] == [str(profiler.count_params(ModelConfig(), v))
                              for v in ("attention", "far")]


def test_cli_missing_checkpoint_is_pipeline_error(capsys):
    assert main(["distill", "--checkpoint", "/no/such.farc",
                 "--out", "/tmp/x.farc"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,given,expected", [
    ("distill", "far", "teacher"),
    ("finetune", "teacher", "far"),
    ("prune", "teacher", "far"),
])
def test_cli_wrong_kind_checkpoint_is_named_error(tmp_path, capsys, command,
                                                  given, expected):
    teacher = TeacherModel(desk_config(), seed=38)
    model = replace_attention(teacher, seed=38) if given == "far" else teacher
    path, out = tmp_path / f"{given}.farc", tmp_path / "out.farc"
    save_model(model, path)
    assert main([command, "--checkpoint", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and f"expected a {expected} checkpoint" in err
    assert not out.exists()


def test_cli_attribute_uses_the_checkpoint_image_size(tmp_path, capsys):
    cfg = ModelConfig(layers=2, dim=32, heads=2, head_dim=16, mlp_ratio=4,
                      patch_size=8, image_size=64, num_classes=10)
    path = tmp_path / "far64.farc"
    save_model(replace_attention(TeacherModel(cfg, seed=39), seed=39), path)
    prefix = str(tmp_path / "attr_")
    assert main(["attribute", "--checkpoint", str(path), "--layer", "1",
                 "--out-prefix", prefix]) == 0
    files = capsys.readouterr().out.split()
    assert len(files) == 2 * (cfg.heads + 1)
    dep = np.loadtxt(prefix + "dependency_l1.csv", delimiter=",", ndmin=2)
    assert dep.shape == (cfg.tokens, cfg.tokens) == (65, 65)


def test_cli_attribute_maps_image_0_of_the_run_dataset(tmp_path, capsys,
                                                       monkeypatch):
    """The one image drawn, with ``[train] seed``, is byte-identical to
    image 0 of the whole ``[data]`` dataset, so the maps are those of that
    image."""
    cfg = desk_config()
    cfg.layers = 2
    model = replace_attention(TeacherModel(cfg, seed=41), seed=41)
    path = tmp_path / "far.farc"
    save_model(model, path)
    drawn = []

    def spy(*args, **kwargs):
        drawn.append(synth_dataset(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(cli, "synth_dataset", spy)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[train]\nseed = 5\n")
    assert main(["attribute", "--config", str(cfgfile), "--checkpoint",
                 str(path), "--layer", "1",
                 "--out-prefix", str(tmp_path / "new_")]) == 0
    files = capsys.readouterr().out.split()
    assert [len(ds.labels) for ds in drawn] == [1]
    image = synth_dataset(5, 200, 10, 32, channels=3, noise=0.25).images[0]
    assert drawn[0].images[0].tobytes() == image.tobytes()
    mats = {f"saliency_l1_h{h}": cls_saliency(model, image, 1, h)
            for h in range(cfg.heads)}
    mats["dependency_l1"] = token_dependency(model, image, 1)
    expected = export_heatmaps(mats, str(tmp_path / "old_"))
    assert len(files) == len(expected) == 6
    for new, old in zip(files, expected):
        with open(new, "rb") as a, open(old, "rb") as b:
            assert a.read() == b.read()


def test_cli_attribute_maps_a_model_with_more_classes_than_n(tmp_path,
                                                             capsys):
    cfg = desk_config()
    cfg.layers, cfg.num_classes = 1, 300  # [data] n is 200
    path = tmp_path / "wide.farc"
    save_model(TeacherModel(cfg, seed=42), path)
    assert main(["attribute", "--checkpoint", str(path), "--out-prefix",
                 str(tmp_path / "attr_")]) == 0
    assert len(capsys.readouterr().out.split()) == 2 * (cfg.heads + 1)


def test_cli_attribute_layer_out_of_range_is_named_error(tmp_path, capsys):
    cfg = desk_config()
    cfg.layers = 2
    path = tmp_path / "far.farc"
    save_model(replace_attention(TeacherModel(cfg, seed=40), seed=40), path)
    assert main(["attribute", "--checkpoint", str(path), "--layer", "9",
                 "--out-prefix", str(tmp_path / "attr_")]) == 1
    assert "error: layer 9 out of range [0, 2)" in capsys.readouterr().err
    assert not list(tmp_path.glob("attr_*"))


def test_cli_attribute_checks_every_file_before_the_first_map(tmp_path,
                                                              capsys):
    """A map file that cannot be written, here the second head's saliency
    image, fails the command before any map is computed or written."""
    cfg = desk_config()
    cfg.layers = 1
    path = tmp_path / "far.farc"
    save_model(replace_attention(TeacherModel(cfg, seed=44), seed=44), path)
    att = tmp_path / "att"
    (att / "a_saliency_l0_h1.pgm").mkdir(parents=True)
    assert main(["attribute", "--checkpoint", str(path),
                 "--out-prefix", str(att / "a_")]) == 1
    assert str(att / "a_saliency_l0_h1.pgm") in capsys.readouterr().err
    assert [p for p in att.iterdir() if p.is_file()] == []


@pytest.mark.parametrize("content,named", [
    (b"[nope]\nx = 1\n", "{path}: line 1: unknown section [nope]"),
    (b"\xff[train]\nseed = 1\n", "{path}: not UTF-8 text"),
], ids=["unknown-section", "not-utf8"])
def test_cli_bad_config_is_pipeline_error(tmp_path, capsys, content, named):
    """A fault in the config file, or a file that is not UTF-8, is a
    pipeline error (exit 1) named by the file's path."""
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(content)
    assert main(["flops", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named.format(path=bad) in err


def test_cli_bench(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[data]\nn = 20\n[bench]\nruns = 3\nwarmups = 1\n")
    assert main(["bench", "--config", str(cfgfile),
                 "--variant", "far"]) == 0
    text = capsys.readouterr().out
    assert "latency_median_ms" in text
    assert "runs,3" in text
    assert "threads" not in text  # the harness sets no thread count


def test_cli_bench_reports_its_thread_variables(tmp_path, capsys,
                                               monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[bench]\nruns = 1\nwarmups = 0\n")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "4,2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert main(["bench", "--config", str(cfgfile), "--variant", "far"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["OPENBLAS_NUM_THREADS,1", 'OMP_NUM_THREADS,"4,2"',
                          "MKL_NUM_THREADS,unset"]


def test_cli_bench_thread_values_round_trip_as_csv(tmp_path, capsys,
                                                   monkeypatch):
    """A thread value holding a comma and a quote reads back unchanged
    through csv.reader."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[bench]\nruns = 1\nwarmups = 0\n")
    monkeypatch.setenv("OMP_NUM_THREADS", 'a,"b')
    assert main(["bench", "--config", str(cfgfile), "--variant", "far"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert all(len(row) == 2 for row in rows)
    assert ["OMP_NUM_THREADS", 'a,"b'] in rows


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("variant", ["attention", "far"])
def test_cli_bench_reports_the_dtype_it_measured(tmp_path, capsys, variant,
                                                 precision):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"[model]\nprecision = {precision}\n"
                       "[bench]\nruns = 1\nwarmups = 0\n")
    assert main(["bench", "--config", str(cfgfile),
                 "--variant", variant]) == 0
    report = dict(l.split(",") for l in capsys.readouterr().out.splitlines())
    assert report["precision"] == precision
    assert report["dtype"] == {"f32": "float32", "f64": "float64"}[precision]


def test_cli_bench_describes_pruned_checkpoint(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "[train]\nteacher_epochs = 1\n[distill]\nepochs = 1\n"
        "[prune]\nthreshold = 0.9\nthreshold_mode = relative\n"
        "reg_epochs = 1\nfinetune_epochs = 1\n"
        "[bench]\nruns = 1\nwarmups = 0\n[data]\nn = 20\n")
    cfg = ["--config", str(cfgfile)]
    teacher, distilled, pruned = (tmp_path / f"{k}.farc"
                                  for k in ("teacher", "far", "pruned"))
    assert main(["train-teacher", *cfg, "--out", str(teacher)]) == 0
    assert main(["distill", *cfg, "--checkpoint", str(teacher),
                 "--out", str(distilled)]) == 0
    assert main(["prune", *cfg, "--checkpoint", str(distilled),
                 "--out", str(pruned),
                 "--report", str(tmp_path / "retention.csv")]) == 0
    capsys.readouterr()
    assert main(["flops", *cfg]) == 0
    far_params = int({r[0]: r[2] for r in csv.reader(io.StringIO(
        capsys.readouterr().out))}["params"])
    assert main(["bench", *cfg, "--checkpoint", str(pruned)]) == 0
    report = dict(l.split(",") for l in capsys.readouterr().out.splitlines())
    assert report["variant"] == "far"
    assert int(report["params"]) < far_params
    assert pruned.stat().st_size < distilled.stat().st_size


def test_cli_bench_times_the_live_model_of_a_file_with_pruned_units(
        tmp_path, capsys, monkeypatch):
    """A file written with its pruned units zeroed in place is timed at
    the widths its cost rows count."""
    far = _pruned_far(40)
    path, cfgfile = tmp_path / "zeroed.farc", tmp_path / "run.cfg"
    save_checkpoint(path, far.cfg, far.named_parameters(), kind="far")
    cfgfile.write_text("[bench]\nruns = 1\nwarmups = 0\n")
    timed, forward = [], vit.Model.forward

    def spy(model, image):
        timed.append(model)
        return forward(model, image)

    monkeypatch.setattr(vit.Model, "forward", spy)
    assert main(["bench", "--config", str(cfgfile),
                 "--checkpoint", str(path)]) == 0
    capsys.readouterr()
    assert len(timed) == 1
    assert _widths(timed[0]) == [[int(m.sum()) for m in layer]
                                 for layer in far.masks]


def test_cli_bench_counts_the_params_of_the_model_it_times(
        tmp_path, capsys, monkeypatch):
    """A scan with no live unit is saved with one all-zero unit, and the
    cost rows count that unit: ``params`` is the timed model's size."""
    far = replace_attention(TeacherModel(desk_config(), seed=53), seed=53)
    blk, p = far.mixers[0], far.mixers[0].scans[1]
    rows, cols, out_rows = far_block.coupled(blk, 1, np.arange(p.hidden))
    for t in (p.w_ih, p.w_hh, p.b_ih, p.b_hh):
        t.data[rows] = 0.0
    p.w_hh.data[:, cols] = 0.0
    blk.out_w.data[out_rows] = 0.0
    path, cfgfile = tmp_path / "dead.farc", tmp_path / "run.cfg"
    save_model(far, path)
    cfgfile.write_text("[bench]\nruns = 1\nwarmups = 0\n")
    timed, forward = [], vit.Model.forward

    def spy(model, image):
        timed.append(model)
        return forward(model, image)

    monkeypatch.setattr(vit.Model, "forward", spy)
    assert main(["bench", "--config", str(cfgfile),
                 "--checkpoint", str(path)]) == 0
    report = dict(l.split(",") for l in capsys.readouterr().out.splitlines())
    assert _widths(timed[0])[0][1] == 1
    assert int(report["params"]) == sum(
        t.data.size for t in timed[0].named_parameters().values())


@pytest.mark.parametrize("command,kind,key", [
    ("train-teacher", None, "teacher_epochs"),
    ("distill", "teacher", "epochs"),
    ("finetune", "far", "finetune_epochs"),
])
def test_cli_zero_epochs_saves_the_model(tmp_path, capsys, command, kind,
                                         key):
    section = "train" if command == "train-teacher" else "distill"
    cfgfile, out, log = (tmp_path / n for n in ("run.cfg", "out.farc", "z.csv"))
    cfgfile.write_text(f"[{section}]\n{key} = 0\n[data]\nn = 20\n")
    argv = [command, "--config", str(cfgfile), "--out", str(out),
            "--log", str(log)]
    if kind is not None:
        teacher = TeacherModel(desk_config(), seed=47)
        path = tmp_path / f"{kind}.farc"
        save_model(replace_attention(teacher, seed=47) if kind == "far"
                   else teacher, path)
        argv += ["--checkpoint", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert ckpt.model_kind(load_model(out)) == (
        "teacher" if command == "train-teacher" else "far")
    assert log.read_text() == "acc,epoch,loss,phase,sim_mean\n"


NAN = float("nan")
EPOCH_ROWS = [
    {"epoch": 0, "phase": "finetune", "loss": 2.5, "sim_mean": NAN,
     "acc": 0.1, "sim_block_0": NAN, "sim_block_1": 0.125},
    {"epoch": 1, "phase": "finetune", "loss": 1 / 3, "sim_mean": NAN,
     "acc": 0.25},  # no sim_block_* keys
]
EPOCH_LOG = ("acc,epoch,loss,phase,sim_mean,sim_block_0,sim_block_1\n"
             "0.1,0,2.5,finetune,nan,nan,0.125\n"
             "0.25,1,0.3333333333333333,finetune,nan,,\n")


def _far_file(tmp_path, seed):
    path, cfgfile = tmp_path / "far.farc", tmp_path / "run.cfg"
    save_model(replace_attention(TeacherModel(desk_config(), seed=seed),
                                 seed=seed), path)
    cfgfile.write_text("[data]\nn = 20\n")
    return path, cfgfile


@pytest.mark.parametrize("rows,expected", [
    (EPOCH_ROWS, EPOCH_LOG), ([], "acc,epoch,loss,phase,sim_mean\n")],
    ids=["two-epochs", "no-epoch"])
def test_cli_epoch_log_bytes(tmp_path, capsys, monkeypatch, rows, expected):
    """The --log file of a phase's epoch rows: the base columns, then the
    rest by name; floats as ``repr`` writes them, a key a row lacks as an
    empty field, the header alone when no epoch ran."""
    monkeypatch.setattr(cli, "run_phase",
                        lambda *args, **kwargs: [dict(r) for r in rows])
    path, cfgfile = _far_file(tmp_path, 51)
    log = tmp_path / "log.csv"
    assert main(["finetune", "--config", str(cfgfile), "--checkpoint",
                 str(path), "--out", str(tmp_path / "out.farc"),
                 "--log", str(log)]) == 0
    assert log.read_bytes() == expected.encode()


def test_cli_prune_report_and_log_bytes(tmp_path, capsys, monkeypatch):
    """``far prune`` writes the rows of both its phases to --log and the
    retention rows to --report, each ratio to 6 places."""
    report = [
        {"layer": 0, "head": 0, "direction": "fwd", "retained": 1,
         "total": 3, "ratio": 1 / 3},
        {"layer": 0, "head": 1, "direction": "rev", "retained": 2,
         "total": 3, "ratio": 2 / 3},
        {"layer": 1, "head": 0, "direction": "fwd", "retained": 3,
         "total": 3, "ratio": 1.0},
    ]

    def pipeline(*args, log_rows, **kwargs):
        log_rows += [dict(EPOCH_ROWS[0], phase="prune-regularize"),
                     dict(EPOCH_ROWS[1], phase="prune-finetune")]
        return report

    monkeypatch.setattr(pruner, "three_stage_pipeline", pipeline)
    path, cfgfile = _far_file(tmp_path, 52)
    log, retention = tmp_path / "log.csv", tmp_path / "retention.csv"
    assert main(["prune", "--config", str(cfgfile), "--checkpoint",
                 str(path), "--out", str(tmp_path / "out.farc"),
                 "--log", str(log), "--report", str(retention)]) == 0
    assert "mean retention 0.667" in capsys.readouterr().out
    assert log.read_bytes() == EPOCH_LOG.replace(
        "0.1,0,2.5,finetune", "0.1,0,2.5,prune-regularize").replace(
        "0.25,1,0.3333333333333333,finetune",
        "0.25,1,0.3333333333333333,prune-finetune").encode()
    assert retention.read_bytes() == (
        b"layer,head,direction,retained,total,ratio\n"
        b"0,0,fwd,1,3,0.333333\n"
        b"0,1,rev,2,3,0.666667\n"
        b"1,0,fwd,3,3,1.000000\n")


@pytest.mark.parametrize("epochs", [0, 2])
@pytest.mark.parametrize("command,kind,section,key", [
    ("train-teacher", None, "train", "teacher_epochs"),
    ("finetune", "far", "distill", "finetune_epochs"),
])
def test_cli_prints_the_last_epoch_accuracy_without_measuring_it_again(
        tmp_path, capsys, monkeypatch, command, kind, section, key, epochs):
    """The printed train accuracy is the last epoch row's, measured on the
    final weights; ``accuracy`` runs once per epoch, and once in all when
    no epoch ran."""
    real, calls = distill.accuracy, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(distill, "accuracy", counted)
    monkeypatch.setattr(cli, "accuracy", counted)
    cfgfile, out, log = (tmp_path / n for n in ("run.cfg", "out.farc", "a.csv"))
    cfgfile.write_text(f"[{section}]\n{key} = {epochs}\n[data]\nn = 20\n")
    argv = [command, "--config", str(cfgfile), "--out", str(out),
            "--log", str(log)]
    if kind is not None:
        path = tmp_path / "far.farc"
        save_model(replace_attention(TeacherModel(desk_config(), seed=49),
                                     seed=49), path)
        argv += ["--checkpoint", str(path)]
    assert main(argv) == 0
    assert len(calls) == max(epochs, 1)
    printed = capsys.readouterr().out.split("train acc ")[1].split(";")[0]
    model = load_model(out)
    ds = cli._dataset_from_cfg(load_config(str(cfgfile)), model.cfg)
    assert printed == f"{real(model, ds):.3f}"
    if epochs:
        header, *rows = log.read_text().splitlines()
        acc = float(rows[-1].split(",")[header.split(",").index("acc")])
        assert printed == f"{acc:.3f}"


@pytest.mark.parametrize("setting,named", [
    ("threshold = -0.5", "[prune] threshold: expected at least 0.0"),
    ("reg_coeff = -5", "[prune] reg_coeff: expected at least 0.0"),
], ids=["threshold-key", "reg_coeff-key"])
def test_cli_prune_rejects_negative_values_before_training(
        tmp_path, capsys, monkeypatch, setting, named):
    calls = []
    monkeypatch.setattr(distill, "run_phase",
                        lambda *args, **kwargs: calls.append(args) or [])
    path, out = tmp_path / "far.farc", tmp_path / "pruned.farc"
    save_model(replace_attention(TeacherModel(desk_config(), seed=48),
                                 seed=48), path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"[prune]\n{setting}\n[data]\nn = 20\n")
    assert main(["prune", "--config", str(cfgfile), "--checkpoint", str(path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert named in err
    assert calls == []
    assert not out.exists()


# subcommand -> every option it takes: a flag that nothing reads stays out
CLI_OPTIONS = {
    "train-teacher": {"--config", "--out", "--log"},
    "distill": {"--config", "--checkpoint", "--out", "--log"},
    "finetune": {"--config", "--checkpoint", "--out", "--log"},
    "prune": {"--config", "--checkpoint", "--out", "--log", "--report"},
    "flops": {"--config"},
    "bench": {"--config", "--variant", "--checkpoint"},
    "attribute": {"--config", "--checkpoint", "--layer", "--out-prefix"},
}


def test_cli_surface_is_pinned():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {o for a in p._actions for o in a.option_strings}
           - {"-h", "--help"} for name, p in sub.choices.items()}
    assert got == CLI_OPTIONS


@pytest.mark.parametrize("argv", [
    ["bench", "--variant", "far", "--checkpoint", "m.farc"],
    ["bench", "--checkpoint", "m.farc", "--variant", "attention"],
])
def test_cli_bench_variant_and_checkpoint_exclude_each_other(capsys, argv):
    assert main(argv) == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("argv,error", [
    (["prune", "--checkpoint", "m.farc", "--out", "p.farc",
      "--threshold", "0.8"], "unrecognized arguments"),
    (["prune", "--checkpoint", "m.farc", "--out", "p.farc",
      "--reg-coeff", "1e-3"], "unrecognized arguments"),
    (["flops", "--image-size", "384"], "unrecognized arguments"),
    (["params"], "invalid choice: 'params'"),
    (["flops", "--variant", "far"], "unrecognized arguments: --variant far"),
    (["train-teacher", "--seed", "3", "--out", "t.farc"],
     "unrecognized arguments: --seed"),
    (["bench", "--seed", "3"], "unrecognized arguments: --seed"),
    (["attribute", "--checkpoint", "m.farc", "--seed", "3"],
     "unrecognized arguments: --seed"),
], ids=["threshold", "reg-coeff", "image-size", "params", "flops-variant",
        "train-teacher-seed", "bench-seed", "attribute-seed"])
def test_cli_hyperparameter_flags_are_usage_errors(capsys, argv, error):
    """The run config is the only way to set a hyperparameter: its old
    flags are unknown options. ``[train] seed`` is the only seed, so
    ``--seed`` is gone. ``far flops`` prints both variants, so
    ``far params`` and ``flops --variant`` are gone too."""
    assert main(argv) == 2
    assert error in capsys.readouterr().err


def test_full_pipeline_determinism(tmp_path):
    """Same seeds and epochs -> bit-identical checkpoint files."""
    def run(tag):
        cfg = desk_config()
        ds = synth_dataset(44, 40, 10, 32)
        teacher = TeacherModel(cfg, seed=44)
        train_teacher(teacher, ds, TrainConfig(
            phase="teacher", lr=1e-3, epochs=2, batch_size=20, seed=44,
            warmup_epochs=0))
        far = replace_attention(teacher, seed=44)
        run_phase(far, teacher, ds, TrainConfig(
            phase="distill", lam=1.0, lr=5e-4, epochs=2, batch_size=20,
            seed=44, warmup_epochs=0))
        path = tmp_path / f"{tag}.farc"
        save_model(far, path)
        return path.read_bytes()

    assert run("one") == run("two")


def test_cli_training_commands_use_checkpoint_geometry(tmp_path, capsys):
    cfg = desk_config()
    cfg.image_size = 64
    path = tmp_path / "far64.farc"
    save_model(replace_attention(TeacherModel(cfg, seed=45), seed=45), path)
    cfgfile = tmp_path / "run.cfg"  # [model] keeps the 32-px default
    cfgfile.write_text("[distill]\nfinetune_epochs = 1\n[data]\nn = 20\n")
    out = tmp_path / "ft.farc"
    assert main(["finetune", "--config", str(cfgfile), "--checkpoint",
                 str(path), "--out", str(out)]) == 0
    assert "error" not in capsys.readouterr().err
    assert load_model(out).cfg.image_size == 64


# -- any damaged byte is a named error ------------------------------------------

@pytest.fixture(scope="module")
def small_far_file(tmp_path_factory):
    cfg = desk_config()
    cfg.layers = 1
    path = tmp_path_factory.mktemp("ckpt") / "far.farc"
    save_model(replace_attention(TeacherModel(cfg, seed=46), seed=46), path)
    return path, path.read_bytes()


def _assert_named_failure(path, match=None):
    with pytest.raises(CheckpointError, match=path.name) as info:
        load_model(path)
    assert match is None or match in str(info.value)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["bench", "--checkpoint", str(path)]) == 1
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()


@settings(max_examples=40, deadline=2000)
@given(data=st.data())
def test_any_truncation_is_checkpoint_error(small_far_file, data):
    path, raw = small_far_file
    keep = data.draw(st.integers(0, len(raw) - 1))
    bad = path.with_name("truncated.farc")
    bad.write_bytes(raw[:keep])
    _assert_named_failure(bad)


@settings(max_examples=40, deadline=2000)
@given(data=st.data())
def test_any_bit_flip_is_checkpoint_error(small_far_file, data):
    path, raw = small_far_file
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    bad = path.with_name("flipped.farc")
    bad.write_bytes(bytes(flipped))
    _assert_named_failure(bad)


@pytest.mark.parametrize("precision", ["f16", "bogus"])
def test_bad_precision_is_named_error(small_far_file, precision):
    """A precision outside tensor.DTYPES is a ValueError from the
    constructor and a CheckpointError naming the file (exit 1) from a
    CRC-valid checkpoint."""
    with pytest.raises(ValueError, match="precision must be one of f32, f64"):
        ModelConfig(precision=precision)
    path, _ = small_far_file
    cfg = ModelConfig(**{**vars(desk_config()), "layers": 1})
    cfg.precision = precision  # attribute writes are not validated
    _, kind, tensors = load_checkpoint(path)
    bad = path.with_name(f"{precision}.farc")
    save_checkpoint(bad, cfg, tensors, kind=kind)
    _assert_named_failure(bad, match=f"got {precision!r}")


INT_FIELDS = [f.name for f in dataclasses.fields(ModelConfig) if f.type is int]


@settings(max_examples=30, deadline=2000)
@given(field=st.sampled_from(INT_FIELDS), value=st.integers(-2 ** 31, 0))
def test_nonpositive_model_size_is_named_error(small_far_file, field, value):
    """A size <= 0 is a ShapeError naming the field, from the constructor,
    the run config (exit 1) and a CRC-valid checkpoint alike."""
    with pytest.raises(ShapeError, match=f"{field} must be positive"):
        ModelConfig(**{field: value})
    path, _ = small_far_file
    cfg = ModelConfig(**{**vars(desk_config()), "layers": 1})
    setattr(cfg, field, value)  # attribute writes are not validated
    _, kind, tensors = load_checkpoint(path)
    bad = path.with_name("bad_dims.farc")
    save_checkpoint(bad, cfg, tensors, kind=kind)
    _assert_named_failure(bad, match=f"{field} must be positive")
    run_cfg = path.with_name("bad_dims.cfg")
    run_cfg.write_text(f"[model]\n{field} = {value}\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["flops", "--config", str(run_cfg)]) == 1
    assert err.getvalue() == f"error: {field} must be positive, got {value}\n"
