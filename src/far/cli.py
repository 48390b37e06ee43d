"""Subcommand CLI driving the full pipeline.

Subcommands: train-teacher, distill, finetune, prune, flops, bench,
attribute. Exit codes: 0 success, 1 pipeline failure, 2 usage error.
"""

import argparse
import csv
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import pruner, profiler
from .attribution import cls_saliency, export_heatmaps, token_dependency
from .config import ConfigError, load_config, model_config
from .data import synth_dataset
from .distill import TrainConfig, accuracy, run_phase, train_teacher
from .far_block import replace_attention
from .vit import TeacherModel


def _dataset_from_cfg(cfg, mcfg):
    """The run config's dataset, drawn with its ``[train] seed``, at the
    geometry of model config ``mcfg``."""
    d = cfg["data"]
    return synth_dataset(cfg["train"]["seed"], d["n"], mcfg.num_classes,
                         mcfg.image_size, channels=mcfg.channels,
                         noise=d["noise"])


def _write_csv(out, header, rows):
    """``rows`` under ``header`` to the text file ``out``, as CSV (RFC 4180
    quoting); a value that is not a string as ``str`` writes it."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _print_rows(rows):
    """(metric, value) ``rows`` under a ``metric,value`` header."""
    _write_csv(sys.stdout, ("metric", "value"), rows)


def _write_table(path, header, rows):
    """Dict ``rows`` to the CSV file ``path``, a key of ``header`` that a
    row lacks as an empty field."""
    with open(path, "w") as fh:
        _write_csv(fh, header, ([r.get(k, "") for k in header] for r in rows))


def _write_log(path, rows):
    """Epoch ``rows`` to the --log file ``path`` (none when it is None):
    the columns of every phase, then the rest by name; the header alone
    when no epoch ran."""
    if path is None:
        return
    base = ("acc", "epoch", "loss", "phase", "sim_mean")
    keys = sorted({k for r in rows for k in r} | set(base),
                  key=lambda k: (k not in base, k))
    _write_table(path, keys, rows)


def _check_writable(*paths):
    """An OSError naming the first of ``paths`` (None skipped) that is a
    directory, or whose directory does not exist or is not writable: a
    training or attribute command checks the files it will write before
    its work, not after."""
    for path in paths:
        if path is None:
            continue
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        parent = os.path.dirname(os.path.abspath(path))
        if not (os.path.isdir(parent)
                and os.access(parent, os.W_OK | os.X_OK)):
            raise OSError(f"cannot write {path}: {parent} is not a writable "
                          f"directory")


def _load_kind(path, kind):
    """The model in checkpoint ``path``; a CheckpointError naming the file
    unless it holds a ``kind`` model."""
    model = ckpt.load_model(path)
    found = ckpt.model_kind(model)
    if found != kind:
        raise ckpt.CheckpointError(
            f"{path}: holds a {found} model; expected a {kind} checkpoint")
    return model


def _final_acc(rows, model, ds):
    """The last epoch row's train accuracy, which was measured on the
    final weights; measured now when no epoch ran."""
    return rows[-1]["acc"] if rows else accuracy(model, ds)


def cmd_train_teacher(args, cfg):
    _check_writable(args.out, args.log)
    tr = cfg["train"]
    teacher = TeacherModel(model_config(cfg), seed=tr["seed"])
    ds = _dataset_from_cfg(cfg, teacher.cfg)
    tcfg = _train_cfg(cfg, "teacher", tr["teacher_lr"], tr["teacher_epochs"])
    rows = train_teacher(teacher, ds, tcfg)
    ckpt.save_model(teacher, args.out)
    _write_log(args.log, rows)
    print(f"teacher train acc {_final_acc(rows, teacher, ds):.3f}; "
          f"saved {args.out}")
    return 0


def _train_cfg(cfg, phase, lr, epochs):
    tr, di = cfg["train"], cfg["distill"]
    return TrainConfig(phase=phase, lam=di["lam"], lr=lr, epochs=epochs,
                       batch_size=tr["batch_size"], seed=tr["seed"],
                       weight_decay=tr["weight_decay"],
                       warmup_epochs=tr["warmup_epochs"],
                       warmup_lr=tr["warmup_lr"])


def cmd_distill(args, cfg):
    _check_writable(args.out, args.log)
    teacher = _load_kind(args.checkpoint, "teacher")
    ds = _dataset_from_cfg(cfg, teacher.cfg)
    far = replace_attention(teacher, seed=cfg["train"]["seed"])
    di = cfg["distill"]
    rows = run_phase(far, teacher, ds,
                     _train_cfg(cfg, "distill", di["lr"], di["epochs"]))
    ckpt.save_model(far, args.out)
    _write_log(args.log, rows)
    sim = rows[-1]["sim_mean"] if rows else float("nan")
    print(f"distilled; final sim_mean {sim:.4f}; saved {args.out}")
    return 0


def cmd_finetune(args, cfg):
    _check_writable(args.out, args.log)
    far = _load_kind(args.checkpoint, "far")
    ds = _dataset_from_cfg(cfg, far.cfg)
    di = cfg["distill"]
    rows = run_phase(far, None, ds,
                     _train_cfg(cfg, "finetune", di["finetune_lr"],
                                di["finetune_epochs"]))
    ckpt.save_model(far, args.out)
    _write_log(args.log, rows)
    print(f"finetuned; train acc {_final_acc(rows, far, ds):.3f}; "
          f"saved {args.out}")
    return 0


def cmd_prune(args, cfg):
    _check_writable(args.out, args.log, args.report)
    pr = cfg["prune"]
    far = _load_kind(args.checkpoint, "far")
    ds = _dataset_from_cfg(cfg, far.cfg)
    reg_cfg = _train_cfg(cfg, "prune-regularize", pr["reg_lr"], pr["reg_epochs"])
    reg_cfg.weight_decay = pr["reg_weight_decay"]
    tune_cfg = _train_cfg(cfg, "prune-finetune", pr["finetune_lr"],
                          pr["finetune_epochs"])
    rows = []
    report = pruner.three_stage_pipeline(
        far, None, ds, reg_cfg, tune_cfg, tau=pr["threshold"],
        mode=pr["threshold_mode"], reg_coeff=pr["reg_coeff"], log_rows=rows)
    ckpt.save_model(far, args.out)
    _write_log(args.log, rows)
    _write_table(args.report, ("layer", "head", "direction", "retained",
                               "total", "ratio"),
                 ({**r, "ratio": f"{r['ratio']:.6f}"} for r in report))
    mean_ratio = float(np.mean([r["ratio"] for r in report]))
    print(f"pruned; mean retention {mean_ratio:.3f}; report {args.report}; "
          f"saved {args.out}")
    return 0


def cmd_flops(args, cfg):
    """The cost rows of the run config's attention model and of its FAR
    substitute side by side, under a ``metric,attention,far`` header."""
    mcfg = model_config(cfg)
    columns = [dict(profiler.cost_rows(mcfg, profiler.variant_shapes(
        mcfg, v, None))) for v in profiler.VARIANTS]
    _write_csv(sys.stdout, ("metric", *profiler.VARIANTS),
               ([k, *(c[k] for c in columns)] for k in columns[0]))
    return 0


def cmd_bench(args, cfg):
    """Latency and cost of one model: a random model of the run config
    (--variant), or with --checkpoint the checkpoint's, whose own config,
    kind and live scan widths describe what is measured. A FAR file that
    still holds pruned units (written before ``save_model`` dropped them,
    or by ``save_checkpoint``) is timed shrunk. The ``variant`` row reads
    ``attention``, ``far`` or ``mixed``; the cost rows count the tensor
    table of the model timed, one unit for a scan with none live. The
    report gives the config's precision, the dtype of the logits the
    measured forward produced and the thread variables set while it
    ran. The run config's ``[train] seed`` draws the random model and the
    input image."""
    seed = cfg["train"]["seed"]
    if args.checkpoint:
        model = pruner.shrink_model(ckpt.load_model(args.checkpoint))
    else:
        teacher = TeacherModel(model_config(cfg), seed=seed)
        model = (teacher if args.variant == "attention"
                 else replace_attention(teacher, seed=seed))
    mcfg = model.cfg
    kind = ckpt.model_kind(model)
    rows = [("variant", "attention" if kind == "teacher" else kind),
            *profiler.cost_rows(mcfg, {n: t.shape for n, t in
                                       model.named_parameters().items()})]
    rng = np.random.default_rng(seed)
    image = rng.normal(size=(1, mcfg.channels, mcfg.image_size,
                             mcfg.image_size)).astype(np.float32)
    logits = {}

    def forward():
        logits["last"] = model.forward(image)[0]

    stats = profiler.bench_latency(forward, warmups=cfg["bench"]["warmups"],
                                   runs=cfg["bench"]["runs"])
    rows += [(f"latency_{k}_ms", f"{stats[k]:.6f}")
             for k in ("median", "mean", "p10", "p90")]
    rows += [("runs", cfg["bench"]["runs"]),
             ("warmups", cfg["bench"]["warmups"]),
             ("precision", mcfg.precision), ("dtype", logits["last"].dtype),
             *stats["threads"].items()]
    _print_rows(rows)
    return 0


def cmd_attribute(args, cfg):
    """Maps of the checkpoint's model, on an image of its own geometry:
    image 0 of the run config's dataset, drawn with its ``[train] seed``.
    Only that image is drawn: it takes the seeded generator's first draws
    and is of class 0, whatever the dataset's size and class count. Every
    map file is checked first."""
    model = ckpt.load_model(args.checkpoint)
    m = model.cfg
    names = [f"saliency_l{args.layer}_h{h}" for h in range(m.heads)]
    names.append(f"dependency_l{args.layer}")
    _check_writable(*(f"{args.out_prefix}{n}.{ext}" for n in names
                      for ext in ("pgm", "csv")))
    image = synth_dataset(cfg["train"]["seed"], 1, 1, m.image_size,
                          channels=m.channels,
                          noise=cfg["data"]["noise"]).images[0]
    mats = {n: cls_saliency(model, image, args.layer, h)
            for h, n in enumerate(names[:-1])}
    mats[names[-1]] = token_dependency(model, image, args.layer)
    files = export_heatmaps(mats, args.out_prefix)
    print("\n".join(files))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="far",
        description="Attention-free transformer pipeline: train, distill, "
                    "prune, profile, attribute.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, about):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", default=None, help="run config file")
        return p

    def training(name, about, checkpoint=True):
        p = command(name, about)
        if checkpoint:
            p.add_argument("--checkpoint", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--log", default=None, help="metrics CSV path")
        return p

    training("train-teacher", "train the attention teacher", checkpoint=False)
    training("distill", "replace attention and distill")
    training("finetune", "unfreeze everything, task loss only")
    p = training("prune", "three-stage Group-HS pruning")
    p.add_argument("--report", default="retention.csv")

    command("flops", "analytic parameter and MAC counts of both variants")

    p = command("bench", "wall-clock latency harness")
    model = p.add_mutually_exclusive_group()
    model.add_argument("--variant", choices=profiler.VARIANTS,
                       help="a random model of the run config (default far)")
    model.add_argument("--checkpoint", default=None)

    p = command("attribute", "saliency and dependency heatmaps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--out-prefix", default="attr_")
    return ap


COMMANDS = {
    "train-teacher": cmd_train_teacher,
    "distill": cmd_distill,
    "finetune": cmd_finetune,
    "prune": cmd_prune,
    "flops": cmd_flops,
    "bench": cmd_bench,
    "attribute": cmd_attribute,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](args, cfg)
    except (ConfigError, FileNotFoundError, ckpt.CheckpointError,
            ValueError, IndexError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
