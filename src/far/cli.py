"""Subcommand CLI driving the full pipeline.

Subcommands: train-teacher, distill, finetune, prune, params, flops,
bench, attribute. Exit codes: 0 success, 1 pipeline failure, 2 usage
error.
"""

import argparse
import sys

import numpy as np

from . import checkpoint as ckpt
from . import pruner, profiler
from .attribution import cls_saliency, export_heatmaps, token_dependency
from .config import ConfigError, load_config, model_config
from .data import synth_dataset
from .distill import TrainConfig, accuracy, metrics_to_csv, run_phase, train_teacher
from .far_block import FarModel, replace_attention
from .vit import TeacherModel


def _dataset_from_cfg(cfg, seed=None):
    m, d = cfg["model"], cfg["data"]
    return synth_dataset(seed if seed is not None else cfg["train"]["seed"],
                         d["n"], m["num_classes"], m["image_size"],
                         channels=m["channels"], noise=d["noise"])


def cmd_train_teacher(args, cfg):
    mcfg = model_config(cfg)
    tr = cfg["train"]
    teacher = TeacherModel(mcfg, seed=tr["seed"])
    ds = _dataset_from_cfg(cfg, args.seed)
    tcfg = TrainConfig(phase="teacher", lr=tr["teacher_lr"],
                       epochs=tr["teacher_epochs"],
                       batch_size=tr["batch_size"], seed=tr["seed"],
                       weight_decay=tr["weight_decay"],
                       warmup_epochs=tr["warmup_epochs"],
                       warmup_lr=tr["warmup_lr"])
    rows = []
    train_teacher(teacher, ds, tcfg, log_rows=rows)
    ckpt.save_model(teacher, args.out)
    if args.log:
        metrics_to_csv(rows, args.log)
    print(f"teacher train acc {accuracy(teacher, ds):.3f}; saved {args.out}")
    return 0


def _train_cfg(cfg, phase, lr, epochs):
    tr, di = cfg["train"], cfg["distill"]
    return TrainConfig(phase=phase, lam=di["lam"], lr=lr, epochs=epochs,
                       batch_size=tr["batch_size"], seed=tr["seed"],
                       weight_decay=tr["weight_decay"],
                       warmup_epochs=tr["warmup_epochs"],
                       warmup_lr=tr["warmup_lr"])


def cmd_distill(args, cfg):
    teacher = ckpt.load_model(args.checkpoint)
    ds = _dataset_from_cfg(cfg, args.seed)
    far = replace_attention(teacher, seed=cfg["train"]["seed"])
    di = cfg["distill"]
    rows = run_phase(far, teacher, ds,
                     _train_cfg(cfg, "distill", di["lr"], di["epochs"]))
    ckpt.save_model(far, args.out)
    if args.log:
        metrics_to_csv(rows, args.log)
    print(f"distilled; final sim_mean {rows[-1]['sim_mean']:.4f}; saved {args.out}")
    return 0


def cmd_finetune(args, cfg):
    far = ckpt.load_model(args.checkpoint)
    ds = _dataset_from_cfg(cfg, args.seed)
    di = cfg["distill"]
    rows = run_phase(far, None, ds,
                     _train_cfg(cfg, "finetune", di["finetune_lr"],
                                di["finetune_epochs"]))
    ckpt.save_model(far, args.out)
    if args.log:
        metrics_to_csv(rows, args.log)
    print(f"finetuned; train acc {rows[-1]['acc']:.3f}; saved {args.out}")
    return 0


def cmd_prune(args, cfg):
    far = ckpt.load_model(args.checkpoint)
    ds = _dataset_from_cfg(cfg, args.seed)
    pr = cfg["prune"]
    threshold = args.threshold if args.threshold is not None else pr["threshold"]
    reg_coeff = args.reg_coeff if args.reg_coeff is not None else pr["reg_coeff"]
    reg_cfg = _train_cfg(cfg, "prune-regularize", pr["reg_lr"], pr["reg_epochs"])
    reg_cfg.weight_decay = pr["reg_weight_decay"]
    tune_cfg = _train_cfg(cfg, "prune-finetune", pr["finetune_lr"],
                          pr["finetune_epochs"])
    rows = []
    report = pruner.three_stage_pipeline(
        far, None, ds, reg_cfg, tune_cfg, tau=threshold,
        mode=pr["threshold_mode"], reg_coeff=reg_coeff,
        extension=pr["extension"], penalty_reduce=pr["penalty_reduce"],
        log_rows=rows)
    ckpt.save_model(far, args.out)
    if args.log:
        metrics_to_csv(rows, args.log)
    pruner.report_to_csv(report, args.report)
    mean_ratio = float(np.mean([r["ratio"] for r in report]))
    print(f"pruned; mean retention {mean_ratio:.3f}; report {args.report}; "
          f"saved {args.out}")
    return 0


def cmd_params(args, cfg):
    mcfg = model_config(cfg)
    for variant in ("attention", "far"):
        print(f"{variant},{profiler.count_params(mcfg, variant)}")
    return 0


def cmd_flops(args, cfg):
    mcfg = model_config(cfg)
    report = profiler.cost_report(mcfg, args.variant,
                                  image_size=args.image_size)
    print(report.csv(), end="")
    return 0


def cmd_bench(args, cfg):
    """Latency and cost of one model; with --checkpoint, the checkpoint's
    own config, kind and scan widths describe what is measured."""
    if args.checkpoint:
        model = ckpt.load_model(args.checkpoint)
    else:
        teacher = TeacherModel(model_config(cfg), seed=cfg["train"]["seed"])
        model = (replace_attention(teacher) if args.variant == "far"
                 else teacher)
    mcfg = model.cfg
    rng = np.random.default_rng(args.seed or 0)
    image = rng.normal(size=(1, mcfg.channels, mcfg.image_size,
                             mcfg.image_size)).astype(np.float32)
    stats = profiler.bench_latency(lambda: model.forward(image),
                                   warmups=cfg["bench"]["warmups"],
                                   runs=cfg["bench"]["runs"])
    if isinstance(model, FarModel):
        report = profiler.cost_report(mcfg, "far", masks=model.masks)
    else:
        report = profiler.cost_report(mcfg, "attention")
    report.latency_ms = {k: stats[k] for k in ("median", "mean", "p10", "p90")}
    report.runs, report.warmups = stats["runs"], stats["warmups"]
    print(report.csv(), end="")
    return 0


def cmd_attribute(args, cfg):
    model = ckpt.load_model(args.checkpoint)
    ds = _dataset_from_cfg(cfg, args.seed)
    image = ds.images[0]
    mats = {}
    for head in range(model.cfg.heads):
        mats[f"saliency_l{args.layer}_h{head}"] = cls_saliency(
            model, image, args.layer, head)
    mats[f"dependency_l{args.layer}"] = token_dependency(
        model, image, args.layer)
    files = export_heatmaps(mats, args.out_prefix)
    print("\n".join(files))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="far",
        description="Attention-free transformer pipeline: train, distill, "
                    "prune, profile, attribute.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, out=False):
        p.add_argument("--config", default=None, help="run config file")
        p.add_argument("--seed", type=int, default=None)
        if checkpoint:
            p.add_argument("--checkpoint", required=True)
        if out:
            p.add_argument("--out", required=True)
        p.add_argument("--log", default=None, help="metrics CSV path")

    p = sub.add_parser("train-teacher", help="train the attention teacher")
    common(p, out=True)

    p = sub.add_parser("distill", help="replace attention and distill")
    common(p, checkpoint=True, out=True)

    p = sub.add_parser("finetune", help="unfreeze everything, task loss only")
    common(p, checkpoint=True, out=True)

    p = sub.add_parser("prune", help="three-stage Group-HS pruning")
    common(p, checkpoint=True, out=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--reg-coeff", type=float, default=None)
    p.add_argument("--report", default="retention.csv")

    p = sub.add_parser("params", help="closed-form parameter counts")
    common(p)

    p = sub.add_parser("flops", help="closed-form compute counts")
    common(p)
    p.add_argument("--variant", choices=("attention", "far"), default="far")
    p.add_argument("--image-size", type=int, default=None)

    p = sub.add_parser("bench", help="wall-clock latency harness")
    common(p)
    p.add_argument("--variant", choices=("attention", "far"), default="far")
    p.add_argument("--checkpoint", default=None)

    p = sub.add_parser("attribute", help="saliency and dependency heatmaps")
    common(p, checkpoint=True)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--out-prefix", default="attr_")
    return ap


COMMANDS = {
    "train-teacher": cmd_train_teacher,
    "distill": cmd_distill,
    "finetune": cmd_finetune,
    "prune": cmd_prune,
    "params": cmd_params,
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
            ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
