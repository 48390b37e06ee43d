"""Benchmark of the far package: one process, one thread, closed loop.

    python3 perfbench/run.py --workload infer-b1 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run builds its models and inputs (``setup_s``), checks the program
against stored reference values (``reference.json``), then cycles three
times through the workload's own phases, timed for ``--seconds`` in all,
and a fixed number of every other operation, so that each workload
reports every metric. The last line of standard output is one JSON
object; the line before it records the environment and the sample
counts. See README.md for the workloads, the metrics and the checks.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from speed import REFERENCE_S, SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("infer-b1", "infer-b32-t65", "train-desk", "explain-desk")
# Phases a workload times for --seconds, with each phase's share of them.
PRIMARY = {
    "infer-b1": {"b1.teacher": 0.15, "b1.far": 0.425, "b1.pruned": 0.425},
    "infer-b32-t65": {"b32.teacher": 0.3, "b32.far": 0.35, "b32.pruned": 0.35},
    "train-desk": {"train": 1.0},
    "explain-desk": {"explain": 1.0},
}
# Fixed op counts of the other phases, so that every workload reports
# every end-to-end metric.
CONTROL = {"b1.teacher": 300, "b1.far": 66, "b1.pruned": 66, "train": 3,
           "explain": 3}
# The run cycles ROUNDS times through all of its phases, so that each
# metric samples the whole run and not one stretch of the host's speed.
ROUNDS = 3
# Phase whose ops the graph-node and GC metrics are taken per.
FOCUS = {"infer-b1": "b1.far", "infer-b32-t65": "b32.far",
         "train-desk": "train", "explain-desk": "explain"}

SETUP_REPEATS = 5
PRUNE_TAU = 0.97          # relative threshold: keeps 40.6% of hidden units
CANARY_SEED = 20250527    # fixed inputs of the stored reference values
B32 = 32
TRAIN_N = 200
TRAIN_KINDS = ("distill", "finetune", "prune-regularize")
# (lr, weight decay) per training op, the defaults of far.config.SCHEMA.
TRAIN_HPARAMS = {"distill": (5e-4, 0.05), "finetune": (5e-5, 0.05),
                 "prune-regularize": (5e-5, 0.0)}
REG_COEFF = 1e-4
EXPLAIN_POOL = 4          # images cycled by explain ops, so images repeat
B1_POOL = 64
B32_POOL = 128
# Stored-reference tolerances. The values were computed with float64
# models; a float32 run differs by less than 1e-7 in relative loss and
# 3e-7 in a map entry, so a reordered float32 sum still passes.
LOSS_RTOL = 1e-5
MAP_ATOL = 1e-5
ROW_SUM_ATOL = 1e-5


def import_far():
    """Import ``far`` from the checkout's ``src/`` and nowhere else."""
    if not (SRC / "far" / "__init__.py").is_file():
        sys.exit(f"perfbench: no far package under {SRC}")
    sys.path.insert(0, str(SRC))
    import far
    if Path(far.__file__).resolve().parent != SRC / "far":
        sys.exit(f"perfbench: imported far from {far.__file__}, not {SRC}")


def desk_config(image_size, precision="f32"):
    from far.vit import ModelConfig
    return ModelConfig(layers=4, dim=32, heads=2, head_dim=16, mlp_ratio=4,
                       patch_size=8, image_size=image_size, num_classes=10,
                       precision=precision)


def blas_threads():
    """The thread count OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                return getattr(ctypes.CDLL(lib), sym)()
            except (OSError, AttributeError):
                continue
    return None


def environment():
    """Thread settings and library versions actually in effect."""
    env = {v: os.environ.get(v) for v in THREAD_VARS}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = blas_threads()
    env["nproc"] = len(os.sched_getaffinity(0))
    env["cpu_count"] = os.cpu_count()
    env["python"] = platform.python_version()
    env["numpy"] = np.__version__
    env["gc_threshold"] = list(gc.get_threshold())
    env["gc_enabled"] = gc.isenabled()
    return env


# -- set-up ------------------------------------------------------------------

def pools(seed, phases):
    """Seeded input pools of the phases; only generated inputs reach far."""
    from far import data
    out = {}
    if any(p.startswith("b1.") for p in phases):
        out["b1"] = data.synth_dataset(seed, B1_POOL, 10, 32)
    if any(p.startswith("b32.") for p in phases):
        out["b32"] = data.synth_dataset(seed, B32_POOL, 10, 64)
    if "train" in phases:
        out["train"] = data.synth_dataset(seed, TRAIN_N, 10, 32)
    if "explain" in phases:
        out["explain"] = data.synth_dataset(seed, 10, 10, 32)
    return out


def set_up(work, seed, phases, precision="f32"):
    """Build models from fixed seeds through save_model -> load_model."""
    from far import checkpoint, pruner
    from far.far_block import replace_attention
    from far.vit import TeacherModel
    models = {}
    sizes = [32] + ([64] if any(p.startswith("b32.") for p in phases) else [])
    for size in sizes:
        cfg = desk_config(size, precision)
        teacher = TeacherModel(cfg, seed=0)
        far = replace_attention(teacher, seed=0)
        pruned = replace_attention(TeacherModel(cfg, seed=0), seed=0)
        pruner.prune_by_threshold(pruned, PRUNE_TAU, mode="relative")
        for kind, model in (("teacher", teacher), ("far", far),
                            ("pruned", pruned)):
            path = os.path.join(work, f"{kind}{size}.farc")
            checkpoint.save_model(model, path)
            models[f"{kind}{size}"] = checkpoint.load_model(path)
    # Training ops update weights in place, so they get their own copy.
    models["train"] = checkpoint.load_model(os.path.join(work, "far32.farc"))
    return models, pools(seed, phases)


def same_bytes(a, b):
    return all(np.asarray(a[k].images).tobytes() == np.asarray(b[k].images).tobytes()
               and np.asarray(a[k].labels).tobytes() == np.asarray(b[k].labels).tobytes()
               for k in a) and a.keys() == b.keys()


# -- operations --------------------------------------------------------------

def snapshot(model):
    return {n: t.data.copy() for n, t in model.named_parameters().items()}


def restore(model, snap):
    for n, t in model.named_parameters().items():
        t.data = snap[n].copy()
        t.grad = None


def train_op(model, snap, dataset, kind):
    """One epoch of distill.run_phase from the set-up weights; its loss."""
    from far import distill, pruner
    restore(model, snap)
    lr, wd = TRAIN_HPARAMS[kind]
    cfg = distill.TrainConfig(phase=kind, lam=1.0, lr=lr, weight_decay=wd,
                              epochs=1, batch_size=B32, seed=0,
                              warmup_epochs=2, warmup_lr=1e-5)
    extra = None
    if kind == "prune-regularize":
        def extra():
            return pruner.hoyer_penalty_total(
                model, extension=False, reduce="sum") * REG_COEFF
    rows = distill.run_phase(model, model.teacher, dataset, cfg,
                             extra_loss=extra)
    return rows[0]["loss"]


def explain_op(model, image):
    """A `far attribute` request at the last layer: saliency per head and
    the token dependency matrix."""
    from far import attribution
    last = model.cfg.layers - 1
    sal = [attribution.cls_saliency(model, image, last, h)
           for h in range(model.cfg.heads)]
    return sal, attribution.token_dependency(model, image, last)


def maps_valid(sal, dep, grid, tokens):
    return (all(s.shape == (grid, grid) and np.isfinite(s).all()
                and s.min() >= 0.0 and s.max() <= 1.0 for s in sal)
            and dep.shape == (tokens, tokens) and np.isfinite(dep).all()
            and dep.min() >= 0.0
            and np.abs(dep.sum(axis=1) - 1.0).max() <= ROW_SUM_ATOL)


def maps_equal(a, b, atol):
    return all(np.abs(np.asarray(x) - np.asarray(y)).max() <= atol
               for x, y in zip(a[0] + [a[1]], b[0] + [b[1]]))


class Phases:
    """The operations of every phase, each with an output check."""

    def __init__(self, models, inputs, work):
        import reference
        from far import checkpoint
        self.models, self.inputs = models, inputs
        self.ref = {}
        for key, pool in (("b1", "32"), ("b32", "64")):
            if key not in inputs:
                continue
            for kind in ("teacher", "far", "pruned"):
                cfg, k, tensors = checkpoint.load_checkpoint(
                    os.path.join(work, f"{kind}{pool}.farc"))
                self.ref[f"{key}.{kind}"] = reference.logits(
                    cfg, k, tensors, inputs[key].images)
        self.logits_match = reference.logits_match
        if "train" in models:
            self.train_snap = snapshot(models["train"])
        self.train_loss = {}
        self.maps = {}

    def images_per_op(self, phase):
        if phase == "train":
            return len(self.inputs["train"].train_idx)
        return B32 if phase.startswith("b32.") else 1

    def run(self, phase, i):
        """Run op ``i`` of ``phase``; returns a callable that checks it."""
        if phase.startswith("b1.") or phase.startswith("b32."):
            key, kind = phase.split(".")
            size, b = ("32", 1) if key == "b1" else ("64", B32)
            images = self.inputs[key].images
            start = (i * b) % len(images)
            logits, _ = self.models[kind + size].forward(images[start:start + b])
            ref = self.ref[phase][start:start + b]
            return lambda: self.logits_match(logits.data, ref)
        if phase == "train":
            kind = TRAIN_KINDS[i % len(TRAIN_KINDS)]
            loss = train_op(self.models["train"], self.train_snap,
                            self.inputs["train"], kind)
            return lambda: self._check_loss(kind, loss)
        idx = i % EXPLAIN_POOL
        model = self.models["far32"]
        out = explain_op(model, self.inputs["explain"].images[idx])
        return lambda: self._check_maps(idx, out, model.cfg)

    def _check_loss(self, kind, loss):
        first = self.train_loss.setdefault(kind, loss)
        return bool(np.isfinite(loss)) and abs(loss - first) <= 1e-6 * abs(first)

    def _check_maps(self, idx, out, cfg):
        first = self.maps.setdefault(idx, out)
        return (maps_valid(out[0], out[1], cfg.grid, cfg.tokens)
                and maps_equal(out, first, 1e-6))


# -- stored reference values ---------------------------------------------------

def canary_inputs():
    from far import data
    ds32 = data.synth_dataset(CANARY_SEED, 40, 10, 32)
    ds64 = data.synth_dataset(CANARY_SEED, 10, 10, 64)
    return ds32, ds64


def canary_values(models):
    """The values reference.json stores, computed with ``models``."""
    ds32, ds64 = canary_inputs()
    logits = {name: model.forward((ds32 if name.endswith("32") else ds64).images[:2])[0].data
              for name, model in models.items() if name != "train"}
    snap = snapshot(models["train"])
    losses = {k: train_op(models["train"], snap, ds32, k) for k in TRAIN_KINDS}
    restore(models["train"], snap)
    sal, dep = explain_op(models["far32"], ds32.images[0])
    return {"logits": logits, "train_loss": losses, "saliency": sal, "dependency": dep}


def canary_check(models):
    """Compare the program with reference.json; also warms every path."""
    import reference
    with open(HERE / "reference.json") as fh:
        want = json.load(fh)
    got = canary_values(models)
    ok = {f"logits.{name}": reference.logits_match(x, np.asarray(want["logits"][name]))
          for name, x in got["logits"].items()}
    for kind, loss in got["train_loss"].items():
        ref = want["train_loss"][kind]
        ok[f"loss.{kind}"] = bool(np.isfinite(loss)) and abs(loss - ref) <= LOSS_RTOL * abs(ref)
    cfg = models["far32"].cfg
    maps = (got["saliency"], got["dependency"])
    ok["maps"] = (maps_valid(*maps, cfg.grid, cfg.tokens) and maps_equal(
        maps, (list(want["saliency"]), want["dependency"]), MAP_ATOL))
    return ok


def write_reference(work):
    models, _ = set_up(work, 0, ["b1.far", "b32.far", "train", "explain"],
                       precision="f64")
    with open(HERE / "reference.json", "w") as fh:
        json.dump(canary_values(models), fh, default=np.ndarray.tolist)
        fh.write("\n")


# -- the measured run ------------------------------------------------------------

class Run:
    """Times phases and keeps the samples; traces when a tracer is set.

    Each op is kept as (measured seconds, seconds at reference speed).
    """

    def __init__(self, phases, probe):
        self.phases = phases
        self.probe = probe
        self.samples = {}          # phase -> [(s, reference s)] untraced
        self.traced = {}           # phase -> [(s, reference s)] traced
        self.per_op = {}           # phase -> [tracer.snapshot() deltas]
        self.next_op = {}          # phase -> index of its next op
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def phase(self, phase, count=None, seconds=None):
        gc.collect()
        self.probe.restart()
        tr = self.tracer
        if tr is not None:
            tr.phase = phase
        end = time.perf_counter() + (seconds or 0.0)
        first = i = self.next_op.get(phase, 0)
        while (i - first < count) if count is not None else (i == first or time.perf_counter() < end):
            self.attempted += 1
            before = tr.snapshot() if tr is not None else None
            try:
                check, dt, ref_dt = self.probe.time(lambda: self.phases.run(phase, i))
            except Exception as exc:  # a failed op is counted, not fatal
                print(f"perfbench: {phase} op {i} raised {exc!r}", file=sys.stderr)
                self.failed += 1
                i += 1
                continue
            if tr is not None:
                self.per_op.setdefault(phase, []).append(
                    tuple(a - b for a, b in zip(tr.snapshot(), before)))
            # A wrong result still took its time; it is counted as failed.
            if not check():
                print(f"perfbench: {phase} op {i} gave a wrong result", file=sys.stderr)
                self.failed += 1
            (self.traced if tr is not None else self.samples).setdefault(
                phase, []).append((dt, ref_dt))
            i += 1
        self.next_op[phase] = i
        if tr is not None:
            tr.phase = None

    def times(self, phase, which=1, traced=None):
        """Op times of ``phase``: 0 measured, 1 at reference speed."""
        parts = {None: (self.samples, self.traced), False: (self.samples,),
                 True: (self.traced,)}[traced]
        return [t[which] for part in parts for t in part.get(phase, [])]


# A metric that cannot be computed, because no op of its phase completed
# or the function it times is gone, is None and is left out of the result;
# such a run has failed ops or a failed check, so it is not correct.

def median(xs):
    return statistics.median(xs) if xs else None


def mean(xs):
    return statistics.mean(xs) if xs else None


def quantile90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else None


def ratio(a, b):
    return None if a is None or not b else a / b


def end_to_end(workload, run, setup_times, which=1):
    """Every end-to-end metric; ``which`` 0 gives measured times instead."""
    def rate(phase, per_op):
        ts = run.times(phase, which)
        return ratio(len(ts) * per_op, sum(ts)), "1/s"

    def ms(phase):
        return [t * 1e3 for t in run.times(phase, which)]

    m = {"setup_s": (median([t[which] for t in setup_times]), "s")}
    batch = "b32" if workload == "infer-b32-t65" else "b1"
    for kind in ("teacher", "far", "pruned"):
        m[f"{kind}_p50_ms"] = (median(ms(f"b1.{kind}")), "ms")
        m[f"{kind}_p90_ms"] = (quantile90(ms(f"b1.{kind}")), "ms")
        m[f"{kind}_images_per_s"] = rate(f"{batch}.{kind}", run.phases.images_per_op(f"{batch}.{kind}"))
    m["train_examples_per_s"] = rate("train", run.phases.images_per_op("train"))
    m["train_epoch_p50_ms"] = (median(ms("train")), "ms")
    m["explain_p50_ms"] = (median(ms("explain")), "ms")
    m["explain_maps_per_s"] = rate("explain", 3)
    return m


PER_CALL_MS = ("far_block.bilstm_head", "vit.patch_embed", "vit.attention_block",
               "vit.mlp_block", "vit.classify", "tensor.backward",
               "distill.run_phase", "distill.AdamW.step", "distill.similarity_loss",
               "distill.accuracy", "pruner.hoyer_penalty_total",
               "attribution.token_dependency", "attribution.cls_saliency")
SETUP_S = ("checkpoint.load_model", "checkpoint.save_model", "data.synth_dataset")


def per_layer(workload, run, tracer, models):
    """Every per-layer metric, from the traced part of the run.

    A function is measured over the workload's own phases, or over all
    phases when those never call it. Times are scaled to reference speed
    with the run's median probe; shares and counts are as measured.
    """
    from far import profiler, pruner
    primary = set(PRIMARY[workload])
    everything = set(CONTROL) | primary | {"setup"}
    speed = REFERENCE_S / run.probe.median()
    m = {}

    def span(name):
        phases = primary if tracer.select(name, primary).calls else everything
        return tracer.select(name, phases)

    def per_call(s, stat="incl", unit=1e3):
        return ratio(getattr(s, stat) * speed * unit, s.calls)

    def macs_per_s(s):
        return ratio(s.macs, s.incl * speed)

    for name in PER_CALL_MS:
        m[f"{name}.ms"] = (per_call(span(name)), "ms")
    ffw = span("far_block.far_block_forward")
    m["far_block.far_block_forward.self_ms"] = (per_call(ffw, "self"), "ms")
    m["far_block.macs_per_s"] = (macs_per_s(ffw), "MAC/s")
    m["vit.attention_block.macs_per_s"] = (macs_per_s(span("vit.attention_block")), "MAC/s")
    teacher = tracer.select("vit.forward", {"train"}, root="distill.run_phase")
    m["distill.teacher_forward.ms"] = (per_call(teacher), "ms")
    for name in SETUP_S:
        m[f"{name}.s"] = (per_call(span(name), unit=1.0), "s")
    blocks = tracer.select("far_block.far_block_forward", everything,
                           root="attribution.token_dependency")
    maps = tracer.select("attribution.token_dependency", everything)
    m["attribution.block_calls_per_map"] = (ratio(blocks.calls, maps.calls) if blocks.calls else None, "count")

    focus = FOCUS[workload]
    ops = run.per_op.get(focus, [])      # (gc s, collections, nodes, lstm steps)
    op_time = sum(run.times(focus, 0, traced=True))
    m["far_block.lstm_step.calls"] = (
        statistics.median_low([o[3] for o in ops]) if ops else None, "count")
    m["tensor.nodes_per_op"] = (
        statistics.median_low([o[2] for o in ops]) if ops else None, "count")
    m["tensor.gc.share"] = (ratio(sum(o[0] for o in ops), op_time), "ratio")
    m["tensor.gc.collections_per_op"] = (ratio(sum(o[1] for o in ops), len(ops)), "count")

    report = pruner.retention_report(models["pruned32"])
    m["pruner.retained_ratio"] = (
        sum(r["retained"] for r in report) / sum(r["total"] for r in report), "ratio")
    key, size = ("b32", 64) if workload == "infer-b32-t65" else ("b1", 32)
    cfg = models[f"far{size}"].cfg
    m["pruner.mac_ratio"] = (
        profiler.count_flops(cfg, "far", masks=models[f"pruned{size}"].masks)
        / profiler.count_flops(cfg, "far"), "ratio")
    m["pruner.time_ratio"] = (ratio(mean(run.times(f"{key}.pruned")),
                                    mean(run.times(f"{key}.far"))), "ratio")

    traced_time = sum(sum(run.times(p, 0, traced=True)) for p in primary)
    m["trace.coverage"] = (ratio(tracer.covered_seconds(primary), traced_time), "ratio")
    # As measured: the two halves of a round run back to back, and a
    # traced run probes only at op boundaries, which tracks long ops poorly.
    overhead = ratio(mean(run.times(focus, 0, traced=True)),
                     mean(run.times(focus, 0, traced=False)))
    m["trace.overhead"] = (None if overhead is None else overhead - 1.0, "ratio")
    # A function the program lacks reads as not measured, not as 0.
    missing = tuple(tracer.missing)
    return {k: (None if k.startswith(missing) else v, u)
            for k, (v, u) in m.items()}


def mac_counters(cfg):
    """Analytic MACs of one token-mixer call, from profiler.count_flops."""
    from far import profiler
    d, r = cfg.dim, cfg.mlp_ratio

    def mixer(variant, t, masks=None):
        per_layer = profiler.count_flops(
            cfg, variant, t=t, breakdown=True,
            masks=None if masks is None else [masks] * cfg.layers)[1]
        return per_layer[0] - 2 * t * d * r * d  # less the shared MLP

    def far_block(args, kwargs):
        x = args[0]
        masks = args[2] if len(args) > 2 else kwargs.get("masks")
        b, t = (x.shape[0], x.shape[1]) if x.ndim == 3 else (1, x.shape[0])
        return b * mixer("far", t, masks)

    def attention(args, kwargs):
        b, t = args[1].shape[:2]
        return b * mixer("attention", t)

    return {"far_block.far_block_forward": far_block,
            "vit.attention_block": attention}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="recompute reference.json with float64 models")
    args = ap.parse_args(argv)
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_far()
    work = tempfile.mkdtemp(prefix=".perfbench-work-", dir=os.getcwd())
    try:
        if args.write_reference:
            write_reference(work)
            return 0
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


@contextlib.contextmanager
def traced(run, tracer):
    """Trace the ops run inside the block; does nothing without a tracer."""
    if tracer is not None:
        tracer.install()
        run.tracer = tracer
    try:
        yield
    finally:
        if tracer is not None:
            tracer.uninstall()
            run.tracer = None


def measure(args, work):
    from tracing import Tracer
    workload = args.workload
    primary = PRIMARY[workload]
    names = list(primary) + [p for p in CONTROL if p not in primary]
    tracer = Tracer(mac_counters(desk_config(32))) if args.trace else None
    probe = SpeedProbe(ticks=not args.trace)
    info = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment()}
    try:
        setup_times, models, inputs = timed_set_up(args.seed, work, names,
                                                   tracer, probe)
        run = Run(Phases(models, inputs, work), probe)
    except Exception as exc:  # nothing can be measured without the models
        print(f"perfbench: set-up raised {exc!r}", file=sys.stderr)
        return report(info, {}, attempted=1, failed=1, metrics={})

    checks = {}
    for name, check in (
            ("inputs_reproducible",
             lambda: {"inputs_reproducible": same_bytes(inputs, pools(args.seed, names))}),
            ("reference", lambda: canary_check(models))):
        try:
            checks.update(check())
        except Exception as exc:  # a check that raises has failed
            print(f"perfbench: check {name} raised {exc!r}", file=sys.stderr)
            checks[name] = False
    for _ in range(ROUNDS):
        for phase, share in primary.items():
            budget = args.seconds * share / ROUNDS
            if tracer is None:
                run.phase(phase, seconds=budget)
            else:
                # Half untraced, half traced: the difference is the
                # tracing overhead.
                run.phase(phase, seconds=budget / 2)
                with traced(run, tracer):
                    run.phase(phase, seconds=budget / 2)
        for phase in names[len(primary):]:
            with traced(run, tracer):
                run.phase(phase, count=CONTROL[phase] // ROUNDS)

    info["samples"] = {p: len(run.times(p)) for p in names}
    info["probe_ms"] = {"count": probe.n, "median": probe.median() * 1e3,
                        "reference": REFERENCE_S * 1e3}
    if tracer is None:
        metrics = end_to_end(workload, run, setup_times)
        info["measured"] = {k: v for k, (v, _) in
                            end_to_end(workload, run, setup_times, which=0).items()}
    else:
        checks["trace_functions_found"] = not tracer.missing
        info["trace_missing"] = sorted(tracer.missing)
        metrics = per_layer(workload, run, tracer, models)
    return report(info, checks, run.attempted, run.failed, metrics)


def timed_set_up(seed, work, names, tracer, probe):
    """SETUP_REPEATS timed set-ups; their times, and the last one's models
    and inputs."""
    if tracer is not None:
        tracer.install()
        tracer.phase = "setup"
    try:
        times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            probe.restart()
            (models, inputs), dt, ref_dt = probe.time(lambda: set_up(work, seed, names))
            times.append((dt, ref_dt))
        return times, models, inputs
    finally:
        if tracer is not None:
            tracer.uninstall()


def report(info, checks, attempted, failed, metrics):
    """Print the info line and the result line; metrics that are None are
    left out."""
    bad = [k for k, ok in checks.items() if not ok]
    for k in bad:
        print(f"perfbench: check {k} failed", file=sys.stderr)
    info["checks"] = checks
    print(json.dumps(info))
    result = {"correct": not bad and failed == 0,
              "attempted": attempted + len(checks),
              "failed": failed + len(bad),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items() if v is not None}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
