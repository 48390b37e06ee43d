"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of the ``far`` package
with timing wrappers. A module-level function is replaced in every ``far``
module that holds it, because callers look it up in their own namespace
(``far_block_forward`` is imported into ``attribution``, for instance).
Spans are aggregated in memory per (phase, root, name), where ``root`` is
the outermost traced function on the stack, so a call can be attributed
to the operation that caused it. Two hot internals are counted, not
timed: ``far_block.lstm_step`` and ``tensor._make`` (one call per graph
node). Garbage-collector pauses are timed with ``gc.callbacks``.
"""

import gc
import importlib
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path) of every traced function.
SPANS = (
    ("far_block.far_block_forward", "far.far_block", "far_block_forward"),
    ("far_block.bilstm_head", "far.far_block", "bilstm_head"),
    ("vit.patch_embed", "far.vit", "TeacherModel.patch_embed"),
    ("vit.attention_block", "far.vit", "TeacherModel.attention_block"),
    ("vit.mlp_block", "far.vit", "TeacherModel.mlp_block"),
    ("vit.classify", "far.vit", "TeacherModel.classify"),
    ("vit.forward", "far.vit", "TeacherModel.forward"),
    ("tensor.backward", "far.tensor", "Tensor.backward"),
    ("distill.run_phase", "far.distill", "run_phase"),
    ("distill.AdamW.step", "far.distill", "AdamW.step"),
    ("distill.similarity_loss", "far.distill", "similarity_loss"),
    ("distill.accuracy", "far.distill", "accuracy"),
    ("pruner.hoyer_penalty_total", "far.pruner", "hoyer_penalty_total"),
    ("attribution.token_dependency", "far.attribution", "token_dependency"),
    ("attribution.cls_saliency", "far.attribution", "cls_saliency"),
    ("checkpoint.save_model", "far.checkpoint", "save_model"),
    ("checkpoint.load_model", "far.checkpoint", "load_model"),
    ("data.synth_dataset", "far.data", "synth_dataset"),
)
COUNTS = (
    ("far_block.lstm_step", "far.far_block", "lstm_step"),
    ("tensor.nodes", "far.tensor", "_make"),
)

# Functions that are a whole benchmark operation: their self time is time
# no inner layer accounts for, so coverage leaves it out.
OP_ENTRIES = {"distill.run_phase", "attribution.token_dependency",
              "attribution.cls_saliency", "vit.forward"}


class Span:
    __slots__ = ("calls", "incl", "self", "macs")

    def __init__(self):
        self.calls, self.incl, self.self, self.macs = 0, 0.0, 0.0, 0.0


class Tracer:
    """Installs wrappers, then records spans, counts and GC pauses."""

    def __init__(self, macs):
        self.macs = macs              # metric prefix -> fn(args, kwargs)
        self.phase = None
        self.stack = []               # [name, child seconds] frames
        self.spans = defaultdict(Span)
        self.counts = defaultdict(int)
        self.gc_time = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._undo = []
        self.missing = set()          # traced names the program lacks

    # -- installation -------------------------------------------------------

    def install(self):
        for name, module, path in SPANS:
            self._replace(name, module, path, lambda fn, n=name: self._span(n, fn))
        for name, module, path in COUNTS:
            self._replace(name, module, path, lambda fn, n=name: self._count(n, fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, name, module, path, make):
        """Wrap ``path`` in every namespace it is looked up in.

        A function the program no longer has is recorded by its metric
        prefix in ``missing``: the run then fails its trace check and
        leaves out the metrics of that name, rather than reading 0.
        """
        owner = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(owner, cls_name, None)
            owners = [owner]
        else:
            attr = path
            owners = [m for n, m in list(sys.modules.items())
                      if n == "far" or n.startswith("far.")]
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return
        wrapper = make(original)
        for o in owners:
            if getattr(o, attr, None) is original:
                self._undo.append((o, attr, original))
                setattr(o, attr, wrapper)

    # -- recording ----------------------------------------------------------

    def _span(self, name, fn):
        macs = self.macs.get(name)
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            root = stack[0][0] if stack else name
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                s = self.spans[(self.phase, root, name)]
                s.calls += 1
                s.incl += dt
                s.self += dt - frame[1]
                if macs is not None:
                    s.macs += macs(args, kwargs)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_time += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def snapshot(self):
        """Values that a caller differences around one operation."""
        return (self.gc_time, self.gc_collections,
                self.counts[(self.phase, "tensor.nodes")],
                self.counts[(self.phase, "far_block.lstm_step")])

    # -- queries ------------------------------------------------------------

    def select(self, name, phases, root=None):
        """Merged span of ``name`` over ``phases`` (and one root, if given)."""
        out = Span()
        for (ph, rt, nm), s in self.spans.items():
            if nm == name and ph in phases and (root is None or rt == root):
                out.calls += s.calls
                out.incl += s.incl
                out.self += s.self
                out.macs += s.macs
        return out

    def covered_seconds(self, phases):
        """Self time of every traced layer below the operation entry point."""
        return sum(s.self for (ph, _, nm), s in self.spans.items()
                   if ph in phases and nm not in OP_ENTRIES)
