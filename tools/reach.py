"""Line reach of the ``far`` package: the executable lines of ``src/far``
that no command, benchmark workload or acceptance criterion runs.

    python tools/reach.py

Run from anywhere in a checkout; it needs only the standard library, the
package and what its runs need (numpy, and pytest for the acceptance
suite). In a temporary directory it runs, each in its own subprocess under
a line tracer (``sys.settrace``):

- every CLI command in f32 and in f64 with a tiny config (a comment line,
  a non-default ``[train] seed``, every epoch count above
  ``warmup_epochs`` so that the cosine decay runs):
  train-teacher -> distill -> finetune -> prune -> a
  second prune of the pruned (shrunk) file, whose scans have unequal
  widths -> attribute of the pruned and the teacher file (both at their
  last layer), flops without ``--config`` and under a config of image
  size 64, and bench of both variants and of both files;
- every perfbench workload at ``--seconds 0.3``, untraced and with
  ``--trace 1``;
- ``tests/test_acceptance.py``.

It then prints, per module, each executable line that no command or
workload reached, tagged ``[acceptance]`` when the acceptance suite
reached it, and then ``name,count`` totals. A run that exits non-zero is
an error naming it (exit 1). It writes nothing into the repository.
"""

import argparse
import json
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile
import threading
import time
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
FAR = ROOT / "src" / "far"
WORKLOADS = ("infer-b1", "infer-b32-t65", "train-desk", "explain-desk")
CONFIG = """\
# tiny run: every epoch count exceeds warmup_epochs
[model]
precision = {precision}
image_size = {image_size}
[train]
seed = 3
teacher_epochs = 2
warmup_epochs = 1
[distill]
epochs = 2
finetune_epochs = 2
[prune]
threshold = 0.9
threshold_mode = relative
reg_epochs = 2
finetune_epochs = 2
[bench]
runs = 2
warmups = 1
[data]
n = 40
"""


def executable_lines(path):
    """The line numbers of ``path`` that hold compiled code, in any of its
    code objects (module, class bodies, functions, comprehensions)."""
    code = compile(pathlib.Path(path).read_text(), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack += [c for c in co.co_consts if isinstance(c, types.CodeType)]
    return lines


class LineTracer:
    """Records the lines run in files under directory ``root``: path ->
    set of line numbers. Frames of other files are not traced."""

    def __init__(self, root):
        self.root = os.path.join(os.path.realpath(root), "")
        self.lines = {}
        self._previous = None

    def _call(self, frame, event, arg):
        path = os.path.realpath(frame.f_code.co_filename)
        if not path.startswith(self.root):
            return None
        hits = self.lines.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line
        return line

    def __enter__(self):
        self._previous = sys.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)
        threading.settrace(self._previous)


def report(executable, reached, acceptance, root):
    """The report lines: per module (``executable`` maps path -> lines),
    each line in no set of ``reached``, tagged when ``acceptance`` holds
    it, then the totals as ``name,count`` rows."""
    out, totals = [], {"executable": 0, "unreached": 0, "acceptance_only": 0}
    for path in sorted(executable):
        lines = executable[path]
        missed = sorted(lines - reached.get(path, set()))
        only = {n for n in missed if n in acceptance.get(path, set())}
        totals["executable"] += len(lines)
        totals["unreached"] += len(missed)
        totals["acceptance_only"] += len(only)
        if not missed:
            continue
        text = pathlib.Path(path).read_text().splitlines()
        name = os.path.relpath(path, root)
        out.append(f"{name}: {len(missed)} of {len(lines)} lines unreached")
        out += [f"  {n:4d}  {'[acceptance] ' if n in only else ''}"
                f"{text[n - 1].strip()}" for n in missed]
    return out + [f"{k},{v}" for k, v in totals.items()]


def child(out, argv):
    """Run ``argv`` (a script path, or ``-m`` and a module, then its
    arguments) under a LineTracer of ``FAR``; write the lines to ``out``
    as JSON and return the run's exit code."""
    code = 0
    with LineTracer(FAR) as tracer:
        try:
            if argv[0] == "-m":
                sys.argv = argv[1:]
                runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
            else:
                sys.argv = argv
                sys.path.insert(0, os.path.dirname(argv[0]))
                runpy.run_path(argv[0], run_name="__main__")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(
                exc.code is not None)
    with open(out, "w") as fh:
        json.dump({p: sorted(n) for p, n in tracer.lines.items()}, fh)
    return code


def runs(work):
    """(name, argv) of every run, the acceptance suite's last."""
    for precision in ("f32", "f64"):
        d = work / precision
        d.mkdir()
        for size in (32, 64):
            (d / f"run{size}.cfg").write_text(
                CONFIG.format(precision=precision, image_size=size))
        cfg, cfg64 = (["--config", str(d / f"run{size}.cfg")]
                      for size in (32, 64))
        t, f, ft, p, pp = (str(d / n) for n in (
            "t.farc", "f.farc", "ft.farc", "p.farc", "pp.farc"))
        for argv in (
                ["train-teacher", *cfg, "--out", t,
                 "--log", str(d / "t.csv")],
                ["distill", *cfg, "--checkpoint", t, "--out", f,
                 "--log", str(d / "f.csv")],
                ["finetune", *cfg, "--checkpoint", f, "--out", ft],
                ["prune", *cfg, "--checkpoint", ft, "--out", p,
                 "--log", str(d / "p.csv"), "--report", str(d / "r.csv")],
                ["prune", *cfg, "--checkpoint", p, "--out", pp,
                 "--log", str(d / "pp.csv"), "--report", str(d / "rr.csv")],
                ["attribute", *cfg, "--checkpoint", p, "--layer", "3",
                 "--out-prefix", str(d / "a_")],
                ["attribute", *cfg, "--checkpoint", t, "--layer", "3",
                 "--out-prefix", str(d / "ta_")],
                ["flops"],
                ["flops", *cfg64],
                ["bench", *cfg],
                ["bench", *cfg, "--variant", "attention"],
                ["bench", *cfg, "--checkpoint", p],
                ["bench", *cfg, "--checkpoint", t]):
            yield f"far {precision} {argv[0]}", ["-m", "far.cli", *argv]
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            yield (f"perfbench {workload} --trace {trace}",
                   [str(ROOT / "perfbench" / "run.py"), "--workload",
                    workload, "--seed", "1", "--seconds", "0.3",
                    "--trace", trace])
    yield "acceptance", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                         str(ROOT / "tests" / "test_acceptance.py")]


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="reach", description="Print the executable lines of src/far "
        "that no command, benchmark workload or acceptance criterion runs.")
    ap.add_argument("--child", nargs=argparse.REMAINDER,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args.child[0], args.child[1:])

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(
               [str(ROOT / "src")] + [p for p in [os.environ.get(
                   "PYTHONPATH")] if p])}
    reached, acceptance = {}, {}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="far-reach-") as tmp:
        work = pathlib.Path(tmp)
        for i, (name, run_argv) in enumerate(runs(work)):
            out = work / f"lines{i}.json"
            done = subprocess.run(
                [sys.executable, __file__, "--child", str(out), *run_argv],
                cwd=work, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                sys.exit(f"reach: run {name!r} exited {done.returncode}")
            into = acceptance if name == "acceptance" else reached
            for path, lines in json.loads(out.read_text()).items():
                into.setdefault(path, set()).update(lines)
    executable = {os.path.realpath(f): executable_lines(f)
                  for f in sorted(FAR.glob("*.py"))}
    print("\n".join(report(executable, reached, acceptance, ROOT)))
    print(f"seconds,{time.perf_counter() - start:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
