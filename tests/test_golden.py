"""Golden digests: every output of a tiny CLI pipeline, byte for byte.

The pipeline runs in process through ``cli.main``, once in f32 and once in
f64: train-teacher -> distill -> finetune -> prune -> attribute (layer 3)
-> flops, then ``far bench`` of the teacher and the pruned file.
Each file it writes (checkpoints, ``--log`` and ``--report`` CSVs,
heatmaps), its standard output with the temporary directory replaced by
``<tmp>``, and each bench report less its latency and thread-variable
rows are hashed with SHA-256 and compared with ``golden_digests.json``.

A change that alters an output on purpose rewrites the table in its own
diff and names each changed output:

    PYTHONPATH=src python tests/test_golden.py

The table records the numpy version and BLAS build it was written with,
so a mismatch on another build is reported as such.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden_digests.json"
CONFIG = """\
[model]
precision = {precision}
[train]
teacher_epochs = 2
[distill]
epochs = 1
finetune_epochs = 1
[prune]
threshold = 0.9
threshold_mode = relative
reg_epochs = 1
finetune_epochs = 1
[bench]
runs = 1
warmups = 0
[data]
n = 40
"""
# bench rows that vary from run to run
VOLATILE = ("latency_", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")


def build():
    """The numpy version and BLAS build this process runs with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run(main, argv):
    """``main(argv)``'s standard output; a non-zero exit fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"far {' '.join(argv)} exited {code}"
    return out.getvalue()


def pipeline_digests(work, precision):
    """{output name: SHA-256} of the pipeline run in directory ``work``."""
    from far.cli import main
    work = pathlib.Path(work)
    cfgfile = work / "run.cfg"
    cfgfile.write_text(CONFIG.format(precision=precision))
    cfg = ["--config", str(cfgfile)]

    def path(name):
        return str(work / name)

    stdout = ""
    for argv in (
            ["train-teacher", "--out", path("teacher.farc"),
             "--log", path("teacher.csv")],
            ["distill", "--checkpoint", path("teacher.farc"),
             "--out", path("far.farc"), "--log", path("distill.csv")],
            ["finetune", "--checkpoint", path("far.farc"),
             "--out", path("far-ft.farc"), "--log", path("finetune.csv")],
            ["prune", "--checkpoint", path("far-ft.farc"),
             "--out", path("far-pruned.farc"), "--log", path("prune.csv"),
             "--report", path("retention.csv")],
            ["attribute", "--checkpoint", path("far-pruned.farc"),
             "--layer", "3", "--out-prefix", path("attr_")],
            ["flops"]):
        stdout += _run(main, argv[:1] + cfg + argv[1:])
    digests = {"stdout": stdout.replace(str(work), "<tmp>")}
    for kind in ("teacher", "far-pruned"):
        rows = _run(main, ["bench", *cfg, "--checkpoint",
                           path(f"{kind}.farc")]).splitlines(keepends=True)
        digests[f"bench {kind}"] = "".join(
            r for r in rows if not r.startswith(VOLATILE))
    digests = {name: text.encode() for name, text in digests.items()}
    for f in sorted(work.iterdir()):
        if f != cfgfile:
            digests[f.name] = f.read_bytes()
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in digests.items()}


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_pipeline_outputs_match_the_golden_digests(tmp_path, precision):
    table = json.loads(TABLE.read_text())
    got = pipeline_digests(tmp_path, precision)
    want = table[precision]
    differ = sorted(name for name in want.keys() | got.keys()
                    if want.get(name) != got.get(name))
    assert not differ, (
        f"{precision} outputs differ from {TABLE.name}: {', '.join(differ)} "
        f"(table written with {table['build']}, this run {build()})")


if __name__ == "__main__":
    import tempfile
    sys.path.insert(0, str(ROOT / "src"))
    table = {"build": build()}
    for precision in ("f32", "f64"):
        with tempfile.TemporaryDirectory() as work:
            table[precision] = pipeline_digests(work, precision)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
