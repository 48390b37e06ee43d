"""``perfbench/run.py`` run end to end, briefly: a run whose last standard
output line is not its result, or whose result is not correct, fails here
rather than only in a full benchmark run. The result line must be strict
JSON (no ``NaN`` or ``Infinity``, which strict readers reject), and every
metric value a finite number. Its metric names must be exactly those that
``BENCHMARK.json`` declares: the ``end_to_end`` ones for an untraced run,
the ``per_layer`` ones for a traced run, which leaves out the metrics of
any traced function the run never called.

Three short runs (``--seconds 0.3``) start together, each in a directory
of its own, so the module takes about as long as the slowest of them:
``explain-desk`` untraced and traced, and ``infer-b1`` traced. A traced
run wraps the program's functions and counts its graph nodes, the path a
change to the scans or the graph reaches first.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
RUNS = [("explain-desk", 0), ("explain-desk", 1), ("infer-b1", 1)]
# trace -> the metric names a run's result carries
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = {trace: {m["name"] for m in DECLARED[key]}
         for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) -> (process, its directory), all started at once;
    standard output and error go to files there."""
    started = {}
    for workload, trace in RUNS:
        cwd = tmp_path_factory.mktemp(f"{workload}-trace{trace}")
        with open(cwd / "stdout", "w") as out, open(cwd / "stderr", "w") as err:
            started[workload, trace] = (subprocess.Popen(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", "1", "--seconds", "0.3", "--trace", str(trace)],
                cwd=cwd, stdout=out, stderr=err), cwd)
    yield started
    for proc, _ in started.values():
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _reject(constant):
    raise ValueError(f"result line holds {constant}, which is not JSON")


@pytest.mark.parametrize("workload,trace", RUNS)
def test_a_short_run_ends_with_a_correct_result_line(runs, workload, trace):
    proc, cwd = runs[workload, trace]
    code = proc.wait(timeout=120)
    err = (cwd / "stderr").read_text()
    assert code == 0, err
    last = (cwd / "stdout").read_text().splitlines()[-1]
    result = json.loads(last, parse_constant=_reject)
    assert result["correct"] is True and result["failed"] == 0, err
    assert result["attempted"] > 0
    assert set(result["metrics"]) == NAMES[trace]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), (
            name, value)
    # the run removed its work directory
    assert sorted(p.name for p in cwd.iterdir()) == ["stderr", "stdout"]
