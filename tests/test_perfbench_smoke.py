"""``perfbench/run.py`` run end to end, briefly: a run whose last standard
output line is not its result, or whose result is not correct, fails here
rather than only in a full benchmark run.

Three short runs (``--seconds 0.3``) start together, each in a directory
of its own, so the module takes about as long as the slowest of them:
``explain-desk`` untraced and traced, and ``infer-b1`` traced. A traced
run wraps the program's functions and counts its graph nodes, the path a
change to the scans or the graph reaches first.
"""

import json
import pathlib
import subprocess
import sys

import pytest

RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
RUNS = [("explain-desk", 0), ("explain-desk", 1), ("infer-b1", 1)]


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


@pytest.mark.parametrize("workload,trace", RUNS)
def test_a_short_run_ends_with_a_correct_result_line(runs, workload, trace):
    proc, cwd = runs[workload, trace]
    code = proc.wait(timeout=120)
    err = (cwd / "stderr").read_text()
    assert code == 0, err
    last = (cwd / "stdout").read_text().splitlines()[-1]
    result = json.loads(last)
    assert result["correct"] is True and result["failed"] == 0, err
    assert result["attempted"] > 0 and result["metrics"]
    # the run removed its work directory
    assert sorted(p.name for p in cwd.iterdir()) == ["stderr", "stdout"]
