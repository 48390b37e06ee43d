"""``tools/reach.py``'s line accounting, on a stub module: which lines
count as executable, which a traced run reaches, and how the report tags
lines that only the acceptance suite reached."""

import importlib.util
import pathlib
import runpy

ROOT = pathlib.Path(__file__).resolve().parents[1]

STUB = '''\
"""A stub module.

Its docstring, comments and blank lines hold no code.
"""


def used(x):
    # a comment
    if x > 0:
        return 1
    return 2


def unused():
    return [i for i in range(3)]


RESULT = used(1)
'''


def _reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_counts_traces_and_tags_the_lines_of_a_stub(tmp_path):
    reach = _reach()
    stub = tmp_path / "pkg" / "stub.py"
    stub.parent.mkdir()
    stub.write_text(STUB)
    assert reach.executable_lines(stub) == {1, 7, 9, 10, 11, 14, 15, 18}

    with reach.LineTracer(stub.parent) as tracer:
        assert runpy.run_path(str(stub))["RESULT"] == 1
    reached = tracer.lines
    assert list(reached) == [str(stub.resolve())]
    assert reached[str(stub.resolve())] == {1, 7, 9, 10, 14, 18}

    path = str(stub.resolve())
    report = reach.report({path: reach.executable_lines(stub)}, reached,
                          {path: {15}}, tmp_path)
    assert report == [
        "pkg/stub.py: 2 of 8 lines unreached",
        "    11  return 2",
        "    15  [acceptance] return [i for i in range(3)]",
        "executable,8",
        "unreached,2",
        "acceptance_only,1",
    ]


def test_the_tracer_ignores_files_outside_its_root(tmp_path):
    reach = _reach()
    (tmp_path / "inside").mkdir()
    outside = tmp_path / "outside.py"
    outside.write_text("X = 1\n")
    with reach.LineTracer(tmp_path / "inside") as tracer:
        runpy.run_path(str(outside))
    assert tracer.lines == {}
