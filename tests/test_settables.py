"""``tools/settables.py``: its kinds add up to its total, and the total
stays within ``SETTABLE_BOUND``, which a change that adds a knob raises."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SETTABLE_BOUND = 113
KINDS = ("keyword_defaults", "dataclass_fields", "config_keys", "cli_options")


def test_settable_total_sums_its_kinds_and_stays_within_bound():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "settables.py"),
         str(ROOT / "src")],
        capture_output=True, text=True, check=True).stdout
    counts = {name: int(n) for name, n in
              (line.split(",") for line in out.splitlines())}
    assert set(KINDS) < counts.keys() and counts["src_lines"] > 0
    assert counts["settable_total"] == sum(counts[k] for k in KINDS)
    assert counts["settable_total"] <= SETTABLE_BOUND


@pytest.mark.parametrize("layout,pythonpath", [
    ((), None),
    (("far/extra.py",), None),
    (("far/extra.py",), ROOT / "src"),
], ids=["empty", "no-init", "no-init-far-elsewhere"])
def test_a_src_without_the_package_fails_naming_it(tmp_path, monkeypatch,
                                                   layout, pythonpath):
    for name in layout:
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("X = 1\n")
    monkeypatch.delenv("PYTHONPATH", raising=False)
    if pythonpath is not None:
        monkeypatch.setenv("PYTHONPATH", str(pythonpath))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "settables.py"), str(tmp_path)],
        capture_output=True, text=True)
    assert run.returncode != 0 and run.stdout == ""
    assert str(tmp_path) in run.stderr


def _run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "settables.py"), *args],
        capture_output=True, text=True, cwd=cwd)


def test_help_prints_the_usage_and_exits_0():
    run = _run("--help")
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.startswith("usage: settables [-h] [SRC]")


def test_an_unknown_option_is_a_usage_error():
    run = _run("--bogus")
    assert run.returncode == 2 and run.stdout == ""
    assert "unrecognized arguments: --bogus" in run.stderr


def test_src_defaults_to_src_of_the_working_directory():
    default, given = _run(cwd=ROOT), _run(str(ROOT / "src"))
    assert default.returncode == given.returncode == 0
    assert default.stdout == given.stdout != ""
