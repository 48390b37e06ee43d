"""``tools/settables.py``: its kinds add up to its total, and the total
stays within ``SETTABLE_BOUND``, which a change that adds a knob raises."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SETTABLE_BOUND = 142
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
