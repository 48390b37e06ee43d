"""Check how far the program's heap moves the speed probe.

    python3 perfbench/probe_heap.py --keep 200

Times ops of four FAR requests at B=1 (about 0.2 s, so the probe also
runs inside each op) with the benchmark's SpeedProbe, in two conditions
that alternate op by op, so that the host's speed drift hits both alike:
A drops each output; B keeps the last ``--keep`` outputs, and so their
autodiff graphs, alive, as a program that leaks graphs would. It prints
the median probe time inside and after the ops of each condition, and
the B/A ratio of median op times as measured and at reference speed. If
the heap did not move the probe, the two ratios would be equal.
"""

import run  # first: pins BLAS to one thread before numpy loads

import argparse  # noqa: E402
import collections  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

from speed import CAPACITY, SpeedProbe  # noqa: E402

OPS = 240
WARMUP_OPS = 20
REQUESTS = 4


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--keep", type=int, default=200)
    args = ap.parse_args()
    run.import_far()
    work = tempfile.mkdtemp(prefix=".perfbench-work-", dir=os.getcwd())
    try:
        models, inputs = run.set_up(work, 1, ["b1.far"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    model, images = models["far32"], inputs["b1"].images
    kept = collections.deque(maxlen=args.keep)

    def op(cond, i):
        for j in range(REQUESTS):
            k = (i * REQUESTS + j) % len(images)
            out, _ = model.forward(images[k:k + 1])
            if cond == "B":
                kept.append(out)

    probe = SpeedProbe()
    rows = {c: {"measured": [], "scaled": [], "inside": [], "after": []}
            for c in "AB"}
    for i in range(OPS):
        cond = "AB"[i % 2]
        n0 = probe.n
        _, dt, ref_dt = probe.time(lambda: op(cond, i))
        if i < WARMUP_OPS:
            continue
        row = rows[cond]
        row["measured"].append(dt)
        row["scaled"].append(ref_dt)
        row["inside"] += [probe.took[k % CAPACITY] for k in range(n0, probe.n - 1)]
        row["after"].append(probe.took[(probe.n - 1) % CAPACITY])
    med = {c: {k: statistics.median(v) for k, v in row.items()}
           for c, row in rows.items()}
    for c in "AB":
        m = med[c]
        print(f"{c}: op {m['measured'] * 1e3:.1f} ms measured, "
              f"{m['scaled'] * 1e3:.1f} ms at reference speed; probe "
              f"{m['inside'] * 1e3:.3f} ms inside ({len(rows[c]['inside'])} probes), "
              f"{m['after'] * 1e3:.3f} ms after")
    print(f"B/A: measured {med['B']['measured'] / med['A']['measured']:.3f}, "
          f"at reference speed {med['B']['scaled'] / med['A']['scaled']:.3f}")


if __name__ == "__main__":
    main()
