"""Benchmark of noncongruent: one workload per call, checked, with metrics.

    python3 bench/run.py --workload scan-eligible --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each call measures one workload in fresh
child interpreters, each pinned to one core, in a closed loop: the next item
starts only when the previous one has returned.

--trace 0   times whole passes over the items for at least --seconds and
            prints the end-to-end metrics (set-up time, throughput, item
            latency percentiles, peak RSS, failures).  Every time is scaled
            to reference speed: multiplied by calib.REF_S over the time of
            a fixed reference loop run in the same child around it, which
            cancels the host's changing speed (see calib.py).  The unscaled
            times are printed too;
--trace 1   runs one pass untraced, then the same pass with every public
            function of the program wrapped, and prints per-layer metrics.

Every output is checked.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 0 only when
every item was correct.  See bench/README.md for the workloads and the map
from layer metrics to the end-to-end metrics they should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scan-eligible", "classify-large", "verify-sweep")
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s, the median reported
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units


def _child(mode: str, args, timeout: float) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        # glibc otherwise raises its mmap threshold as large blocks are freed,
        # and peak RSS then depends on the order of the items (verify-sweep
        # read 226 to 272 MB over seeds); fixed, it reflects live data only.
        MALLOC_MMAP_THRESHOLD_="131072",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], run: dict, scale: bool = True) -> tuple[dict, int]:
    """The end-to-end metric values, and how many samples lie beyond p90.

    With `scale`, item times are scaled to reference speed (`setups` are
    given as they are to be reported)."""
    lat_s = run["latencies_s"]
    if scale:
        lat_s = calib.scaled(lat_s, run["item_ref_s"])
    lat_ms = [t * 1e3 for t in lat_s]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": run["work"] / sum(lat_s),
        "item_ms_p50": statistics.median(lat_ms),
        "item_ms_p90": p90,
        "peak_rss_mb": run["peak_rss_mb"],
    }, sum(1 for t in lat_ms if t > p90)


def scaled_setup(child: dict) -> float:
    return calib.scaled([child["setup_s"]], [child["setup_ref_s"]])[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "noncongruent" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    started = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    try:
        if args.trace:
            run = _child("traced", args, left())
            setups = [run["setup_s"]]
        else:
            setups = [scaled_setup(_child("setup", args, left())) for _ in range(SETUP_SAMPLES - 1)]
            run = _child("timed", args, left())
            setups.append(scaled_setup(run))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"inputs {json.dumps(run['inputs'])}")
    attempted, failed = run["attempted"], run["failed"]
    for reason in run["errors"]:
        print(f"FAILED {reason}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} items)")
    if args.trace:
        values = run["layers"]
    else:
        values, beyond = end_to_end(setups, run)
        raw, _ = end_to_end([run["setup_s"]], run, scale=False)
        refs = run["item_ref_s"]
        print(f"reference loop median {statistics.median(refs) * 1e3:.4f} ms, from"
              f" {min(refs) * 1e3:.4f} to {max(refs) * 1e3:.4f} ms (nominal {calib.REF_S * 1e3:g} ms)")
        print("unscaled " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb"))
        unit = "n scanned" if args.workload == "scan-eligible" else "items"
        print(f"passes {run['passes']}  items {attempted}  busy {run['busy_s']:.3f} s  ({unit} per second)")
        print(f"item_ms_p90 has {beyond} of {attempted} samples beyond it")
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
