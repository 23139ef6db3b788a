"""One workload in one fresh interpreter; prints one JSON object on stdout.

Modes:
  setup   import the program and do the workload's set-up, report its time
          and the reference loop's time around it (see calib.py);
  timed   the same, then run whole passes over the items until --seconds
          have elapsed, timing the reference loop between items;
  traced  run one pass untraced, then the same pass with every public
          function of the program wrapped, and report per-layer numbers
          (the overhead ratio from reference-scaled times).

Run by run.py with PYTHONPATH pointing at the program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import calib
import spans
from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
MAX_ERRORS = 5


def _pin_to_one_core() -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    """Item latencies, work done and failures of one or more passes."""

    def __init__(self, workload, calibrate: bool = False):
        self.workload = workload
        self.calibrate = calibrate
        self.item_ref: list[float] = []  # each item's reference time
        self.last_ref = 0.0
        self.since_ref = 0.0
        self.latencies: list[float] = []
        self.busy = 0.0
        self.work = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(reason)

    def one_pass(self, items, before=None, after=None) -> None:
        wl = self.workload
        outputs = {}
        failed_before = self.failed
        if self.calibrate:
            self.last_ref = calib.time_reference()
        for i, item in enumerate(items):
            if before:
                before(i)
            t0 = time.perf_counter()
            try:
                out = wl.run(item)
            except Exception as exc:  # an item that raises is a failed item
                out = None
                reason = f"{item!r} raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if after:
                after()
            self.latencies.append(dt)
            self.busy += dt
            self.since_ref += dt
            if self.calibrate and self.since_ref >= calib.EVERY_S:
                self.mark()
            self.work += wl.work(item)
            if out is None:
                self.fail(reason)
                continue
            outputs[item] = out
            reason = wl.check(item, out)
            if reason is None and dt > wl.budget_s:
                reason = f"{item!r} took {dt:.1f} s, over the {wl.budget_s} s budget"
            if reason is not None:
                self.fail(reason)
        if self.calibrate and self.since_ref:
            self.mark()
        # A whole-pass check adds a failure only to a pass with no failed item,
        # so that failed never exceeds attempted.
        if self.failed == failed_before:
            reason = wl.check_pass(outputs)
            if reason is not None:
                self.fail(reason)

    def mark(self) -> None:
        """Time reference() and give every item since the last reading the
        mean of the two readings around it."""
        ref = calib.time_reference()
        self.item_ref += [(self.last_ref + ref) / 2] * (len(self.latencies) - len(self.item_ref))
        self.last_ref = ref
        self.since_ref = 0.0

    def scaled_busy(self) -> float:
        return sum(calib.scaled(self.latencies, self.item_ref))

    def report(self) -> dict:
        return {
            "attempted": len(self.latencies),
            "failed": self.failed,
            "errors": self.errors,
            "latencies_s": self.latencies,
            "item_ref_s": self.item_ref,
            "busy_s": self.busy,
            "work": self.work,
        }


def _set_up(workload) -> tuple[float, float]:
    """Set-up time, and the mean of the reference times before and after it."""
    before = calib.median_reference()
    t0 = time.perf_counter()
    import noncongruent  # noqa: F401  (the import is what is timed)

    workload.setup()
    setup_s = time.perf_counter() - t0
    return setup_s, (before + calib.median_reference()) / 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "timed", "traced"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)

    _pin_to_one_core()
    wl = WORKLOADS[args.workload](args.seed)
    setup_s, setup_ref_s = _set_up(wl)
    result: dict = {"setup_s": setup_s, "setup_ref_s": setup_ref_s}
    if args.mode == "timed":
        tally = Tally(wl, calibrate=True)
        deadline = time.perf_counter() + args.seconds
        passes = 0
        while passes < wl.min_passes or time.perf_counter() < deadline:
            tally.one_pass(wl.items)
            passes += 1
        result.update(tally.report(), passes=passes, inputs=wl.inputs())
    elif args.mode == "traced":
        plain = Tally(wl, calibrate=True)
        plain.one_pass(wl.items)
        tracer = spans.Tracer()
        traced = Tally(wl, calibrate=True)
        tracer.install()
        try:

            def start(i):
                tracer.item = i
                tracer.active = True

            def stop():
                tracer.active = False

            traced.one_pass(wl.items, start, stop)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"{wl.name}.spans")
        layers = spans.layer_metrics(tracer)
        layers["trace.overhead_ratio"] = traced.scaled_busy() / plain.scaled_busy()
        result.update(
            attempted=len(plain.latencies) + len(traced.latencies),
            failed=plain.failed + traced.failed,
            errors=plain.errors + traced.errors,
            layers=layers,
            inputs=wl.inputs(),
        )
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
