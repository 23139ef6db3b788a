"""Span tracing from outside the program, and the per-layer numbers it gives.

``Tracer.install`` wraps every public module-level function of the traced
modules and rebinds each wrapper in every ``noncongruent`` namespace that
holds the original, so that ``matrices.factorize`` or
``cli.factor_squarefree`` calls are recorded as well.  Spans stay in memory
as columns of (name, start, end, parent, item) and are written out at the
end; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from math import isqrt
from pathlib import Path

PACKAGE = "noncongruent"
LAYERS = (
    "arith",
    "f2linalg",
    "matrices",
    "reps",
    "criteria",
    "tame",
    "cassels",
    "oracles",
    "cli",
)


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


class Tracer:
    """Records one span per call of each wrapped function while active."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.item_col = array("q")
        self.item = -1
        self.active = False
        self.factorize_args: set[int] = set()
        self.window_steps = 0
        self.s2_two_classify: set[int] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced layers, everywhere bound."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back where it was found."""
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = {
            "arith.factorize": self._observe_factorize,
            "reps.fundamental_2mu2_tau2": self._observe_window,
            "criteria.classify": self._observe_classify,
        }.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        names, starts, ends = self.name_col, self.start_col, self.end_col
        parents, items = self.parent_col, self.item_col

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        return wrapper

    def _observe_factorize(self, idx, args, result) -> None:
        self.factorize_args.add(args[0])

    def _observe_window(self, idx, args, result) -> None:
        # The scan starts at ceil(sqrt(n/2)); the returned mu is where it stopped.
        n, mu = args[0], result[0]
        lo = isqrt(n // 2)
        if 2 * lo * lo < n:
            lo += 1
        self.window_steps += mu - lo + 1

    def _observe_classify(self, idx, args, result) -> None:
        if result.s2 == 2:
            self.s2_two_classify.add(idx)

    # -- output -------------------------------------------------------------

    def spans(self):
        """(name, start_ns, end_ns, parent_index, item) for every span."""
        for i, name_id in enumerate(self.name_col):
            yield (
                self.names[name_id],
                self.start_col[i],
                self.end_col[i],
                self.parent_col[i],
                self.item_col[i],
            )

    def write(self, path: Path) -> None:
        """Write the span columns as one binary file plus a JSON name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for col in (self.name_col, self.start_col, self.end_col, self.parent_col, self.item_col):
                col.tofile(fh)
        header = {
            "spans": len(self.name_col),
            "columns": ["name:i32", "start_ns:i64", "end_ns:i64", "parent:i64", "item:i64"],
            "names": self.names,
        }
        path.with_suffix(".json").write_text(json.dumps(header))


def self_times(names, starts, ends, parents) -> list[int]:
    """Each span's duration minus the part covered by its direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def _nearest(names, parents, target: str) -> list[int]:
    """For each span, the index of its nearest ancestor named `target`, or -1."""
    out = [-1] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            out[i] = p if names[p] == target else out[p]
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics: call counts, self times and derived ratios."""
    names = [tracer.names[i] for i in tracer.name_col]
    own = self_times(names, tracer.start_col, tracer.end_col, tracer.parent_col)
    calls = Counter(names)
    fn_self: Counter = Counter()
    layer_self: Counter = Counter()
    for name, t in zip(names, own):
        fn_self[name] += t
        layer_self[name.split(".", 1)[0]] += t
    classify_of = _nearest(names, tracer.parent_col, "criteria.classify")
    per_s2_two = Counter(
        name
        for name, c in zip(names, classify_of)
        if c in tracer.s2_two_classify
    )
    n_two = len(tracer.s2_two_classify)

    def sec(ns: int) -> float:
        return ns / 1e9

    def ratio(a: int, b: int) -> float:
        return a / b if b else 0.0

    return {
        "arith.factorize.calls": calls["arith.factorize"],
        "arith.factorize.self_s": sec(fn_self["arith.factorize"]),
        "arith.factorize.repeat_ratio": ratio(calls["arith.factorize"], len(tracer.factorize_args)),
        "arith.is_prime.calls": calls["arith.is_prime"],
        "arith.is_prime.self_s": sec(fn_self["arith.is_prime"]),
        "arith.is_norm.calls": calls["arith.is_norm"],
        "arith.is_norm.self_s": sec(fn_self["arith.is_norm"]),
        "arith.quad_jacobi.self_s": sec(fn_self["arith.quad_jacobi"]),
        "arith.hilbert.calls": calls["arith.hilbert"],
        "arith.self_s": sec(layer_self["arith"]),
        "f2linalg.rank.calls": calls["f2linalg.rank"],
        "f2linalg.kernel.calls": calls["f2linalg.kernel"],
        "f2linalg.self_s": sec(layer_self["f2linalg"]),
        "matrices.s2.calls": calls["matrices.s2"],
        "matrices.h4.calls": calls["matrices.h4"],
        "matrices.h4.per_classify": ratio(per_s2_two["matrices.h4"], n_two),
        "matrices.prime_discriminants.calls": calls["matrices.prime_discriminants"],
        "matrices.self_s": sec(layer_self["matrices"]),
        "reps.window_steps": tracer.window_steps,
        "reps.fundamental_2mu2_tau2.calls": calls["reps.fundamental_2mu2_tau2"],
        "reps.self_s": sec(layer_self["reps"]),
        "criteria.classify.calls": calls["criteria.classify"],
        "criteria.classify.self_s": sec(fn_self["criteria.classify"]),
        "criteria.distinguished_divisor.per_classify": ratio(
            per_s2_two["criteria.distinguished_divisor"], n_two
        ),
        "criteria.self_s": sec(layer_self["criteria"]),
        "tame.r4_tame.calls": calls["tame.r4_tame"],
        "tame.self_s": sec(layer_self["tame"]),
        "cassels.local_point_search.calls": calls["cassels.local_point_search"],
        "cassels.pairing_product.calls": calls["cassels.pairing_product"],
        "cassels.self_s": sec(layer_self["cassels"]),
        "oracles.selmer_oracle.self_s": sec(fn_self["oracles.selmer_oracle"]),
        "oracles.h4_oracle.self_s": sec(fn_self["oracles.h4_oracle"]),
        "oracles.class_group.calls": calls["oracles.class_group"],
        "oracles.self_s": sec(layer_self["oracles"]),
        "cli.self_s": sec(layer_self["cli"]),
        "trace.spans": len(names),
    }
