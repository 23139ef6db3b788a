"""Tests of the benchmark itself: span arithmetic, inputs, reference scaling and unwinding.

Run with `python -m pytest -q bench/tests` from the repository root.
"""

import sys

import calib
import gen
import pytest
import spans


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 40], b [50, 90] > c [60, 70]
    starts = [0, 10, 50, 60]
    ends = [100, 40, 90, 70]
    parents = [-1, 0, 0, 2]
    names = ["root", "a", "b", "c"]
    assert spans.self_times(names, starts, ends, parents) == [30, 30, 30, 10]


def test_self_times_sum_to_root_duration():
    starts = [0, 1, 2, 3, 20]
    ends = [50, 19, 10, 4, 30]
    parents = [-1, 0, 1, 2, 0]
    own = spans.self_times(["x"] * 5, starts, ends, parents)
    assert sum(own) == 50 and min(own) >= 0


def test_is_prime_matches_a_sieve():
    primes = {n for n in range(2, 5000) if all(n % d for d in range(2, int(n**0.5) + 1))}
    assert {n for n in range(5000) if gen.is_prime(n)} == primes
    assert not gen.is_prime(318665857834031151167461)  # strong pseudoprime to bases 2..37


def test_jacobi_matches_euler_criterion():
    for p in (7, 17, 23, 41, 1009):
        for a in range(1, 60):
            euler = pow(a, (p - 1) // 2, p)
            assert gen.jacobi(a, p) == (0 if a % p == 0 else 1 if euler == 1 else -1)


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for make in (gen.classify_inputs, gen.scan_blocks, gen.verify_cases):
        assert make(5) == make(5)
        assert make(5) != make(6)
    assert sorted(gen.scan_blocks(5)) == sorted(gen.scan_blocks(6))
    assert sorted(gen.verify_cases(5)) == sorted(gen.verify_cases(6))


def test_classify_inputs_keep_their_slot_shape():
    import random

    for seed in (1, 2):
        inputs = gen.classify_inputs(seed)
        assert inputs[0] == ("pinned", gen.PINNED_N)
        assert len(inputs) == 1 + gen.SLOT_DRAWS * len(gen.classify_slots())
        for _, n in inputs:
            assert n % 8 in (1, 2)
    rng = random.Random(0)
    for _, residue, scale, res, signs in gen.classify_slots():
        primes = gen.draw_primes(rng, scale // residue, res, signs)
        assert len(set(primes)) == len(primes) == len(res)
        assert all(gen.is_prime(p) and p % 8 == r for p, r in zip(primes, res))
        assert all(gen.jacobi(primes[i], primes[j]) == s for (i, j), s in signs.items())


def test_scan_blocks_cover_the_range_once():
    blocks = sorted(gen.scan_blocks(3))
    assert len(blocks) == 98 and blocks[0] == (1, 1023) and blocks[-1][1] == gen.SCAN_HI
    assert all(a[1] + 1 == b[0] for a, b in zip(blocks, blocks[1:]))


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "noncongruent" or name.startswith("noncongruent.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_counts_calls_through_every_namespace_and_unwinds():
    from noncongruent import arith, cli, criteria, matrices

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert matrices.factorize is arith.factorize is not before[("noncongruent.arith", "factorize")]
        assert cli.factor_squarefree is criteria.factor_squarefree is arith.factor_squarefree
        tracer.active = True
        tracer.item = 0
        v = criteria.classify(1394)  # 2 * 17 * 41
        tracer.active = False
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert not any(hasattr(v, "__wrapped__") for v in _bindings().values())

    metrics = spans.layer_metrics(tracer)
    assert metrics["criteria.classify.calls"] == 1
    assert metrics["arith.factorize.calls"] >= 2  # classify itself and matrices.prime_discriminants
    assert metrics["matrices.h4.calls"] >= 1
    assert all(item == 0 for *_, item in tracer.spans())
    top = [name for name, _, _, parent, _ in tracer.spans() if parent == -1]
    assert top == ["criteria.classify"]
    if v.s2 == 2:
        assert metrics["criteria.distinguished_divisor.per_classify"] == 2


def test_inactive_tracer_records_nothing():
    from noncongruent import criteria

    tracer = spans.Tracer()
    tracer.install()
    try:
        criteria.classify(17 * 41)
    finally:
        tracer.uninstall()
    assert list(tracer.spans()) == []


def test_reported_metrics_are_the_declared_ones():
    import run

    layers = set(spans.layer_metrics(spans.Tracer())) | {"trace.overhead_ratio"}
    assert layers == {m["name"] for m in run.SPEC["per_layer"]}
    fake = {
        "latencies_s": [0.001 * i for i in range(1, 101)],
        "item_ref_s": [calib.REF_S] * 100,
        "work": 100,
        "peak_rss_mb": 30.0,
    }
    values, beyond = run.end_to_end([0.1, 0.2, 0.3], fake)
    assert set(values) == {m["name"] for m in run.SPEC["end_to_end"]}
    assert values["item_ms_p50"] == pytest.approx(50.5) and beyond == 10
    assert values["items_per_s"] == pytest.approx(100 / 5.05)


def test_items_are_scaled_by_the_reference_times_around_them(monkeypatch):
    import types

    import child

    assert calib.scaled([0.03, 0.01], [2 * calib.REF_S, calib.REF_S / 2]) == pytest.approx([0.015, 0.02])

    clock = [0.0]

    class Fake:  # each item takes its own value in seconds of a fake clock
        budget_s = 1.0

        def run(self, item):
            clock[0] += item
            return item

        def check(self, item, out):
            return None

        def work(self, item):
            return 1

        def check_pass(self, outputs):
            return None

    readings = iter([1.0, 3.0, 5.0, 7.0])
    monkeypatch.setattr(child, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(calib, "time_reference", lambda: next(readings))
    tally = child.Tally(Fake(), calibrate=True)
    quarter = calib.EVERY_S / 4
    tally.one_pass([quarter] * 4 + [calib.EVERY_S, quarter])
    # Readings at the start (1), after the fourth item (3), after the fifth
    # (5) and at the end of the pass (7): each item gets the mean of the two
    # readings around it.
    assert tally.item_ref == [2.0] * 4 + [4.0, 6.0]
    assert tally.scaled_busy() == pytest.approx(calib.REF_S * (calib.EVERY_S / 2 + calib.EVERY_S / 4 + quarter / 6))
