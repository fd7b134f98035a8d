"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import inspect
import sys

import pytest

import bench_inputs
from run import SRC, RefClock, load_cyclorank, run_ops

sys.path.insert(0, str(SRC))

from bench_trace import LAYERS, Tracer  # noqa: E402
from bench_workloads import PointQueries  # noqa: E402


def _function_attrs(cr) -> dict[tuple[str, str], object]:
    """Every function held by a cyclorank module attribute, by (module, name)."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "cyclorank" or key.startswith("cyclorank."):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    out[(key, attr)] = obj
    return out


@pytest.mark.parametrize(
    "make",
    [bench_inputs.point_queries, bench_inputs.invariant_queries, bench_inputs.overflow_probe],
)
def test_same_seed_same_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_inputs_are_primes_in_their_classes():
    cr = load_cyclorank()
    for make in (bench_inputs.point_queries, bench_inputs.invariant_queries):
        for n, p in make(3)[:500]:
            assert cr.is_prime(n) and n % p == 1 and n < 2**62
    assert all(n < bench_inputs.POINT_P3_HI for n, p in bench_inputs.point_queries(3) if p == 3)


def test_tracer_restores_every_function_and_untraced_run_calls_originals():
    cr = load_cyclorank()
    before = _function_attrs(cr)
    post_init = cr.modmath.ModulusContext.__dict__["__post_init__"]
    wl = PointQueries(cr, 5, {})

    tracer = Tracer(cr)
    with RefClock() as rc, tracer:
        assert cr.scan.rank3 is not before[("cyclorank.scan", "rank3")]
        assert cr.modmath.is_prime is not before[("cyclorank.modmath", "is_prime")]
        traced = run_ops(wl, rc, count=50)
    assert tracer.calls("rank.bounds") == 50
    assert tracer.calls("primes.is_prime") > 0
    assert tracer.calls("modmath.context") > 0

    assert _function_attrs(cr) == before
    assert all(after is before[k] for k, after in _function_attrs(cr).items())
    assert cr.modmath.ModulusContext.__dict__["__post_init__"] is post_init

    calls_after = {k: v[0] for k, v in tracer.stats.items()}
    with RefClock() as rc:
        untraced = run_ops(wl, rc, count=50)
    assert {k: v[0] for k, v in tracer.stats.items()} == calls_after
    assert untraced.completed == traced.completed == 50
    assert not wl.problems


def test_tracer_covers_every_layer_module():
    cr = load_cyclorank()
    with Tracer(cr) as tracer:
        s = cr.scan.scan_rank3(2000, (1, 4, 7), shards=2, workers=1)
        cr.reporting.render(s, "csv")
    names = {name.split(".")[0] for name in tracer.stats}
    assert {"primes", "modmath", "eisenstein", "rank", "scan", "reporting"} <= names
    assert set(LAYERS) >= names
    assert tracer.calls("primes.sieve") == s.total + 2  # one exhausted next() per shard
    assert abs(tracer.root_s - sum(v[2] for v in tracer.stats.values())) < 1e-6
