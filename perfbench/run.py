"""cyclorank benchmark: one workload per run, measured from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload rank3_scan --seed 1 --seconds 15 --trace 0

Workloads: rank3_scan, alpha_scan, point_queries, invariants (see
bench_workloads.py and BENCHMARK.json for what each exercises and why).

--trace 0 sets the workload up five times (import cyclorank afresh, build
the seeded inputs, warm up), then runs operations in a closed loop with one
client for --seconds and reports the end-to-end metrics.  --trace 1 runs a
fixed number of operations untraced, then the same operations again with
every public function of the layer modules wrapped (bench_trace.py), and
reports the per-layer metrics; the aggregated spans go to
perfbench/out/trace-<workload>-seed<seed>.json.  Every scan runs with
workers=1 and all load comes from this one process.

Times are reported in reference seconds.  On a shared 2-CPU machine the
speed of pure-Python code drifts by 20-30% over seconds to minutes, for the
program and for any other loop alike.  So after every CHUNK_S of operations
(and around every set-up) the run times a fixed calibration loop and scales
the times measured in between by REF_CAL_S over that loop's time: a
reference second is a wall-clock second on a machine where `calibrate()`
takes REF_CAL_S.  The human-readable lines give each run's scale, so
wall-clock figures can be recovered.

Outputs are checked outside the timed operations (see bench_workloads.py).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status: 0 when the outputs are correct, 1 when a
check failed, 2 when the cyclorank sources are missing or the arguments are
invalid (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
SETUPS = 5  # set-ups per --trace 0 run; setup_s is their median
CAL_ITERS = 10_000
REF_CAL_S = 0.0045  # calibrate() at the reference speed; defines a reference second
CHUNK_S = 0.1  # seconds between calibrations
CAL_WINDOW = 5  # calibrations the factor is the median of
LONG_OP_S = 1.0  # only operations running longer than this are interrupted to calibrate

clock = time.perf_counter


def load_cyclorank():
    """Import cyclorank afresh from this checkout's src/ (numpy stays loaded)."""
    for name in [k for k in sys.modules if k == "cyclorank" or k.startswith("cyclorank.")]:
        del sys.modules[name]
    cr = importlib.import_module("cyclorank")
    if Path(cr.__file__).resolve().parent != (SRC / "cyclorank").resolve():
        raise ImportError(f"cyclorank imported from {cr.__file__}, not from {SRC}")
    return cr


def calibrate() -> float:
    """Time a fixed pure-Python loop, in s.

    Big-int arithmetic and dict growth alone under-correct when the machine
    slows memory-heavy code such as the O(N) invariant tables; a sweep over a
    list alone over-corrects.  Timing both together tracks both kinds of
    workload within a few percent.
    """
    t0 = clock()
    x = 1
    for i in range(CAL_ITERS):
        x = (x * 1103515245 + i) % 4294967291
    d = {}
    for i in range(CAL_ITERS // 4):
        d[i] = i
    table = [0] * (3 * CAL_ITERS // 2)
    for i in range(1, len(table)):
        table[i] = (table[i - 1] + i) % 13
    return clock() - t0


class RefClock:
    """Reference seconds, recalibrated about every CHUNK_S.

    A SIGALRM handler, run in the main thread between bytecodes, times
    `calibrate()`; the factor is REF_CAL_S over the median of the last
    CAL_WINDOW timings, so one disturbed timing does not scale a whole
    interval.  Each calibration closes the interval since the last one at the
    mean of the factors at its two ends; calibration time itself is left out.
    Within the open interval, `now()` counts wall time at the factor of its
    start.  An operation younger than LONG_OP_S is not interrupted: the
    calibration waits for `settle()` after it, so only scans, which run for
    seconds, pay for the calibration's effect on the caches, and query
    latencies are measured whole.  Use from the main thread only.
    """

    def __enter__(self) -> "RefClock":
        self.ticks = 0
        self.ref = 0.0  # reference seconds up to `mark`
        self.wall = 0.0  # wall-clock seconds up to `mark`, calibrations left out
        self.recent = collections.deque((calibrate() for _ in range(CAL_WINDOW)), CAL_WINDOW)
        self.factor = REF_CAL_S / statistics.median(self.recent)
        self.mark = clock()
        self.op_start: float | None = None  # wall clock at the start of the running operation
        self.pending = False
        self.calibrating = False
        signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, CHUNK_S, CHUNK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _alarm(self, signum, frame) -> None:
        young = self.op_start is not None and clock() - self.op_start < LONG_OP_S
        if young or self.calibrating:
            self.pending = True
        else:
            self._recalibrate()

    def _recalibrate(self) -> None:
        self.calibrating = True
        try:
            elapsed = clock() - self.mark
            self.recent.append(calibrate())
            factor = REF_CAL_S / statistics.median(self.recent)
            self.ref += elapsed * (self.factor + factor) / 2
            self.wall += elapsed
            self.factor = factor
            self.mark = clock()
            self.pending = False
            self.ticks += 1
        finally:
            self.calibrating = False

    def settle(self) -> None:
        """Run a calibration deferred while an operation was running."""
        if self.pending:
            self._recalibrate()

    def now(self) -> float:
        while True:  # retry if a tick landed while reading
            ticks = self.ticks
            value = self.ref + (clock() - self.mark) * self.factor
            if ticks == self.ticks:
                return value

    @property
    def scale(self) -> float:
        """Reference seconds per wall-clock second so far."""
        return self.ref / self.wall if self.wall else self.factor


@dataclass
class Pass:
    """Outcome of one closed-loop pass of operations, in reference seconds."""

    attempted: int = 0
    latencies: list[float] = field(default_factory=list)  # completed operations
    inputs: list[int] = field(default_factory=list)  # the input each latency is for
    errors: dict[str, int] = field(default_factory=dict)
    units: int = 0  # primes handled by completed operations
    busy_s: float = 0.0  # time inside operations, failed ones included
    rendered: int = 0

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.completed


def run_ops(wl, rc: RefClock, count: int | None = None, seconds: float | None = None) -> Pass:
    """Run operations 0, 1, ... until `count` are done or `seconds` of wall time have passed.

    A time-bounded run stops only at a multiple of `wl.block` operations.
    """
    out = Pass()
    gc.collect()
    deadline = clock() + seconds if seconds is not None else math.inf
    i = 0
    while (count is None or i < count) and (i % wl.block or i == 0 or clock() < deadline):
        rc.op_start = clock()
        t0 = rc.now()
        try:
            result, error = wl.op(i), None
        except Exception as exc:  # a failed operation is counted, never fatal
            result, error = None, type(exc).__name__
            if error not in out.errors:
                traceback.print_exc(file=sys.stderr)
        dt = rc.now() - t0
        rc.op_start = None
        out.attempted += 1
        out.busy_s += dt
        if error is None:
            out.latencies.append(dt)
            out.inputs.append(wl.input_of(i))
            out.units += wl.units(result)
            out.rendered += wl.rendered_bytes(result)
        else:
            out.errors[error] = out.errors.get(error, 0) + 1
        wl.record(i, result, error)
        rc.settle()
        i += 1
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def input_latencies(p: Pass) -> list[float]:
    """Each distinct input's median latency over the operations that ran it.

    Query lists are cycled and a scan repeats one input, so an input can run
    several times in a run; taking its median keeps a brief stall of the
    shared machine from becoming a tail latency.
    """
    by_input: dict[int, list[float]] = {}
    for key, dt in zip(p.inputs, p.latencies):
        by_input.setdefault(key, []).append(dt)
    return [statistics.median(v) for v in by_input.values()]


def end_to_end(p: Pass, setups: list[float], peak_rss_mb: float) -> dict:
    lat = input_latencies(p)
    return {
        "primes_per_s": (p.units / p.busy_s, "1/s"),
        "queries_per_s": (p.completed / p.busy_s, "1/s"),
        "query_p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
        "query_p90_ms": (percentile(lat, 0.90) * 1e3, "ms"),
        "query_p99_ms": (percentile(lat, 0.99) * 1e3, "ms"),
        "success_rate": (p.completed / p.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


ERROR_CLASSES = ("OverflowError", "DomainError", "AssertionError")


def per_layer(tr, ref: Pass, traced: Pass, errors: dict[str, int]) -> dict:
    units = traced.units or 1

    self_s = tr.self_s

    def layer(name: str, calls: bool = False, per_op: bool = False) -> dict:
        out = {f"{name}.s": (self_s(name), "s")}
        if calls:
            out[f"{name}.calls"] = (tr.calls(name), "count")
        if per_op:
            out[f"{name}.calls_per_op"] = (tr.calls(name) / units, "count")
        return out

    m: dict = {}
    m.update(layer("primes.is_prime", calls=True, per_op=True))
    m["primes.sieve_s"] = (self_s("primes.sieve"), "s")
    m["modmath.context.builds"] = (tr.calls("modmath.context"), "count")
    m["modmath.context.s"] = (self_s("modmath.context"), "s")
    m.update(layer("modmath.power_class", calls=True))
    m.update(layer("modmath.find_order_p_element"))
    m.update(layer("eisenstein.represent_4n", calls=True, per_op=True))
    for name in ("eisenstein.split_prime", "eisenstein.gerth_matrix", "eisenstein.star_condition"):
        m.update(layer(name))
    m.update(layer("invariants.unit_product", calls=True))
    m.update(layer("invariants.alpha_count"))
    m.update(layer("invariants.m_i_class", calls=True, per_op=True))
    m.update(layer("invariants.m_class"))
    m.update(layer("invariants.mu_count"))
    m.update(layer("rank.rank3"))
    m["rank.rank3_methods.calls"] = (tr.calls("rank.rank3_methods"), "count")
    m.update(layer("rank.bounds"))
    m["scan.self_s"] = (self_s("scan.scan_rank3") + self_s("scan.scan_alpha"), "s")
    m["reporting.render.s"] = (self_s("reporting.render"), "s")
    m["reporting.render.bytes"] = (traced.rendered, "bytes")
    for cls in ERROR_CLASSES:
        m[f"errors.{cls}"] = (errors.get(cls, 0), "count")
    m["errors.other"] = (sum(v for k, v in errors.items() if k not in ERROR_CLASSES), "count")
    m["trace.ops"] = (traced.attempted, "count")
    m["trace.units"] = (traced.units, "count")
    m["trace.wall_s"] = (traced.busy_s, "s")
    m["trace.overhead_ratio"] = (traced.busy_s / ref.busy_s, "ratio")
    m["trace.coverage"] = (tr.root_s / traced.busy_s, "ratio")
    return m


def parse_args(argv: list[str] | None):
    from bench_workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cyclorank" / "__init__.py").is_file():
        print(f"error: cyclorank sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS, load_expected

    expected = load_expected()
    with RefClock() as rc:
        setups = []
        for _ in range(SETUPS if args.trace == 0 else 1):
            t0 = rc.now()
            cr = load_cyclorank()
            wl = WORKLOADS[args.workload](cr, args.seed, expected)
            setups.append(rc.now() - t0)

        if args.trace == 0:
            timed = run_ops(wl, rc, seconds=args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            ref = run_ops(wl, rc, count=wl.trace_ops)
            tracer = Tracer(cr, clock=rc.now)
            with tracer:
                traced = run_ops(wl, rc, count=wl.trace_ops)
            probe = getattr(wl, "probe_errors", None)
            probe_errors = probe() if probe is not None else {}
        scale = rc.scale

    if args.trace == 0:
        metrics = end_to_end(timed, setups, peak_rss_mb)
        attempted, failed = timed.attempted, timed.failed
    else:
        errors = dict(traced.errors)
        for k, v in probe_errors.items():
            errors[k] = errors.get(k, 0) + v
        metrics = per_layer(tracer, ref, traced, errors)
        attempted = ref.attempted + traced.attempted
        failed = ref.failed + traced.failed
        OUT_DIR.mkdir(exist_ok=True)
        dump = tracer.dump() | {"workload": args.workload, "seed": args.seed,
                                "metrics": {k: v for k, (v, _) in metrics.items()}}
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(dump, indent=1, sort_keys=True) + "\n")

    wl.oracle_check()
    for problem in wl.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    failed += len(wl.problems)
    correct = not wl.problems and attempted > failed

    print(f"# {args.workload} seed={args.seed} trace={args.trace} attempted={attempted} "
          f"failed={failed} digest={wl.digest()}")
    print(f"# python={platform.python_version()} numpy={sys.modules['numpy'].__version__} "
          f"cpus={os.cpu_count()}")
    if args.trace == 0:
        print(f"# latency samples n={timed.completed} over {len(set(timed.inputs))} distinct "
              f"inputs; setups n={len(setups)}; "
              f"error_rate={timed.failed / timed.attempted:.6f}")
    print(f"# reference seconds per wall-clock second: {scale:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:36s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
