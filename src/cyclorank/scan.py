"""Parallel density experiments over prime ranges with convergence reporting.

Work is partitioned into contiguous prime sub-ranges whose boundaries depend
only on (limit, shards), and every per-prime outcome is accumulated into a
(threshold-bucket, class, outcome) counter.  Merging is therefore a plain sum
of integer counters: summaries are bit-identical for any shard or worker
count.  Checkpoints at 10^3, 10^4, ..., limit report the running density
using exactly the primes below each threshold.

Only O(sqrt(N)) per-prime work is allowed here; the O(N) paths (factorial
criterion, double-product invariants) are confined to bounded test sweeps.
A limit above primes.DEFAULT_SIEVE_CAP (2^30), the cap primes_in_class
applies, is refused before any shard sieves.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .eisenstein import cornacchia_4n
from .errors import DomainError
from .invariants import alpha_count, require_regular
from .modmath import ModulusContext, find_order_p_element
from .primes import primes_in_range, require_within_cap
from .rank import rank3, rank3_criterion, rank_window  # noqa: F401  (perfbench/: scan.rank3)

ENV_THREADS = "CYCLORANK_THREADS"

Counter = dict[tuple[int, int, int], int]  # (bucket, class residue, outcome) -> count


def _worker_count(workers: int | None) -> int:
    """Explicit workers, else CYCLORANK_THREADS, else the CPU count; at most the CPU count."""
    cpus = os.cpu_count() or 1
    if workers is None:
        env = os.environ.get(ENV_THREADS)
        if not env:
            return cpus
        try:
            workers = int(env)
        except ValueError:
            raise DomainError(f"{ENV_THREADS}={env!r} is not an integer") from None
    return min(max(1, workers), cpus)


def _thresholds(limit: int) -> tuple[int, ...]:
    ts = []
    t = 1000
    while t < limit:
        ts.append(t)
        t *= 10
    ts.append(limit)
    return tuple(ts)


def _bucket(n: int, thresholds: tuple[int, ...]) -> int:
    for t in thresholds:
        if n <= t:
            return t
    raise AssertionError(f"{n} beyond the scan limit {thresholds[-1]}")


def _shard_edges(limit: int, shards: int) -> list[tuple[int, int]]:
    if shards < 1:
        raise DomainError(f"shard count must be at least 1, got {shards}")
    edges = [2 + (limit - 1) * i // shards for i in range(shards + 1)]
    return [(edges[i], edges[i + 1]) for i in range(shards) if edges[i] < edges[i + 1]]


def _rank3_shard(args: tuple[int, int, tuple[int, ...], tuple[int, ...]]) -> Counter:
    lo, hi, classes, thresholds = args
    counts: Counter = {}
    # The sieve has proved every n prime and = 1 (mod 3): use the trusted kernel.
    for n in primes_in_range(lo, hi, 9, classes):
        key = (_bucket(n, thresholds), n % 9, rank3_criterion(cornacchia_4n(n)))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _alpha_shard(args: tuple[int, int, int, tuple[int, ...]]) -> Counter:
    lo, hi, p, thresholds = args
    counts: Counter = {}
    # scan_alpha has checked p; the sieve proves every n prime and = 1 (mod p).
    for n in primes_in_range(lo, hi, p, (1,)):
        ctx = ModulusContext.trusted(n, p)
        a = alpha_count(ctx, find_order_p_element(ctx)).alpha
        key = (_bucket(n, thresholds), n % (p * p), a)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _run_shards(worker, jobs: list, workers: int) -> Counter:
    merged: Counter = {}
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(worker, jobs))
    else:
        results = [worker(job) for job in jobs]
    for counts in results:
        for key, c in counts.items():
            merged[key] = merged.get(key, 0) + c
    return merged


@dataclass(frozen=True)
class Checkpoint:
    """Cumulative tally of scanned primes up to one threshold."""

    threshold: int
    total: int
    hits: int

    @property
    def density(self) -> float:
        return self.hits / self.total if self.total else 0.0


@dataclass(frozen=True)
class ScanSummary:
    """Aggregated per-class tallies with logarithmic convergence checkpoints.

    For kind "rank3", hits are rank-2 primes and rank2 maps each class to its
    rank-2 count.  For kind "alpha", hits are primes with alpha > 0 and
    alpha_hist maps each class to its alpha histogram.
    """

    kind: str
    p: int
    limit: int
    class_modulus: int
    classes: tuple[int, ...]
    totals: dict[int, int]
    rank2: dict[int, int] | None
    alpha_hist: dict[int, dict[int, int]] | None
    checkpoints: tuple[Checkpoint, ...]

    @property
    def total(self) -> int:
        return sum(self.totals.values())

    def density(self, classes: tuple[int, ...] | None = None) -> float:
        """Final rank-2 (or alpha > 0) density over the given classes."""
        keys = classes if classes is not None else self.classes
        total = sum(self.totals.get(c, 0) for c in keys)
        if self.kind == "rank3":
            hits = sum((self.rank2 or {}).get(c, 0) for c in keys)
        else:
            hits = sum(
                count
                for c in keys
                for a, count in (self.alpha_hist or {}).get(c, {}).items()
                if a > 0
            )
        return hits / total if total else 0.0

    def bounds_histogram(self) -> dict[tuple[int, int], int]:
        """Histogram of refined (lower, upper) windows implied by alpha."""
        out: dict[tuple[int, int], int] = {}
        for hist in (self.alpha_hist or {}).values():
            for a, count in hist.items():
                window = rank_window(self.p, a)
                out[window] = out.get(window, 0) + count
        return dict(sorted(out.items()))


def _build_summary(
    kind: str,
    p: int,
    limit: int,
    class_modulus: int,
    classes: tuple[int, ...],
    thresholds: tuple[int, ...],
    counts: Counter,
) -> ScanSummary:
    totals = {c: 0 for c in classes}
    rank2 = {c: 0 for c in classes} if kind == "rank3" else None
    alpha_hist: dict[int, dict[int, int]] | None = (
        {c: {} for c in classes} if kind == "alpha" else None
    )
    run_total = run_hits = 0  # keys sort by bucket first, so these run cumulatively
    reached: dict[int, tuple[int, int]] = {}
    for (bucket, cls, outcome), c in sorted(counts.items()):
        totals[cls] = totals.get(cls, 0) + c
        if rank2 is not None and outcome == 2:
            rank2[cls] = rank2.get(cls, 0) + c
        if alpha_hist is not None:
            hist = alpha_hist.setdefault(cls, {})
            hist[outcome] = hist.get(outcome, 0) + c
        run_total += c
        if (kind == "rank3" and outcome == 2) or (kind == "alpha" and outcome > 0):
            run_hits += c
        reached[bucket] = (run_total, run_hits)
    checkpoints = []
    last = (0, 0)
    for t in thresholds:  # a threshold with an empty bucket repeats the previous tally
        last = reached.get(t, last)
        checkpoints.append(Checkpoint(t, *last))
    return ScanSummary(
        kind=kind,
        p=p,
        limit=limit,
        class_modulus=class_modulus,
        classes=classes,
        totals=totals,
        rank2=rank2,
        alpha_hist=alpha_hist,
        checkpoints=tuple(checkpoints),
    )


def scan_rank3(
    limit: int,
    classes: tuple[int, ...] = (1, 4, 7),
    shards: int | None = None,
    workers: int | None = None,
) -> ScanSummary:
    """Exact 3-rank tallies over primes N = 1 (mod 3) up to limit.

    classes selects residues of N mod 9 from {1, 4, 7}; the expected limiting
    rank-2 density is 1/3 in each class.
    """
    if limit < 100:
        raise DomainError("scan limit must be at least 100")
    require_within_cap(limit, "scan limit")
    classes = tuple(sorted(set(classes)))
    if not classes or any(c not in (1, 4, 7) for c in classes):
        raise DomainError(f"classes must be a nonempty subset of (1, 4, 7), got {classes}")
    workers_n = _worker_count(workers)
    shards_n = shards if shards is not None else workers_n
    thresholds = _thresholds(limit)
    jobs = [(lo, hi, classes, thresholds) for lo, hi in _shard_edges(limit, shards_n)]
    counts = _run_shards(_rank3_shard, jobs, workers_n)
    return _build_summary("rank3", 3, limit, 9, classes, thresholds, counts)


def scan_alpha(
    p: int,
    limit: int,
    shards: int | None = None,
    workers: int | None = None,
) -> ScanSummary:
    """Histogram of alpha over primes N = 1 (mod p) up to limit (regular p)."""
    require_regular(p)
    if limit < 100:
        raise DomainError("scan limit must be at least 100")
    require_within_cap(limit, "scan limit")
    workers_n = _worker_count(workers)
    shards_n = shards if shards is not None else workers_n
    thresholds = _thresholds(limit)
    classes = tuple(range(1, p * p, p))
    jobs = [(lo, hi, p, thresholds) for lo, hi in _shard_edges(limit, shards_n)]
    counts = _run_shards(_alpha_shard, jobs, workers_n)
    return _build_summary("alpha", p, limit, p * p, classes, thresholds, counts)
