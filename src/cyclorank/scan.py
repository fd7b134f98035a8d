"""Parallel density experiments over prime ranges with convergence reporting.

Rank-3 and alpha scans are one pipeline.  A scan sieves the primes N up to
its limit in chosen classes mod p^2, reads them in chunks of at most _CHUNK
primes, hands each chunk as an array to the scan's array kernel, which gives
one integer outcome per prime (the exact 3-rank, or alpha), and counts
(class, outcome).  The alpha kernel is invariants.alpha_counts; the rank-3
kernel takes the chunk's cube roots from one modmath.powers_table, then runs
the representation and the criterion on each N.  Work is split
into contiguous prime sub-ranges fixed by (limit, shards) alone: at most
sqrt(limit) shards, each cut again after every checkpoint threshold
10^3, 10^4, ..., limit, so no sub-range straddles a threshold.  The summary
is one fold over the sub-range tallies in range order: it keeps one
histogram per class, and one hit predicate (rank 2, or alpha > 0) gives the
checkpoint at each threshold a sub-range ends after, using exactly the
primes up to it, and the densities.  Summaries are bit-identical for any
shard or worker count.

Only O(sqrt(N)) per-prime work is allowed here; the O(N) paths (factorial
criterion, double-product invariants) are confined to bounded test sweeps.
A limit above primes.DEFAULT_SIEVE_CAP (2^30) is refused before any shard
sieves.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

from .eisenstein import cornacchia_4n
from .errors import DomainError
from .invariants import alpha_counts, require_regular
from .modmath import powers_table
from .primes import primes_in_range, require_within_cap
from .rank import rank3, rank3_criterion  # noqa: F401  (perfbench/: scan.rank3)

Tally = Counter[tuple[int, int]]  # (class residue, outcome) -> count
# int64 array of sieved N -> their 3-ranks or alphas, by an array kernel; no context
Outcome = Callable[[np.ndarray], np.ndarray]
_CHUNK = 4096  # primes per kernel call, few enough that the kernel's arrays stay small


def _is_hit(kind: str, outcome: int) -> bool:
    """The one hit predicate: rank 2 in a rank-3 scan, alpha > 0 in an alpha scan."""
    return outcome == 2 if kind == "rank3" else outcome > 0


def _worker_count(workers: int | None) -> int:
    """Explicit workers, else the CPU count; at most the CPU count."""
    cpus = os.cpu_count() or 1
    return cpus if workers is None else min(max(1, workers), cpus)


def _thresholds(limit: int) -> tuple[int, ...]:
    ts = []
    t = 1000
    while t < limit:
        ts.append(t)
        t *= 10
    ts.append(limit)
    return tuple(ts)


def _sub_ranges(limit: int, shards: int, thresholds: tuple[int, ...]) -> list[tuple[int, int]]:
    """Ordered [lo, hi) pairs covering [2, limit], cut at shard edges and after each threshold."""
    if shards < 1:
        raise DomainError(f"shard count must be at least 1, got {shards}")
    # a shard narrower than sqrt(limit) costs more in its base-prime sieve than in its range
    shards = min(shards, math.isqrt(limit))
    edges = {2 + (limit - 1) * i // shards for i in range(shards + 1)}
    cuts = sorted(edges | {t + 1 for t in thresholds})
    return list(zip(cuts, cuts[1:]))


def _rank3_outcomes(ns: np.ndarray) -> np.ndarray:
    """The rank-3 array kernel: the chunk's cube roots at once, then each N's representation."""
    roots = powers_table(ns, 3)[1].tolist()
    outcomes = (rank3_criterion(cornacchia_4n(n, t)) for n, t in zip(ns.tolist(), roots))
    return np.fromiter(outcomes, dtype=np.int64, count=ns.size)


def _shard(lo: int, hi: int, p: int, classes: tuple[int, ...], outcome: Outcome) -> Tally:
    # The caller has checked p; the sieve proves every n prime and = 1 (mod p).
    m = p * p
    tally: Tally = Counter()
    primes = primes_in_range(lo, hi, m, classes)
    while (ns := np.fromiter(islice(primes, _CHUNK), dtype=np.int64)).size:
        tally.update(zip((ns % m).tolist(), outcome(ns).tolist()))
    return tally


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
    """Per-class outcome histograms with logarithmic convergence checkpoints.

    hist maps each class (N mod p^2) to {outcome: count}.  The outcome is the
    3-rank for kind "rank3" and alpha for kind "alpha"; hits (checkpoints,
    density) are rank-2 primes and primes with alpha > 0 respectively.
    """

    kind: str
    p: int
    limit: int
    classes: tuple[int, ...]
    hist: dict[int, dict[int, int]]
    checkpoints: tuple[Checkpoint, ...]

    @property
    def class_modulus(self) -> int:
        return self.p * self.p

    @property
    def totals(self) -> dict[int, int]:
        return {c: sum(h.values()) for c, h in self.hist.items()}

    @property
    def total(self) -> int:
        return sum(self.totals.values())

    @property
    def rank2(self) -> dict[int, int] | None:
        """Rank-2 count per class, for rank-3 scans."""
        return {c: h.get(2, 0) for c, h in self.hist.items()} if self.kind == "rank3" else None

    @property
    def alpha_hist(self) -> dict[int, dict[int, int]] | None:
        """The alpha histogram per class, for alpha scans."""
        return self.hist if self.kind == "alpha" else None

    def tally(self, classes: tuple[int, ...] | None = None) -> Checkpoint:
        """Total and hits at the limit over the given scanned classes (default: all)."""
        if classes is None:
            classes = self.classes
        if not classes or any(c not in self.hist for c in classes):
            raise DomainError(f"classes must be a nonempty subset of {self.classes}, got {classes}")
        total = hits = 0
        for c in set(classes):  # a repeated class counts once
            for outcome, count in self.hist[c].items():
                total += count
                hits += count if _is_hit(self.kind, outcome) else 0
        return Checkpoint(self.limit, total, hits)

    def density(self, classes: tuple[int, ...] | None = None) -> float:
        """Final rank-2 (or alpha > 0) density over the given classes."""
        return self.tally(classes).density


def _build_summary(kind: str, p: int, limit: int, classes: tuple[int, ...],
                   thresholds: tuple[int, ...], ranges: list[tuple[int, int]],
                   tallies: list[Tally]) -> ScanSummary:
    hist: dict[int, dict[int, int]] = {c: {} for c in classes}
    ends = {t + 1: t for t in thresholds}  # each threshold ends exactly one sub-range
    total = hits = 0
    checkpoints = []
    for (_, hi), tally in zip(ranges, tallies):
        for (cls, outcome), c in tally.items():
            hist[cls][outcome] = hist[cls].get(outcome, 0) + c
            total += c
            hits += c if _is_hit(kind, outcome) else 0
        if hi in ends:
            checkpoints.append(Checkpoint(ends[hi], total, hits))
    return ScanSummary(kind, p, limit, classes, hist, tuple(checkpoints))


def _scan(kind: str, p: int, limit: int, classes: tuple[int, ...], outcome: Outcome,
          shards: int | None, workers: int | None) -> ScanSummary:
    """Sieve N <= limit in classes mod p^2, tally outcome(N), and summarize."""
    if limit < 100:
        raise DomainError("scan limit must be at least 100")
    require_within_cap(limit, "scan limit")
    workers_n = _worker_count(workers)
    thresholds = _thresholds(limit)
    ranges = _sub_ranges(limit, shards if shards is not None else workers_n, thresholds)
    run = functools.partial(_shard, p=p, classes=classes, outcome=outcome)
    if workers_n > 1 and len(ranges) > 1:
        with ProcessPoolExecutor(max_workers=min(workers_n, len(ranges))) as pool:
            tallies = list(pool.map(run, *zip(*ranges)))
    else:
        tallies = [run(lo, hi) for lo, hi in ranges]
    return _build_summary(kind, p, limit, classes, thresholds, ranges, tallies)


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
    classes = tuple(sorted(set(classes)))
    if not classes or any(c not in (1, 4, 7) for c in classes):
        raise DomainError(f"classes must be a nonempty subset of (1, 4, 7), got {classes}")
    return _scan("rank3", 3, limit, classes, _rank3_outcomes, shards, workers)


def scan_alpha(
    p: int,
    limit: int,
    shards: int | None = None,
    workers: int | None = None,
) -> ScanSummary:
    """Histogram of alpha over primes N = 1 (mod p) up to limit (regular p)."""
    require_regular(p)
    classes = tuple(range(1, p * p, p))  # every N = 1 (mod p)
    return _scan("alpha", p, limit, classes, functools.partial(alpha_counts, p=p), shards, workers)
