"""Parallel density experiments over prime ranges with convergence reporting.

Rank-3 and alpha scans are one pipeline.  A scan sieves the primes N up to
its limit in chosen classes mod p^2.  Every class is 1 (mod p), so the sieve
marks only cells N = 1 (mod 2p) (fewer when the classes share a longer
step), _SEGMENT cells (primes.py) at a time.  The scan reads the primes in
chunks sized by a cell budget, not a prime count: _CHUNK_CELLS // p primes.
It hands each chunk as an array to the scan's array kernel, which gives one
integer outcome per prime (the exact 3-rank, or alpha), and counts
(checkpoint, class, outcome) with one np.bincount per chunk, a prime's
checkpoint being the first threshold 10^3, 10^4, ..., limit at or above it.
The outcome axis is only as wide as the largest outcome seen plus one, not p
(to 10^7 alpha reaches 5 at p = 97 and 4 at p = 1019), and tallies of
unequal width are summed with the narrower one padded by zeros.
The alpha kernel is invariants.alpha_counts, whose widest array, the
(p, chunk) uint64 powers table, holds at most _CHUNK_CELLS cells (2 MB).  The
rank-3 kernel is rank.rank3_arrays, which enumerates the chunk's lattice
points that the criterion reads (eisenstein.rank3_lattice) and runs it once
per chunk on arrays; its widest arrays hold the points, about 2 to 3.5 per
prime over the three classes, and 3.3 to 5.2 for classes 4 and 7 alone.  Work
is split into at most sqrt(limit) contiguous prime sub-ranges fixed by
(limit, shards) alone.  The summary is the plain sum of their counts: summed
over checkpoints it is the histogram per class, and its cumulative sums, read
through one hit predicate (rank 2, or alpha > 0), give the checkpoints and
the densities.  An integer sum depends neither on the cuts nor on their
order, so summaries are bit-identical for any shard or worker count.

Only O(sqrt(N)) per-prime work is allowed here; the O(N) products (factorial
criterion, product invariants) serve single-N queries and refuse N above
primes.DEFAULT_SIEVE_CAP (2^30), the cap that refuses a larger scan limit
before any shard sieves.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

from .errors import DomainError
from .invariants import alpha_counts, require_regular
from .primes import primes_in_range, require_within_cap
from .rank import rank3, rank3_arrays  # noqa: F401  (perfbench/: scan.rank3)

# int64 array of sieved N -> their 3-ranks or alphas, by an array kernel; no context
Outcome = Callable[[np.ndarray], np.ndarray]
# primes a kernel call reads, times p: 87,381 at p = 3 and 2,702 at p = 97, so a kernel's
# fixed numpy cost is paid rarely.  The alpha kernel's (p, chunk) uint64 powers table then
# holds _CHUNK_CELLS cells (2 MB); the rank-3 kernel's widest arrays, the lattice points
# its criterion reads, about 2-3.5 per prime, up to 310k int64 (2.5 MB) at the 2^30 cap.
# Only the default classes 1, 4, 7 fit such a chunk in one lattice window (eisenstein._WINDOW);
# classes 4, 7 take two windows per chunk and a single class three
_CHUNK_CELLS = 1 << 18


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


def _sub_ranges(limit: int, shards: int) -> list[tuple[int, int]]:
    """Ordered [lo, hi) pairs covering [2, limit], cut at the shard edges only."""
    if shards < 1:
        raise DomainError(f"shard count must be at least 1, got {shards}")
    # The clamp bounds the edge list and the count of per-shard set-ups (base primes and
    # their strikes, a kernel window, a tally), about 1-1.5 ms each.  It is no break-even:
    # sqrt(limit) shards, each sqrt(limit) wide, cost far more than one shard.
    shards = min(shards, math.isqrt(limit))
    edges = [2 + (limit - 1) * i // shards for i in range(shards + 1)]
    return list(zip(edges, edges[1:]))


def _add_tallies(total: np.ndarray, part: np.ndarray) -> np.ndarray:
    """The sum of two (T, p, w) tallies, the narrower outcome axis padded with zeros; reuses one."""
    if total.shape[2] < part.shape[2]:
        total, part = part, total
    total[..., : part.shape[2]] += part
    return total


def _shard(lo: int, hi: int, p: int, classes: tuple[int, ...], thresholds: tuple[int, ...],
           outcome: Outcome) -> np.ndarray:
    """Counts of the primes in [lo, hi) by (checkpoint, class index, outcome), shape (T, p, w).

    w is one more than the largest outcome seen (0 for no prime), so at most p.
    """
    # The caller has checked p; the sieve proves every n prime and = 1 (mod p).
    m = p * p
    tally = np.zeros((len(thresholds), p, 0), dtype=np.int64)
    primes = primes_in_range(lo, hi, m, classes)
    while (ns := np.fromiter(islice(primes, _CHUNK_CELLS // p), dtype=np.int64)).size:
        out = outcome(ns)
        if (bad := (out < 0) | (out >= p)).any():  # the outcome axis is at most p wide
            raise AssertionError(f"outcome {out[bad][0]} at N={ns[bad][0]} is outside [0, {p})")
        # checkpoint: the first threshold >= N (the last is the limit); class index (N mod p^2) // p
        # (N mod p^2 as N - N // p^2 * p^2: numpy's floor division by a scalar beats np.remainder)
        width = int(out.max()) + 1
        key = (np.searchsorted(thresholds, ns) * p + (ns - ns // m * m) // p) * width + out
        counts = np.bincount(key, minlength=len(thresholds) * p * width)
        tally = _add_tallies(tally, counts.reshape(len(thresholds), p, width))
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
                   thresholds: tuple[int, ...], tally: np.ndarray) -> ScanSummary:
    # tally: the shards' (checkpoint, class index, outcome) counts, summed
    by_class = tally.sum(axis=0).tolist()
    hist = {c: {o: n for o, n in enumerate(by_class[c // p]) if n} for c in classes}
    hit = np.array([_is_hit(kind, o) for o in range(tally.shape[2])], dtype=bool)
    by_outcome = tally.sum(axis=1).cumsum(axis=0)  # primes up to each threshold, by outcome
    checkpoints = tuple(Checkpoint(t, int(row.sum()), int(row[hit].sum()))
                        for t, row in zip(thresholds, by_outcome))
    return ScanSummary(kind, p, limit, classes, hist, checkpoints)


def _scan(kind: str, p: int, limit: int, classes: tuple[int, ...], outcome: Outcome,
          shards: int | None, workers: int | None) -> ScanSummary:
    """Sieve N <= limit in classes mod p^2, tally outcome(N), and summarize."""
    if limit < 100:
        raise DomainError("scan limit must be at least 100")
    require_within_cap(limit, "scan limit")
    workers_n = _worker_count(workers)
    thresholds = _thresholds(limit)
    ranges = _sub_ranges(limit, shards if shards is not None else workers_n)
    run = functools.partial(_shard, p=p, classes=classes, thresholds=thresholds, outcome=outcome)
    # summed as they arrive, each padded to the widest outcome axis: up to sqrt(limit) arrays
    # of up to 8 p^2 counts are never all held
    if workers_n > 1 and len(ranges) > 1:
        with ProcessPoolExecutor(max_workers=min(workers_n, len(ranges))) as pool:
            tally = functools.reduce(_add_tallies, pool.map(run, *zip(*ranges)))
    else:
        tally = functools.reduce(_add_tallies, (run(lo, hi) for lo, hi in ranges))
    return _build_summary(kind, p, limit, classes, thresholds, tally)


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
    return _scan("rank3", 3, limit, classes, rank3_arrays, shards, workers)


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
