import hashlib
import math
import os

import numpy as np
import pytest

import cyclorank
from cyclorank.errors import DomainError
from cyclorank.modmath import ModulusContext
from cyclorank.primes import primes_in_class
from cyclorank.rank import bounds, rank3
from cyclorank.reporting import render
from cyclorank.scan import _shard, _worker_count, scan_alpha, scan_rank3
from oracles import euler_flags, three_is_a_cube


def test_scan_matches_single_threaded_reference():
    summary = scan_rank3(1000, (4, 7), shards=1, workers=1)
    totals = {4: 0, 7: 0}
    rank2 = {4: 0, 7: 0}
    for n in primes_in_class(1000, 9, {4, 7}):
        totals[n % 9] += 1
        if rank3(n) == 2:
            rank2[n % 9] += 1
    assert summary.totals == totals
    assert summary.rank2 == rank2
    assert summary.total == sum(totals.values())


def test_cubic_character_of_3_counts_the_rank_two_primes():
    # Jacobi: for N = 4, 7 (mod 9) the rank is 2 iff 3 is a cube mod N, one power per
    # prime that shares no step with the scan's lattice kernel
    ns = np.fromiter(primes_in_class(10**7, 9, {4, 7}), dtype=np.int64)
    assert ns.size == 221422
    cube = three_is_a_cube(ns)
    counts = {c: int(cube[ns % 9 == c].sum()) for c in (4, 7)}
    assert counts == scan_rank3(10**7, (4, 7), shards=1, workers=1).rank2 == {4: 36929, 7: 36932}


def test_shard_invariance_bit_identical():
    scans = [
        (lambda shards: scan_rank3(20000, (1, 4, 7), shards=shards, workers=1), (2, 5, 16, 10**18)),
        # p = 97: the largest vetted p, so the largest (checkpoint, class, outcome) tally
        (lambda shards: scan_alpha(97, 10**6, shards=shards, workers=1), (3, 10**18)),
    ]
    for scan, shard_counts in scans:
        base = scan(1)
        for shards in shard_counts:  # any count: it is clamped to sqrt(limit)
            other = scan(shards)
            assert other == base
            assert render(other, "csv") == render(base, "csv")
            assert render(other, "json") == render(base, "json")


def test_worker_pool_matches_serial():
    serial = scan_rank3(30000, (4, 7), shards=4, workers=1)
    pooled = scan_rank3(30000, (4, 7), shards=4, workers=2)
    assert pooled == serial


def test_alpha_worker_pool_matches_serial():
    for p, limit in ((7, 30000), (97, 10**6)):
        serial = scan_alpha(p, limit, shards=1, workers=1)
        pooled = scan_alpha(p, limit, shards=4, workers=2)
        assert pooled == serial
        assert render(pooled, "csv") == render(serial, "csv")
        assert render(pooled, "json") == render(serial, "json")


def test_kernel_batch_cuts_do_not_change_a_scan(monkeypatch):
    # at the default cell budget each shard of these scans is one kernel batch; a budget
    # of one prime, then of a few (a budget that p does not divide), cuts every shard
    scans = {3: lambda shards: scan_rank3(20000, (1, 4, 7), shards=shards, workers=1),
             5: lambda shards: scan_alpha(5, 20000, shards=shards, workers=1),
             13: lambda shards: scan_alpha(13, 20000, shards=shards, workers=1)}
    default = {(p, shards): scan(shards) for p, scan in scans.items() for shards in (1, 3)}
    sizes = []

    def counted(kernel):
        def run(ns, **kw):
            sizes.append(ns.size)
            return kernel(ns, **kw)
        return run

    monkeypatch.setattr(cyclorank.scan, "rank3_arrays", counted(cyclorank.scan.rank3_arrays))
    monkeypatch.setattr(cyclorank.scan, "alpha_counts", counted(cyclorank.scan.alpha_counts))
    for p, scan in scans.items():
        for per_call in (1, 5):
            monkeypatch.setattr(cyclorank.scan, "_CHUNK_CELLS", per_call * p + p - 1)
            for shards in (1, 3):
                sizes.clear()
                summary = scan(shards)
                assert summary == default[p, shards]
                for fmt in ("csv", "json"):
                    assert render(summary, fmt) == render(default[p, shards], fmt)
                assert max(sizes) == per_call and sum(sizes) == summary.total, (p, shards)


# sha256 of the published CSV and JSON of five scans: any change to the three small
# scans' digests is a change of the output format.  The alpha scans to 10^7 (166,104
# primes at p = 5, 55,376 at p = 13) span several kernel batches of one shard; their
# digests were recorded from the right-to-left powmod with np.where.
@pytest.mark.parametrize(
    "scan, csv_digest, json_digest",
    [
        (lambda: scan_rank3(20000, (1, 4, 7), shards=1, workers=1),
         "9f1f1643d5a6befabe2e81565ff91ac6cb69debbcbe8a4bc47221b09d8b06812",
         "c9d9cb31aae2216b6012384a6969928288caa4aef50921c1bee5165fc4489bdb"),
        (lambda: scan_alpha(5, 20000, shards=1, workers=1),
         "43a973d06cfe19a5a568a312ecc666a73257b407b2b1fb11930e8f0ae333761a",
         "cd7ad169930cadc49aa0eaf2abfabf0485dbafe37e360ac523b735c089300bdd"),
        (lambda: scan_alpha(7, 20000, shards=1, workers=1),
         "d382c0b95be304151730664b53bbc3fe94a843cc0cea0d4f6578cdf8f765c4a2",
         "f3a34b5ccc199a6edd6f64ea175d83157367f10837114591987d24d6fd1b2f6b"),
        (lambda: scan_alpha(5, 10**7, shards=1, workers=1),
         "46ecb61e0b34d83de8b6d8fedda40b5256b616ac07c59fa071c28cf0a4e3d82c",
         "3fe2151fe0b0c54f57a75f527e9fbf50fe608ffad8149ff014da8c2e59298cb5"),
        (lambda: scan_alpha(13, 10**7, shards=1, workers=1),
         "3687822a512a2baf42b8bcb202fd421c56d86eaed5cf7e6ca0bbd6458369d95d",
         "33216f1f8a4a3f0f81359e0cd38bcf4b804b80990028d1d98feb564f99c74d98"),
    ],
    ids=["rank3", "alpha5", "alpha7", "alpha5_1e7", "alpha13_1e7"],
)
def test_scan_output_bytes_are_pinned(scan, csv_digest, json_digest):
    summary = scan()
    for fmt, want in (("csv", csv_digest), ("json", json_digest)):
        assert hashlib.sha256(render(summary, fmt).encode()).hexdigest() == want, fmt


def test_rank3_scan_bytes_at_ten_million_are_pinned():
    # 332,194 primes in four kernel batches of one shard; the digests were recorded
    # from the kernel that ran cube roots and Cornacchia, which the lattice replaced
    summary = scan_rank3(10**7, (1, 4, 7), shards=1, workers=1)
    for fmt, want in (
        ("csv", "992e31d774bf1355a93f1d967219a3a37be8092b6c9afbd53c2ca801f178df82"),
        ("json", "e9198b1a924ebce381c4c7d12951b91a1424712b9356ed19181939a560a23451"),
    ):
        assert hashlib.sha256(render(summary, fmt).encode()).hexdigest() == want, fmt


def _brute_prefix(threshold, p, classes, outcome, hit):
    total = hits = 0
    for n in primes_in_class(threshold, p * p, set(classes)):
        total += 1
        hits += hit(outcome(n))
    return total, hits


def _alpha_euler(n, p):
    # alpha by Euler's criterion on each U_k in F_N, independent of the scan's linear form
    return sum(euler_flags(n, p, ModulusContext(n, p).root).values())


def test_checkpoints_are_exact_prefixes():
    # limits on, just past and between thresholds (10111 is a prime = 1 mod 15, so it
    # counts in its own checkpoint in both scans); shard edges that do and do not meet them
    for limit in (1000, 10000, 10001, 10111, 25000):
        want = [t for t in (1000, 10000) if t < limit] + [limit]
        for shards in (1, 3, 7):
            scans = [
                (scan_rank3(limit, (1, 4, 7), shards=shards, workers=1), rank3,
                 lambda r: r == 2),
                (scan_alpha(5, limit, shards=shards, workers=1), lambda n: _alpha_euler(n, 5),
                 lambda a: a > 0),
            ]
            for summary, outcome, hit in scans:
                assert [c.threshold for c in summary.checkpoints] == want
                for cp in summary.checkpoints:
                    brute = _brute_prefix(cp.threshold, summary.p, summary.classes, outcome, hit)
                    assert (cp.total, cp.hits) == brute, (summary.kind, limit, shards, cp)
                last = summary.checkpoints[-1]
                assert summary.density() == last.density
                assert last.total == summary.total


def test_scans_build_no_context(monkeypatch):
    # every context is a checked one; a scan, whose sieve proves N prime, builds none:
    # the alpha scan takes each chunk's roots from modmath.powers_table, and the rank-3
    # scan reads no root
    builds = []
    real_init = ModulusContext.__post_init__

    def counted_init(ctx):
        builds.append((ctx.modulus, ctx.p))
        real_init(ctx)

    monkeypatch.setattr(ModulusContext, "__post_init__", counted_init)
    assert scan_alpha(7, 30000, workers=1).total > 0
    assert scan_rank3(30000, workers=1).total > 0
    assert builds == []
    assert bounds(211, 5).alpha == 1
    assert builds == [(211, 5)]


def test_rank3_scan_runs_no_scalar_kernel(monkeypatch):
    # the scan hands each chunk to rank.rank3_arrays; the per-prime Cornacchia and
    # criterion serve point queries only
    def refuse(*args):
        raise AssertionError("scalar kernel called by the scan")

    monkeypatch.setattr(cyclorank.eisenstein, "split_of", refuse)
    monkeypatch.setattr(cyclorank.rank, "rank3_criterion", refuse)
    assert scan_rank3(20000, (1, 4, 7), shards=3, workers=1).total == 1124


@pytest.mark.parametrize("bad", [-1, 3])
def test_shard_refuses_an_outcome_outside_the_packed_key(bad):
    # the tally packs (checkpoint, class, outcome) into one bincount key, so 0 <= outcome < p
    with pytest.raises(AssertionError, match="outside \\[0, 3\\)"):
        _shard(2, 1000, 3, (1, 4, 7), (1000,), lambda ns: np.full(ns.size, bad))


def test_scan_sieves_the_shard_edges_only(monkeypatch):
    # the checkpoint is part of the tally key, so no sub-range is cut at a threshold
    sieved = []
    real = cyclorank.scan.primes_in_range

    def counted(lo, hi, *args):
        sieved.append((lo, hi))
        return real(lo, hi, *args)

    monkeypatch.setattr(cyclorank.scan, "primes_in_range", counted)
    scan_rank3(25000, (1, 4, 7), shards=3, workers=1)
    assert sieved == [(2, 8335), (8335, 16668), (16668, 25001)]
    sieved.clear()
    scan_rank3(25000, (1, 4, 7), shards=10**18, workers=1)
    assert len(sieved) == math.isqrt(25000) == 158


def test_scan_validation():
    with pytest.raises(DomainError):
        scan_rank3(50, (4, 7))
    with pytest.raises(DomainError):
        scan_rank3(1000, (2, 4))
    with pytest.raises(DomainError):
        scan_rank3(1000, ())
    # a class that was not scanned has no density, not a density of 0
    rank3_summary = scan_rank3(1000, (4, 7), shards=1, workers=1)
    alpha_summary = scan_alpha(5, 1000, shards=1, workers=1)
    for summary, classes in ((rank3_summary, (1,)), (rank3_summary, ()),
                             (rank3_summary, (4, 1)), (alpha_summary, (2,))):
        for query in (summary.tally, summary.density):
            with pytest.raises(DomainError, match="subset"):
                query(classes)
    # a repeated class counts once, as in scan_rank3's own classes argument
    assert rank3_summary.tally((4, 4)) == rank3_summary.tally((4,))
    assert rank3_summary.tally((4, 4)).total == rank3_summary.totals[4]
    assert rank3_summary.density((4, 4, 7)) == rank3_summary.density((4, 7))
    with pytest.raises(DomainError, match="regular"):
        scan_alpha(37, 1000)
    for p in (2, 9):  # rejected by the guard, not by a per-prime check
        with pytest.raises(DomainError, match="regular"):
            scan_alpha(p, 1000)
    # the 2^30 sieve cap of primes_in_class, enforced before any shard sieves
    with pytest.raises(DomainError, match="cap"):
        scan_rank3(2**40, (4, 7), shards=1, workers=1)
    with pytest.raises(DomainError, match="cap"):
        scan_alpha(5, 2**40, shards=1, workers=1)


@pytest.mark.parametrize("shards", [0, -3])
def test_scan_rejects_shard_counts_below_one(shards):
    with pytest.raises(DomainError, match="shard count"):
        scan_rank3(1000, (4, 7), shards=shards, workers=1)
    with pytest.raises(DomainError, match="shard count"):
        scan_alpha(5, 1000, shards=shards, workers=1)


def test_worker_count_env_and_clamp(monkeypatch):
    # starts no process: the default comes from the machine's CPU count, and
    # the clamp is read off _worker_count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _worker_count(None) == 2
    assert _worker_count(64) == 2
    assert _worker_count(0) == 1


def _csv_windows(summary):
    # the alpha CSV's (lower, upper) columns, counts summed over classes
    out = {}
    for row in render(summary, "csv").splitlines()[1:]:
        _, _, _, lo, hi, count = map(int, row.split(","))
        out[lo, hi] = out.get((lo, hi), 0) + count
    return out


def test_scan_alpha_p3_all_zero():
    summary = scan_alpha(3, 20000, shards=2, workers=1)
    for hist in summary.alpha_hist.values():
        assert set(hist) <= {0}
    assert summary.density() == 0.0
    assert _csv_windows(summary) == {(1, 2): summary.total}


def test_scan_alpha_p5_populates_both_bins():
    summary = scan_alpha(5, 10000, shards=3, workers=1)
    assert summary.classes == (1, 6, 11, 16, 21)
    merged = {}
    for hist in summary.alpha_hist.values():
        for a, c in hist.items():
            merged[a] = merged.get(a, 0) + c
    assert set(merged) == {0, 1}
    assert merged[0] > 0 and merged[1] > 0
    assert _csv_windows(summary) == {(2, 8): merged[0], (3, 12): merged[1]}
    assert summary == scan_alpha(5, 10000, shards=1, workers=1)


def test_scan_alpha_totals_partition_scan():
    summary = scan_alpha(5, 5000, shards=2, workers=1)
    want = sum(1 for _ in primes_in_class(5000, 5, {1}))
    assert summary.total == want
    assert sum(summary.totals.values()) == want
