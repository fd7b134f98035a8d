import hashlib
import os

import pytest

from cyclorank.errors import DomainError
from cyclorank.modmath import ModulusContext
from cyclorank.primes import primes_in_class
from cyclorank.rank import bounds, rank3
from cyclorank.reporting import render
from cyclorank.scan import _worker_count, scan_alpha, scan_rank3


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


def test_shard_invariance_bit_identical():
    base = scan_rank3(20000, (1, 4, 7), shards=1, workers=1)
    for shards in (2, 5, 16, 10**18):  # any count: it is clamped to sqrt(limit)
        other = scan_rank3(20000, (1, 4, 7), shards=shards, workers=1)
        assert other == base
        assert render(other, "csv") == render(base, "csv")
        assert render(other, "json") == render(base, "json")


def test_worker_pool_matches_serial():
    serial = scan_rank3(30000, (4, 7), shards=4, workers=1)
    pooled = scan_rank3(30000, (4, 7), shards=4, workers=2)
    assert pooled == serial


def test_alpha_worker_pool_matches_serial():
    serial = scan_alpha(7, 30000, shards=1, workers=1)
    pooled = scan_alpha(7, 30000, shards=4, workers=2)
    assert pooled == serial
    assert render(pooled, "json") == render(serial, "json")


# sha256 of the published CSV and JSON of three scans: any change to these
# digests is a change of the output format.
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
    ],
    ids=["rank3", "alpha5", "alpha7"],
)
def test_scan_output_bytes_are_pinned(scan, csv_digest, json_digest):
    summary = scan()
    for fmt, want in (("csv", csv_digest), ("json", json_digest)):
        assert hashlib.sha256(render(summary, fmt).encode()).hexdigest() == want, fmt


def _brute_prefix(threshold, p, classes, outcome, hit):
    total = hits = 0
    for n in primes_in_class(threshold, p * p, set(classes)):
        total += 1
        hits += hit(outcome(n))
    return total, hits


def _alpha_euler(n, p):
    # alpha by Euler's criterion on each U_k in F_N, independent of the scan's linear form
    f = ModulusContext(n, p).root
    alpha = 0
    for k in range(2, p - 2, 2):
        u = 1
        for j in range(1, p):
            u = u * pow(1 - pow(f, j, n), j**k, n) % n
        alpha += pow(u, (n - 1) // p, n) == 1
    return alpha


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
    # every context is a checked one; a scan, whose sieve proves N prime, takes each
    # chunk's roots from modmath.powers_table and builds none
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
