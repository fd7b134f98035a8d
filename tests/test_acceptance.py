"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured densities.
"""

import time
from pathlib import Path

from cyclorank.eisenstein import represent_4n, represent_4n_bruteforce
from cyclorank.invariants import alpha_count, m_class_direct, product_classes
from cyclorank.modmath import ModulusContext, factorial_mod
from cyclorank.primes import primes_in_class
from cyclorank.rank import bounds, rank3, rank3_detail
from cyclorank.scan import scan_rank3
from cyclorank.validation import ingest_truth

FIXTURE = Path(__file__).parent / "data" / "truth_p3.csv"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_wilson_jacobi_identity():
    t0 = time.time()
    bad = []
    for n in primes_in_class(50_000, 3, {1}):
        rep = represent_4n(n)
        ctx = ModulusContext(n, 3)
        cube = pow(factorial_mod((n - 1) // 3, ctx), 3, n)
        if rep.A * cube % n != 1:
            bad.append(n)
    _report(1, not bad, f"A*(((N-1)/3)!)^3 = 1 exact to 50000 ({time.time()-t0:.1f}s)")


def test_c02_density_classes_4_7():
    t0 = time.time()
    density = scan_rank3(10**6, (4, 7)).density()
    _report(
        2,
        0.313 <= density <= 0.353,
        f"rank-2 density {density:.4f} in [0.313, 0.353] for N=4,7 (mod 9) "
        f"at 10^6 ({time.time()-t0:.1f}s)",
    )


def test_c03_density_class_1():
    t0 = time.time()
    density = scan_rank3(10**6, (1,)).density()
    _report(
        3,
        0.303 <= density <= 0.363,
        f"rank-2 density {density:.4f} in [0.303, 0.363] for N=1 (mod 9) "
        f"at 10^6 ({time.time()-t0:.1f}s)",
    )


def test_c04_criterion_chain_exactness():
    t0 = time.time()
    disagreements = 0
    total = 0
    for n in primes_in_class(10**5, 9, {4, 7}):
        total += 1
        results = rank3_detail(n, "all")[2]
        if set(results) != {"cornacchia", "gerth", "star"} or len(set(results.values())) != 1:
            disagreements += 1
    _report(
        4,
        disagreements == 0 and total > 0,
        f"cornacchia=gerth=star over {total} primes to 10^5 ({time.time()-t0:.1f}s)",
    )


def test_c05_factorial_oracle_agreement():
    t0 = time.time()
    disagreements = 0
    total = 0
    for n in primes_in_class(30_000, 9, {1}):
        total += 1
        if rank3(n, "cornacchia") != rank3(n, "factorial"):
            disagreements += 1
    _report(
        5,
        disagreements == 0 and total > 0,
        f"9th-power vs factorial methods agree over {total} primes to 3*10^4 "
        f"({time.time()-t0:.1f}s)",
    )


def test_c06_representation_oracle():
    t0 = time.time()
    bad = 0
    total = 0
    for n in primes_in_class(10**4, 3, {1}):
        total += 1
        if represent_4n(n) != represent_4n_bruteforce(n):  # bruteforce asserts uniqueness
            bad += 1
    _report(6, bad == 0, f"representation matches exhaustive search for {total} primes "
                         f"to 10^4 ({time.time()-t0:.1f}s)")


def test_c07_m_m1_equivalence():
    t0 = time.time()
    counterexamples = 0
    total = 0
    for p in (5, 7):
        for n in primes_in_class(20_000, p, {1}):
            total += 1
            pc = product_classes(ModulusContext(n, p))
            if (pc.m.index == 0) != (pc.mi[1].index == 0):
                counterexamples += 1
    _report(7, counterexamples == 0,
            f"M p-th power iff M_1 is, p in {{5,7}}, {total} primes to 2*10^4 "
            f"({time.time()-t0:.1f}s)")


def test_c08_converse_failure_instance():
    ctx = ModulusContext(337, 7)
    sieve_cls = product_classes(ctx).m
    direct_cls = m_class_direct(ctx, ctx.root)  # independent O(N) evaluation
    _report(8, sieve_cls.index != 0 and sieve_cls == direct_cls,
            f"M is not a 7th power at N=337 (index {sieve_cls.index}, oracle agrees)")


def _alpha_direct(n: int, p: int, f: int) -> int:
    """alpha against the order-p element f: U_k in F_N for even k, then Euler's criterion."""
    alpha = 0
    for k in range(2, p - 2, 2):
        u = 1
        for j in range(1, p):
            u = u * pow(1 - pow(f, j, n), j**k, n) % n
        alpha += pow(u, (n - 1) // p, n) == 1
    return alpha


def test_c09_f_independence_of_alpha():
    t0 = time.time()
    failures = 0
    total = 0
    for p in (3, 5, 7):
        for n in primes_in_class(10**4, p, {1}):
            ctx = ModulusContext(n, p)
            alpha = alpha_count(ctx).alpha  # against ctx.root
            elements = {pow(ctx.root, e, n) for e in range(1, p)}
            assert len(elements) == p - 1
            total += 1
            if any(_alpha_direct(n, p, f) != alpha for f in elements):
                failures += 1
    _report(9, failures == 0,
            f"alpha identical for every order-p element, p in {{3,5,7}}, "
            f"{total} primes to 10^4 ({time.time()-t0:.1f}s)")


def test_c10_bound_envelopes():
    t0 = time.time()
    ok3 = True
    for n in primes_in_class(10**5, 3, {1}):
        r = bounds(n, 3)
        if (r.lower, r.upper) != (1, 2) or r.exact_rank3 not in (1, 2):
            ok3 = False
    seen5 = set()
    for n in primes_in_class(10**5, 5, {1}):
        r = bounds(n, 5)
        seen5.add((r.lower, r.upper))
    ok5 = seen5 <= {(2, 8), (3, 12)}
    _report(10, ok3 and ok5,
            f"p=3 always (1,2); p=5 windows {sorted(seen5)} within {{(2,8),(3,12)}} "
            f"to 10^5 ({time.time()-t0:.1f}s)")


def test_c11_validation_pipeline(tmp_path):
    report = ingest_truth(FIXTURE)
    clean = report.ok and report.rank3_rows >= 50 and report.matches == report.rank3_rows
    classes = {1, 4, 7} <= {row % 9 for row in _fixture_primes()}

    lines = FIXTURE.read_text().strip().split("\n")
    lines.append("61,3,1")  # deliberately corrupted: prediction is 2
    bad_path = tmp_path / "corrupted.csv"
    bad_path.write_text("\n".join(lines) + "\n")
    bad_report = ingest_truth(bad_path)
    flagged = (
        len(bad_report.mismatches) == 1
        and bad_report.mismatches[0].n == 61
        and bad_report.mismatches[0].line == len(lines)
    )
    _report(11, clean and classes and flagged,
            f"fixture of {report.rank3_rows} rows validates clean; corrupted row "
            f"flagged at line {bad_report.mismatches[0].line if bad_report.mismatches else '?'}")


def _fixture_primes():
    out = []
    for line in FIXTURE.read_text().strip().split("\n"):
        if line.startswith("#") or line.startswith("N"):
            continue
        out.append(int(line.split(",")[0]))
    return out
