import dataclasses
import random
import time

import numpy as np
import pytest

import cyclorank.eisenstein
from cyclorank.eisenstein import GerthMatrix, rank3_lattice, represent_4n, split_prime
from cyclorank.errors import DomainError
from cyclorank.invariants import alpha_count
from cyclorank.modmath import ModulusContext
from cyclorank.primes import DEFAULT_SIEVE_CAP, primes_in_class, primes_in_range
from cyclorank.rank import RankReport, bounds, rank3, rank3_arrays, rank3_detail
from cyclorank.validation import TruthRow, validate_rows
from oracles import euler_flags, prime_walk, random_split_primes, three_is_a_cube


def test_rank3_examples():
    assert rank3(7) == 1
    assert rank3(61) == 2
    assert rank3(19) == 1
    assert rank3(7, "all") == 1
    assert rank3(61, "all") == 2
    assert rank3(19, "all") == 1


def test_rank3_method_validity():
    assert set(rank3_detail(7, "all")[2]) == {"cornacchia", "gerth", "star"}
    assert set(rank3_detail(19, "all")[2]) == {"cornacchia", "factorial"}
    with pytest.raises(DomainError, match="not valid"):
        rank3(19, "gerth")
    with pytest.raises(DomainError, match="not valid"):
        rank3(19, "star")
    with pytest.raises(DomainError, match="not valid"):
        rank3(7, "factorial")
    with pytest.raises(DomainError, match="unknown method"):
        rank3(7, "magic")
    with pytest.raises(DomainError, match="unknown method"):
        rank3(7, "cube")  # the guard row is no method
    with pytest.raises(DomainError):
        rank3(5)
    with pytest.raises(DomainError):
        rank3(3)


def test_rank3_methods_agree():
    for n in primes_in_class(20000, 3, {1}):
        results = rank3_detail(n, "all")[2]
        assert len(set(results.values())) == 1, (n, results)


@pytest.mark.parametrize(
    "lo, hi", [(2, 2 * 10**5), (DEFAULT_SIEVE_CAP - 2 * 10**6, DEFAULT_SIEVE_CAP + 1)]
)
def test_rank3_arrays_match_the_scalar_path(lo, hi):
    # the scan's lattice kernel against the point-query path, which shares no step with
    # it (Cornacchia from a cube root of unity), on every prime N = 1 (mod 3) of the
    # range: the lattice's A against represent_4n's at every N the kernel reads (every
    # N = 1 (mod 9), and N = 4, 7 (mod 9) where 3 | B) and 0 at the rest, the rank
    # against rank3, each class mod 9 on its own; the second range is the width edge of
    # the int64 / uint64 arithmetic
    ns = np.fromiter(primes_in_range(lo, hi, 3, {1}), dtype=np.int64)
    for c in (1, 4, 7):
        cls = ns[ns % 9 == c]
        a = rank3_lattice(cls)
        ranks = rank3_arrays(cls)
        assert a.dtype == ranks.dtype == np.int64 and cls.size > 1000
        for n, got, rank in zip(cls.tolist(), a.tolist(), ranks.tolist()):
            want, split, _ = rank3_detail(n)  # rank3(n), from the split represent_4n reads
            read = c == 1 or split.rep.B % 3 == 0
            assert got == (split.rep.A if read else 0) and rank == want, n
        if c == 1:
            assert {2, 1} == set(ranks.tolist())  # the ninth-power test decides both ways
    # one call over the three classes gives each class's answers
    whole = rank3_arrays(ns)
    for c in (1, 4, 7):
        assert (whole[ns % 9 == c] == rank3_arrays(ns[ns % 9 == c])).all()


def test_rank3_arrays_edge_cases(monkeypatch):
    # a chunk without N = 1 (mod 9) skips the ninth-power test; an empty chunk is empty
    ns = np.fromiter(primes_in_range(2, 20000, 9, {4, 7}), dtype=np.int64)
    assert rank3_arrays(ns).tolist() == [rank3(n) for n in ns.tolist()]
    empty = np.array([], dtype=np.int64)
    assert rank3_arrays(empty).shape == (0,)
    # the kernel keeps the points it reads: every N = 1 (mod 9) must be hit once
    # (55 = 5 * 11 is hit by none, 91 = 7 * 13 twice, and even 28 lies on no progression,
    # as 4 * 28 = 2^2 + 27 * 2^2), and no N twice (4453 = 61 * 73 = 7 (mod 9) by two
    # points with 3 | B); an even N, such as 70 = 7 (mod 9), lies off the table of
    # N = 1 (mod 6) and raises in any class.  Each is an explicit raise, kept under -O.
    # An odd N = 4, 7 (mod 9) that no point with 3 | B hits reads rank 1, composite 25
    # too: the kernel's input is sieved primes.
    for bad, times in ((55, 0), (91, 2), (28, 0), (4453, 2), (70, 0)):
        with pytest.raises(DomainError, match=f"N={bad} has {times} representations"):
            rank3_arrays(np.array([7, 13, bad]))
    assert rank3_arrays(np.array([7, 13, 25])).tolist() == [1, 1, 1]
    # the kernel reads the sieve's order: ascending, no repeats
    for bad in ([7, 25, 13], [13, 7], [7, 7]):
        with pytest.raises(DomainError, match="strictly ascending"):
            rank3_arrays(np.array(bad))
    # 2^30 + 3 is a prime = 1 (mod 3) above the cap of the array kernels
    with pytest.raises(AssertionError, match="cap"):
        rank3_arrays(np.array([7, DEFAULT_SIEVE_CAP + 3]))
    # windows of 1,000 integers cut this chunk into 200, and give the same A and ranks;
    # for N = 4, 7 (mod 9) rank 2 is Jacobi's cubic character of 3
    ns = np.fromiter(primes_in_range(2, 2 * 10**5, 3, {1}), dtype=np.int64)
    whole, ranks = rank3_lattice(ns), rank3_arrays(ns)
    monkeypatch.setattr(cyclorank.eisenstein, "_WINDOW", 1000)
    assert (rank3_lattice(ns) == whole).all()
    assert (rank3_arrays(ns) == ranks).all()
    mixed = ns % 9 != 1
    assert ((ranks[mixed] == 2) == three_is_a_cube(ns[mixed])).all()
    assert set(ranks[mixed].tolist()) == {1, 2}


def test_rank3_arrays_cost_follows_the_primes_not_their_span():
    # a lattice over [lo, hi] costs time in proportion to hi - lo: 7 and the largest
    # prime = 1 (mod 3) below 2^30 span 2^30 integers, so the kernel cuts them into
    # windows, and a lone N costs O(sqrt(N)) points; so do primes spread below the cap
    rng = random.Random(26)
    spread = {7, 1073741719}
    while len(spread) < 12:
        spread.add(prime_walk(rng.randrange(7, DEFAULT_SIEVE_CAP) | 1, 2, 3))
    for ns in ([7, 1073741719], sorted(spread)):
        t0 = time.perf_counter()
        ranks = rank3_arrays(np.array(ns, dtype=np.int64))
        assert time.perf_counter() - t0 < 1.0
        assert ranks.tolist() == [rank3(n) for n in ns]


@pytest.mark.parametrize(
    "n", [19, 37, 7, 13, 1000000000000000009, 1000000000000000177, 1000000000000000003]
)
def test_p3_query_computes_one_root(monkeypatch, n):
    # one (N, 3) context per query, and the context computes the root and the cofactor:
    # the split, the cube row, the cubic symbols of gerth and the factorial criterion all
    # read it (N = 1, 1, 7, 4, 1, 7, 4 mod 9)
    real_init = ModulusContext.__post_init__
    calls = []

    def counted(ctx):
        calls.append((ctx.modulus, ctx.p))
        real_init(ctx)

    monkeypatch.setattr(ModulusContext, "__post_init__", counted)
    queries = [lambda: bounds(n, 3), lambda: split_prime(n), lambda: represent_4n(n)]
    if n % 9 != 1 or n < 10**6:  # the factorial criterion (N = 1 mod 9) is O(N)
        queries.append(lambda: rank3(n, "all"))
    for query in queries:
        calls.clear()
        query()
        assert calls == [(n, 3)]


@pytest.mark.parametrize("n", [7, 13, 31, 61])
def test_a_flipped_cornacchia_rank_is_caught(monkeypatch, n):
    # N = 7, 4, 4, 7 (mod 9): the cube row reads N alone, so Cornacchia giving the other
    # valid rank must raise from every p = 3 answer, also under -O
    real = cyclorank.rank.rank3_criterion
    monkeypatch.setattr(cyclorank.rank, "rank3_criterion", lambda rep: 3 - real(rep))
    for query in (lambda: bounds(n, 3), lambda: rank3(n, "all"),
                  lambda: validate_rows([TruthRow(n, 3, 1)])):
        with pytest.raises(AssertionError, match=f"rank criteria disagree at N={n}:"):
            query()


def test_the_cube_row_guards_rank3_all(monkeypatch):
    # cornacchia, gerth and star flipped together: only the cube row is left to disagree
    real_rank, real_gerth = cyclorank.rank.rank3_criterion, cyclorank.eisenstein.gerth_matrix
    real_star = cyclorank.eisenstein.star_condition
    monkeypatch.setattr(cyclorank.rank, "rank3_criterion", lambda rep: 3 - real_rank(rep))
    monkeypatch.setattr(cyclorank.eisenstein, "gerth_matrix",
                        lambda s: GerthMatrix((0, 0, 1 - real_gerth(s).rank)))
    monkeypatch.setattr(cyclorank.eisenstein, "star_condition", lambda s: not real_star(s))
    for n in (7, 13, 31, 61):
        with pytest.raises(AssertionError, match=f"rank criteria disagree at N={n}:"):
            rank3(n, "all")


def test_p3_bounds_read_neither_gerth_nor_star(monkeypatch):
    # both restate 3 | B, which the cube row checks from N alone
    def refuse(s):
        raise AssertionError("bounds(N, 3) read a criterion that restates 3 | B")

    monkeypatch.setattr(cyclorank.eisenstein, "gerth_matrix", refuse)
    monkeypatch.setattr(cyclorank.eisenstein, "star_condition", refuse)
    ns = list(primes_in_class(10**4, 3, {1}))
    assert {n % 9 for n in ns} == {1, 4, 7}
    for n in ns:
        assert bounds(n, 3).exact_rank3 == rank3(n), n


def test_bounds_examples():
    r = bounds(61, 3)
    assert (r.lower, r.upper, r.exact_rank3) == (1, 2, 2)
    assert r.methods_agreed is True
    assert (r.rep.A, r.rep.B) == (1, 3)
    r = bounds(11, 5)
    assert (r.alpha, r.lower, r.upper) == (0, 2, 8)
    assert (r.coarse_lower, r.coarse_upper) == (2, 12)
    r = bounds(149, 37, cl_k_rank=1)
    assert r.coarse_upper == 37 * 1 + 3 * 36 * 36 // 2 == 1981
    assert r.alpha is None and (r.lower, r.upper) == (18, 1981)


def test_bounds_errors():
    with pytest.raises(DomainError, match="regularity guard"):
        bounds(149, 37)
    with pytest.raises(DomainError, match="split completely"):
        bounds(7, 5)
    with pytest.raises(DomainError):
        bounds(11, 5, cl_k_rank=-1)
    with pytest.raises(DomainError, match="2\\^62"):
        bounds(4611686018427391417, 37, cl_k_rank=1)  # prime, 1 (mod 37), beyond 2^62
    with pytest.raises(DomainError, match="regularity guard"):
        bounds(149, 37, cl_k_rank=1, include_cl_f=True)  # mu presumes p regular


def test_bounds_window_for_regular_p_above_100():
    # N near 2^61 at the first regular p past the typed list and near the context's cap
    r = bounds(2305843009213692283, 107)
    assert (r.alpha, r.lower, r.upper) == (0, 53, 5618)
    assert r.alpha == sum(_euler_alpha(r.n, r.p))
    r = bounds(2305843009213664741, 1019)
    assert (r.alpha, r.lower, r.upper) == (1, 510, 519180)
    with pytest.raises(DomainError, match="regularity guard"):
        bounds(607, 101)  # irregular


def _euler_alpha(n: int, p: int) -> tuple[bool, ...]:
    # each flag: U_k = prod_j (1 - f^j)^(j^k) is a p-th power by Euler's criterion, for
    # the twists k = p-1-i, i = 2, 4, ..., p-3, with f the first g^((N-1)/p) != 1
    e = (n - 1) // p
    f = next(x for x in (pow(g, e, n) for g in range(2, n)) if x != 1)
    return tuple(euler_flags(n, p, f).values())


def test_first_prime_with_alpha_four_at_p11():
    # 313,968,931 is the first N with alpha = 4 = (p-3)/2 at p = 11 (scan_alpha(11, N - 1)
    # counts none): every real cyclotomic unit is an 11th power at N
    n = 313968931
    r = bounds(n, 11)
    assert (r.alpha, r.lower, r.upper) == (4, 9, 90)
    flags = alpha_count(ModulusContext(n, 11)).power_flags
    assert sorted(flags) == [2, 4, 6, 8] and all(flags.values())
    assert _euler_alpha(n, 11) == (True,) * 4
    assert _euler_alpha(211, 5) == (True,)  # the reference says no to something too
    assert _euler_alpha(11, 5) == (False,)


def test_cubic_character_of_3_matches_b_and_the_rank():
    # Jacobi: 3 is a cube mod N iff 3 | B, so for N = 4, 7 (mod 9) the rank is 2 iff 3 is
    # a cube, read off N alone; seeded N far above the brute-force and factorial oracles
    ns = random_split_primes(random.Random(29), 600, 2**40, 2**62)
    assert {n % 9 for n in ns} == {1, 4, 7}
    for n in ns:
        cube = three_is_a_cube(n)
        assert cube == (represent_4n(n).B % 3 == 0), n
        if n % 9 != 1:
            assert cube == (rank3(n) == 2), n


def test_bounds_alpha_one_instance():
    r = bounds(211, 5)
    assert (r.alpha, r.lower, r.upper) == (1, 3, 12)
    # a known cyclotomic rank widens only the coarse envelope, never the alpha window
    r = bounds(211, 5, cl_k_rank=1)
    assert (r.lower, r.upper) == (3, 12) and r.coarse_upper == 5 + 3 * 4 * 4 // 2


def test_bounds_include_cl_f():
    r = bounds(11, 5, include_cl_f=True)
    assert r.cl_f_upper == 1
    assert bounds(11, 5).cl_f_upper is None


def test_bound_ordering_sweep():
    for p in (3, 5, 7, 11, 13):
        for n in primes_in_class(4000, p, {1}):
            r = bounds(n, p)
            assert r.coarse_lower <= r.lower <= r.upper <= r.coarse_upper
            assert r.coarse_lower == (p - 1) // 2
            assert r.coarse_upper == (p - 1) * (p - 2)


def test_p3_collapse():
    for n in primes_in_class(4000, 3, {1}):
        r = bounds(n, 3)
        assert (r.lower, r.upper, r.alpha) == (1, 2, 0)
        assert r.exact_rank3 in (1, 2)


def test_p5_envelope_small():
    seen = set()
    for n in primes_in_class(4000, 5, {1}):
        r = bounds(n, 5)
        seen.add((r.lower, r.upper))
    assert seen <= {(2, 8), (3, 12)}
    assert (2, 8) in seen and (3, 12) in seen


def test_rank_report_invariants_enforced():
    with pytest.raises(AssertionError):
        # p = 3's window (1, 2) leaves a coarse envelope that ends at 1
        RankReport(n=7, p=3, rep=None, exact_rank3=1, alpha=0, coarse_upper=1)
    with pytest.raises(AssertionError, match="not an exact rank 1 or 2"):
        dataclasses.replace(bounds(61, 3), exact_rank3=3)
