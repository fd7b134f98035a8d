import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclorank._arrays import class_products, powmod
from cyclorank.eisenstein import represent_4n
from cyclorank.errors import DomainError
from cyclorank.invariants import REGULAR_PRIMES_BELOW_100
from cyclorank.modmath import (
    ModulusContext, PowerClass, factorial_mod, power_class, power_residues, powers_table,
)
from cyclorank.primes import DEFAULT_SIEVE_CAP, is_prime, primes_in_range
from cyclorank.rank import rank3
from oracles import prime_walk


def test_context_validation():
    ctx = ModulusContext(19, 3)
    assert ctx.cofactor == 6
    assert ctx.cofactor * ctx.p == ctx.modulus - 1
    assert ctx.powers == (1, 7, 11)
    with pytest.raises(DomainError):
        ModulusContext(20, 3)  # composite
    with pytest.raises(DomainError):
        ModulusContext(7, 5)  # 5 does not divide 6
    with pytest.raises(DomainError):
        ModulusContext(3, 3)  # N = p
    with pytest.raises(DomainError):
        ModulusContext(7, 2)  # p must be odd
    with pytest.raises(DomainError):
        ModulusContext(2**62 + 135, 3)  # beyond the width cap (value is prime-agnostic)


def test_context_root_examples():
    assert ModulusContext(7, 3).root == 4
    assert ModulusContext(11, 5).root == 4
    assert ModulusContext(13, 3).root == 3


def test_context_root_properties():
    # every prime N = 1 (mod 3) or (mod 5) below 2*10^4; for p = 3 it holds N where
    # 2, 3 and 5 all give 1, so a retry over every g would try 4 and 6 there
    cases = [(29, 7), (1009, 7)]
    cases += [(n, p) for p in (3, 5) for n in primes_in_range(2, 2 * 10**4, p, {1})]
    assert (643, 3) in cases and all(pow(g, 214, 643) == 1 for g in (2, 3, 5))
    for n, p in cases:
        ctx = ModulusContext(n, p)
        f = ctx.root
        assert "root" in vars(ctx)  # derived when the context is built
        assert f == ModulusContext(n, p).root == ctx.powers[1]
        assert f != 1
        assert pow(f, p, n) == 1
        chis = (pow(g, ctx.cofactor, n) for g in range(2, n))
        assert f == next(c for c in chis if c != 1)  # the first g^((N-1)/p) != 1


def test_root_powers_are_the_context_table():
    cases = ((7, 3), (19, 3), (11, 5), (1009, 7), (1000000000000000003, 3),
             (2305843009213693133, 97))
    for n, p in cases:
        ctx = ModulusContext(n, p)
        assert ctx.powers == tuple(pow(ctx.root, i, n) for i in range(p))
    ctx = ModulusContext(19, 3)
    assert ctx.root == 7  # 2^6 = 7 (mod 19)
    assert ctx.powers == (1, 7, 11)
    assert repr(ctx) == "ModulusContext(modulus=19, p=3, cofactor=6)"  # root, powers left out


def test_context_refuses_a_large_p_and_coarse_queries_build_none(monkeypatch):
    from cyclorank import eisenstein
    from cyclorank.modmath import classify_target
    from cyclorank.rank import bounds

    assert len(ModulusContext(10211, 1021).powers) == 1021  # p^3 <= 2^30
    # safe primes N = 2p + 1: the contract allows p up to 2^61, a p-entry table does not fit
    pairs = ((2063, 1031), (200000447, 100000223), (2305843009213699919, 1152921504606849959))
    for n, p in pairs:
        with pytest.raises(DomainError, match="p\\^3"):
            ModulusContext(n, p)
    # what reads no character checks the contract alone: no context, so no root
    calls = []
    real_init = ModulusContext.__post_init__

    def counted_init(ctx):
        calls.append("ctx")
        real_init(ctx)

    monkeypatch.setattr(ModulusContext, "__post_init__", counted_init)
    for n, p in pairs:
        assert classify_target(n, p).residue_mod_p2 == n
        report = bounds(n, p, cl_k_rank=1)
        assert (report.lower, report.upper) == ((p - 1) // 2, p + 3 * (p - 1) ** 2 // 2)
    assert bounds(149, 37, cl_k_rank=1).target_class == classify_target(149, 37)
    assert eisenstein.represent_4n_bruteforce(61) == eisenstein.represent_4n(61)
    assert calls == ["ctx"]  # represent_4n's own context, and only that
    calls.clear()
    for query in (lambda: classify_target(2063, 1033), lambda: bounds(2063, 1031),
                  lambda: eisenstein.represent_4n_bruteforce(23)):
        with pytest.raises(DomainError):
            query()
    assert calls == []


@pytest.mark.parametrize("p", sorted(REGULAR_PRIMES_BELOW_100))  # 3 and every vetted p
@pytest.mark.parametrize("lo, hi", [(2, 10**5), (DEFAULT_SIEVE_CAP - 10**5, DEFAULT_SIEVE_CAP + 1)])
def test_powers_table_is_the_context_table(p, lo, hi):
    # the array form of the root rule against the scalar one, column by column, on every
    # prime N = 1 (mod p) of the range, and so against test_context_root_properties'
    # brute-force first g; the second range is the uint64 width edge
    ns = np.fromiter(primes_in_range(lo, hi, p, {1}), dtype=np.int64)
    table = powers_table(ns, p)
    assert (table.dtype, table.shape) == (np.uint64, (p, ns.size))
    for n, column in zip(ns.tolist(), table.T.tolist()):
        assert tuple(column) == ModulusContext(n, p).powers, (n, p)


def test_powers_table_edge_cases():
    # the p = 3 sample of test_powers_table_is_the_context_table runs the retry loop: 1,559 of its 4,784 primes need g > 2, 516 need g > 3
    ns = list(primes_in_range(2, 10**5, 3, {1}))
    assert len(ns) == 4784
    assert sum(pow(2, (n - 1) // 3, n) == 1 for n in ns) == 1559
    assert sum(pow(2, (n - 1) // 3, n) == pow(3, (n - 1) // 3, n) == 1 for n in ns) == 516
    assert powers_table(np.array([], dtype=np.int64), 5).shape == (5, 0)
    # 2^30 + 3 is a prime = 1 (mod 3) above the cap; the guard is a raise, kept under -O
    with pytest.raises(AssertionError, match="cap"):
        powers_table(np.array([7, DEFAULT_SIEVE_CAP + 3]), 3)


def test_power_residues_are_euler_characters():
    # x^((N-1)/k) mod N elementwise, a 2-D xs broadcast against one row of N
    ns = np.fromiter(primes_in_range(2, 5000, 9, {1}), dtype=np.int64)
    xs = np.stack([np.full(ns.size, 2), ns - 1, ns // 2])
    got = power_residues(xs, ns, 9)
    assert (got.dtype, got.shape) == (np.uint64, xs.shape)
    for row, x_row in zip(got.tolist(), xs.tolist()):
        assert row == [pow(x, (n - 1) // 9, n) for x, n in zip(x_row, ns.tolist())]
    assert power_residues(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3).size == 0
    with pytest.raises(AssertionError, match="cap"):
        power_residues(2, np.array([7, DEFAULT_SIEVE_CAP + 3]), 3)


def test_power_class_examples():
    ctx11 = ModulusContext(11, 5)  # root 4
    assert power_class(1, ctx11) == PowerClass(0)
    assert power_class(6, ctx11).index == 4
    ctx19 = ModulusContext(19, 3)
    assert power_class(7, ctx19).index == 0  # 7^3 = 343 = 1 (mod 19)


def test_power_class_rejects_zero():
    ctx = ModulusContext(7, 3)
    with pytest.raises(DomainError, match="undefined at zero"):
        power_class(0, ctx)
    with pytest.raises(DomainError, match="undefined at zero"):
        power_class(14, ctx)


_CTXS = [(31, 3), (211, 5), (1009, 7), (9901, 3), (9011, 5)]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), pick=st.sampled_from(_CTXS))
def test_character_multiplicativity(data, pick):
    n, p = pick
    ctx = ModulusContext(n, p)
    x = data.draw(st.integers(1, n - 1))
    y = data.draw(st.integers(1, n - 1))
    ix = power_class(x, ctx).index
    iy = power_class(y, ctx).index
    assert power_class(x * y % n, ctx).index == (ix + iy) % p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_power_class_consistency_full_sweep(p):
    # index 0 exactly when x^((N-1)/p) == 1, over every residue, all N <= 2000
    from cyclorank.primes import primes_in_class

    for n in primes_in_class(2000, p, {1}):
        ctx = ModulusContext(n, p)
        for x in range(1, n):
            chi = pow(x, ctx.cofactor, n)
            idx = power_class(x, ctx).index
            assert (idx == 0) == (chi == 1)
            assert pow(ctx.root, idx, n) == chi


def test_factorial_mod_examples():
    ctx19 = ModulusContext(19, 3)
    assert factorial_mod(0, ctx19) == 1
    assert factorial_mod(6, ctx19) == 17
    assert factorial_mod(20, ModulusContext(61, 3)) == math.factorial(20) % 61
    with pytest.raises(DomainError):
        factorial_mod(19, ctx19)
    with pytest.raises(DomainError, match="cap"):  # O(m) work above 2^30
        factorial_mod(2**30 + 1, ModulusContext(1000000000061, 5))


def test_factorial_mod_matches_math_factorial():
    ctx = ModulusContext(199, 3)
    for m in range(0, 199, 17):
        assert factorial_mod(m, ctx) == math.factorial(m) % 199


def _factorial_loop(m, n):
    acc = 1
    for k in range(2, m + 1):
        acc = acc * k % n
    return acc


def test_factorial_mod_matches_a_scalar_loop():
    # p = 1 gives class_products one column of 2^20 rows per block
    rng = random.Random(18)
    top = prime_walk(DEFAULT_SIEVE_CAP, -1, 3)  # the largest prime = 1 (mod 3) in range
    assert top == DEFAULT_SIEVE_CAP - 105
    ns = [7, 13, 19, 61, 199, 9901, top]
    ns += [prime_walk(rng.randrange(10**4, DEFAULT_SIEVE_CAP), -1, 3) for _ in range(4)]
    for n in ns:
        ctx = ModulusContext(n, 3)
        ms = {0, 1, 2, rng.randrange(n) % 10**5}
        if n < 10**4:
            ms.add(n - 1)
        for m in sorted(ms):
            assert factorial_mod(m, ctx) == _factorial_loop(m, n), (m, n)
    # whole blocks, a block edge and a ragged last block at the top prime
    ctx = ModulusContext(top, 3)
    for m in (2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 5):
        assert factorial_mod(m, ctx) == _factorial_loop(m, top), m


def test_wilson_jacobi_identity_at_1e8():
    # A * ((N-1)/3)!^3 = 1 (mod N), at a size where (N-1)/3 spans 32 blocks
    n = 100000081
    rep = represent_4n(n)
    assert rep.A * pow(factorial_mod((n - 1) // 3, ModulusContext(n, 3)), 3, n) % n == 1


def test_factorial_criterion_refuses_n_above_the_cap():
    # the cap is on N itself, as for the product invariants, not on the argument m
    with pytest.raises(DomainError, match="cap"):
        factorial_mod(1, ModulusContext(DEFAULT_SIEVE_CAP + 3, 3))
    n = 3221225461  # prime, 1 (mod 9), (N-1)/3 below 2^30
    assert (n - 1) // 3 <= DEFAULT_SIEVE_CAP < n
    with pytest.raises(DomainError, match="cap"):
        rank3(n, "factorial")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, DEFAULT_SIEVE_CAP), st.integers(0, DEFAULT_SIEVE_CAP),
                          st.integers(1, DEFAULT_SIEVE_CAP)), min_size=1, max_size=20))
# base = 0 (mod N), exp = 0 and mod = 1, alone and mixed with ordinary triples
@example([(0, 5, 7), (5, 0, 1), (0, 0, 1), (0, 0, 7), (14, 3, 7), (3, 0, 7)])
@example([(7, 2, 7), (2, DEFAULT_SIEVE_CAP, 1), (DEFAULT_SIEVE_CAP, DEFAULT_SIEVE_CAP, DEFAULT_SIEVE_CAP - 35)])
def test_array_powmod_matches_pow(triples):
    base, exp, mod = (np.array(col, dtype=np.uint64) for col in zip(*triples))
    assert powmod(base, exp, mod).tolist() == [pow(b, e, m) for b, e, m in triples]
    # 0-d operands: base - 1 wraps at base 0 (mod N), which numpy scalar arithmetic
    # would report as an overflow warning, an error under -W error
    for b, e, m in triples:
        assert powmod(b, e, m).tolist() == pow(b, e, m)
        assert powmod(np.uint64(b), np.uint64(e), np.uint64(m)).tolist() == pow(b, e, m)
    # the root rule's shape: one scalar base against arrays of exponents and moduli
    b = triples[0][0]
    assert powmod(b, exp, mod).tolist() == [pow(b, e, m) for _, e, m in triples]
    # alpha_counts' shape: a 2-D base against one exponent and one modulus per column
    rows = [[b for b, _, _ in triples], [b for b, _, _ in reversed(triples)]]
    assert powmod(np.array(rows, dtype=np.uint64), exp, mod).tolist() == [
        [pow(b, e, m) for b, (_, e, m) in zip(row, triples)] for row in rows]


def test_array_powmod_refuses_a_modulus_above_the_cap():
    # products of residues below 2^30 fit uint64; the guard is an explicit raise, kept under -O
    assert powmod(3, 5, DEFAULT_SIEVE_CAP).tolist() == 243
    with pytest.raises(AssertionError, match="exceeds"):
        powmod(np.array([2, 3]), 5, np.array([7, DEFAULT_SIEVE_CAP + 1]))


def _class_products_loop(hi, p, n):
    out = [1 % n] * p
    for k in range(1, hi + 1):
        out[k % p] = out[k % p] * k % n
    return out


def test_class_products_match_a_scalar_loop():
    rng = random.Random(17)
    ns = [7, 101, 1021, DEFAULT_SIEVE_CAP - 35]  # 2^30 - 35 is prime
    ns += [prime_walk(rng.randrange(2, DEFAULT_SIEVE_CAP)) for _ in range(3)]
    ns += [prime_walk(rng.randrange(DEFAULT_SIEVE_CAP - 1000, DEFAULT_SIEVE_CAP - 100))]
    assert all(n <= DEFAULT_SIEVE_CAP and is_prime(n) for n in ns)
    for n in ns:
        for p in (3, 5, 13, 97, 1021):
            # hi >= n only for the small n: there some k are multiples of n
            for hi in (0, 1, p - 1, p, rng.randrange(2, 20000), rng.randrange(2, 3 * min(n, 5000))):
                assert class_products(hi, p, n).tolist() == _class_products_loop(hi, p, n), (hi, p, n)


def test_class_products_over_several_blocks():
    # 2^20 cells per block: p = 3 gives blocks of 349,525 rows, so four blocks, the last ragged
    n, hi = DEFAULT_SIEVE_CAP - 35, 3 * 2**20 + 5
    assert class_products(hi, 3, n).tolist() == _class_products_loop(hi, 3, n)


def test_class_products_refuse_a_modulus_above_the_cap():
    # the same explicit width raise as powmod, kept under -O
    assert class_products(10, 3, DEFAULT_SIEVE_CAP).tolist() == [3 * 6 * 9, 1 * 4 * 7 * 10, 2 * 5 * 8]
    with pytest.raises(AssertionError, match="exceeds"):
        class_products(10, 3, DEFAULT_SIEVE_CAP + 1)
