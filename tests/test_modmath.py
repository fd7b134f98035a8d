import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclorank._arrays import class_products, fixed_base_powmod, powmod
from cyclorank.eisenstein import represent_4n
from cyclorank.errors import DomainError
from cyclorank.invariants import alpha_count, alpha_counts
from cyclorank.modmath import (
    ModulusContext, PowerClass, factorial_mod, power_class, power_residues, powers_table,
)
from cyclorank.primes import DEFAULT_SIEVE_CAP, is_prime, primes_in_range
from cyclorank.rank import rank3, rank3_arrays, rank3_criterion
from oracles import REGULAR_PRIMES_BELOW_100, prime_walk


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


# 3 and every regular p < 100 below 10^5 and at the uint64 width edge; p = 107 and 1019 on
# a range that holds two and one N whose root needs g = 3 (42373, 98227; 666427)
@pytest.mark.parametrize("lo, hi, p", [
    (lo, hi, p) for lo, hi in [(2, 10**5), (DEFAULT_SIEVE_CAP - 10**5, DEFAULT_SIEVE_CAP + 1)]
    for p in sorted(REGULAR_PRIMES_BELOW_100)] + [(2, 10**5, 107), (2, 10**6, 1019)])
def test_powers_table_is_the_context_table(lo, hi, p):
    # the array form of the root rule against the scalar one, column by column, on every
    # prime N = 1 (mod p) of the range, and so against test_context_root_properties'
    # brute-force first g
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


def _fixed_base_thresholds(g):
    # every N below the cap that is the largest with (N-1)^a * g^(2^k - 1) < 2^64, a = 1..4,
    # k = 0..5: where fixed_base_powmod's window width k changes (a = 2), and where its
    # remainders before a square or a window product start or stop (a = 1, 3, 4; k = 0, a = 3
    # gives 2,642,246 and a = 4 gives 2^16)
    tops = set()
    for a in (1, 2, 3, 4):
        for k in range(6):
            bound = (2**64 - 1) // g ** ((1 << k) - 1)
            n1 = round(bound ** (1 / a))
            n1 -= n1**a > bound
            n1 += (n1 + 1) ** a <= bound
            if n1 < DEFAULT_SIEVE_CAP:
                tops.add(n1 + 1)
    return sorted(tops)


@pytest.mark.parametrize("g", [q for q in range(32) if is_prime(q)])
def test_fixed_base_powmod_matches_powmod(g):
    # seeded exponents below 2^30 against moduli whose largest sits on each side of every
    # threshold, at the cap, and at log-uniform points below it; the largest modulus decides
    # k and every remainder, so each list also holds moduli near it, exponents 2^b - 1 whose
    # every window reads the largest table entry, exponents 0 and 1, and modulus 1
    rng = np.random.default_rng(g)
    tops = _fixed_base_thresholds(g)
    assert _ONE_REMAINDER_TOP in tops and 2**16 in tops
    sizes = [m + d for m in tops for d in (0, 1)] + [DEFAULT_SIEVE_CAP]
    sizes += np.exp(rng.uniform(1, 30 * math.log(2), 12)).astype(int).tolist()
    for m in sorted(s for s in sizes if 2 <= s <= DEFAULT_SIEVE_CAP):
        mod = np.concatenate([[m, m - 1, 1], rng.integers(m // 2 + 1, m + 1, 24), rng.integers(1, m + 1, 8)])
        exp = np.concatenate([[0, 1], (1 << rng.integers(0, 31, 16)) - 1, rng.integers(0, 2**30, mod.size - 18)])
        mod, exp = mod.astype(np.uint64), exp.astype(np.uint64)
        want = powmod(g, exp, mod).tolist()
        assert want == [pow(g, e, n) for e, n in zip(exp.tolist(), mod.tolist())]
        assert fixed_base_powmod(g, exp, mod).tolist() == want, (g, m)
        # 0-d operands, alone and broadcast against a 1-D one
        assert fixed_base_powmod(g, 2**30 - 1, m).tolist() == pow(g, 2**30 - 1, m)
        assert fixed_base_powmod(g, exp[3], mod[3]).tolist() == want[3]  # numpy scalars
        assert fixed_base_powmod(g, exp, m).tolist() == [pow(g, e, m) for e in exp.tolist()]
        assert fixed_base_powmod(g, 2**30 - 1, mod).tolist() == [pow(g, 2**30 - 1, n) for n in mod.tolist()]
    for e, n in ((0, 1), (0, 7), (1, 1), (1, 7), (5, 1)):
        assert fixed_base_powmod(g, e, n).tolist() == pow(g, e, n)
    assert fixed_base_powmod(g, np.array([], dtype=np.uint64), np.array([], dtype=np.uint64)).size == 0
    # the width raise of powmod, kept under -O: 2^30 + 3 is a prime above the cap
    with pytest.raises(AssertionError, match="exceeds"):
        fixed_base_powmod(g, np.array([5, 5]), np.array([7, DEFAULT_SIEVE_CAP + 3]))


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
            assert factorial_mod(m, ctx) == _class_products_loop(m, 1, n)[0], (m, n)
    # whole blocks, a block edge and a ragged last block at the top prime
    ctx = ModulusContext(top, 3)
    for m in (2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 5):
        assert factorial_mod(m, ctx) == _class_products_loop(m, 1, top)[0], m


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
    # one scalar base against arrays of exponents and moduli
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


# the last N with (N-1)^3 < 2^64: up to it powmod takes one remainder per exponent bit, past it two
_ONE_REMAINDER_TOP = 2642246


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, DEFAULT_SIEVE_CAP), st.integers(0, DEFAULT_SIEVE_CAP),
                          st.integers(1, 2**22 - 1)), min_size=1, max_size=20))
@example([(2, 2**30 - 1, _ONE_REMAINDER_TOP), (3, 2**30 - 1, _ONE_REMAINDER_TOP + 1)])
def test_array_powmod_matches_pow_below_2_22(triples):
    # moduli below 2^22 put a list's largest on either side of _ONE_REMAINDER_TOP, so the
    # one-remainder bits run, which test_array_powmod_matches_pow's moduli up to 2^30 almost
    # never reach
    base, exp, mod = (np.array(col, dtype=np.uint64) for col in zip(*triples))
    assert powmod(base, exp, mod).tolist() == [pow(b, e, m) for b, e, m in triples]
    for b, e, m in triples:
        assert powmod(b, e, m).tolist() == pow(b, e, m)
    rows = [[b for b, _, _ in triples], [b for b, _, _ in reversed(triples)]]
    assert powmod(np.array(rows, dtype=np.uint64), exp, mod).tolist() == [
        [pow(b, e, m) for b, (_, e, m) in zip(row, triples)] for row in rows]


def test_powmod_reduces_before_a_product_could_reach_2_64():
    # Base N - 1 and exponents whose bits are all 1 form (N-1)^2 * (N-1) at every bit.  That
    # fits uint64 up to N = _ONE_REMAINDER_TOP, where it runs unreduced, and reaches 2^64 from
    # the next N on, where it must be reduced first: a bound loosened by one bit overflows
    # there, and a dropped final reduction leaves (N-1)^3 at the top.
    last = _ONE_REMAINDER_TOP
    assert (last - 1) ** 3 < 2**64 <= last**3
    exps = [2**20 - 1, 2**30 - 1]
    for n in (last, last + 1):
        for e in exps:
            assert powmod(n - 1, e, n).tolist() == n - 1  # 0-d
        assert powmod([n - 1, n - 1], exps, [n, n]).tolist() == [n - 1, n - 1]  # 1-D
        # alpha_counts' shape: a 2-D base against one exponent and one modulus per column
        rows = [[n - 1, n - 1], [n - 2, 2]]
        assert powmod(np.array(rows, dtype=np.uint64), exps, [n, n]).tolist() == [
            [pow(b, e, n) for b, e in zip(row, exps)] for row in rows]
    # mixed moduli: every element follows the largest one's rule, one remainder a bit for the
    # first list and two for the second
    for mods in ([1, 7, 2**20 + 7, last - 1, last], [1, 7, 2**20 + 7, last - 1, last, last + 1]):
        for e in exps:
            got = powmod([m - 1 for m in mods], e, mods).tolist()
            assert got == [pow(m - 1, e, m) for m in mods], (mods, e)


def test_kernels_on_both_sides_of_the_one_remainder_threshold():
    # sieved primes of a window around _ONE_REMAINDER_TOP, as a chunk whose largest N is at or
    # below it and as one whose largest N is above it, against the scalar kernels
    last = _ONE_REMAINDER_TOP
    for p in (3, 5, 13):
        ns = np.fromiter(primes_in_range(last - 15000, last + 15000, p, {1}), dtype=np.int64)
        powered = ns[ns % 9 == 1] if p == 3 else ns  # the ninth powers run on N = 1 (mod 9) alone
        assert powered.min() <= last < powered.max()
        for chunk in (ns[ns <= last], ns):
            if p == 3:
                want = [rank3_criterion(represent_4n(n)) for n in chunk.tolist()]
                assert rank3_arrays(chunk).tolist() == want
            else:
                want = [alpha_count(ModulusContext(n, p)).alpha for n in chunk.tolist()]
                assert alpha_counts(chunk, p).tolist() == want, p


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


def test_class_products_reduce_before_a_product_could_reach_2_64():
    # Four factors k <= 2^16 - 1 multiply exactly without a reduction; from hi = 2^17 - 1
    # they reach 2^64, so a reduction bound loosened by a few bits overflows there.  One
    # row, and row counts 2^k - 1 and 2^k + 1, which carry an odd middle row at the first
    # level and at every level.
    n = DEFAULT_SIEVE_CAP - 35
    for p in (1, 3, 13):
        his = [2**16 - 1, 2**16, 2**17 - 1, 2**17, p - 1]
        his += [(2**k + d) * p - 1 for k in (5, 12) for d in (-1, 1)]
        for hi in his:
            assert class_products(hi, p, n).tolist() == _class_products_loop(hi, p, n), (hi, p)


def test_class_products_refuse_a_modulus_above_the_cap():
    # the same explicit width raise as powmod, kept under -O
    assert class_products(10, 3, DEFAULT_SIEVE_CAP).tolist() == [3 * 6 * 9, 1 * 4 * 7 * 10, 2 * 5 * 8]
    with pytest.raises(AssertionError, match="exceeds"):
        class_products(10, 3, DEFAULT_SIEVE_CAP + 1)
