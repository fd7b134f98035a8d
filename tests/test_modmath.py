import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclorank._arrays import powmod
from cyclorank.errors import DomainError
from cyclorank.modmath import (
    ModulusContext, PowerClass, factorial_mod, power_class, root_of_unity, root_powers,
)
from cyclorank.primes import DEFAULT_SIEVE_CAP


def test_context_validation():
    ctx = ModulusContext(19, 3)
    assert ctx.cofactor == 6
    assert ctx.cofactor * ctx.p == ctx.modulus - 1
    assert ctx.powers == root_powers(19, 3)
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
    for n, p in ((7, 3), (13, 3), (31, 3), (11, 5), (41, 5), (29, 7), (1009, 7)):
        ctx = ModulusContext(n, p)
        f = ctx.root
        assert "root" in vars(ctx)  # derived when the context is built
        assert f == ModulusContext(n, p).root == root_powers(n, p)[1] == root_of_unity(n, p)
        assert f != 1
        assert pow(f, p, n) == 1
        chis = (pow(g, ctx.cofactor, n) for g in range(2, n))
        assert f == next(c for c in chis if c != 1)  # the first g^((N-1)/p) != 1


def test_root_powers_are_the_context_table():
    cases = ((7, 3), (19, 3), (11, 5), (1009, 7), (1000000000000000003, 3),
             (2305843009213693133, 97))
    for n, p in cases:
        ctx = ModulusContext(n, p)
        assert ctx.powers == root_powers(n, p) == tuple(pow(ctx.root, i, n) for i in range(p))
    ctx = ModulusContext(19, 3)
    assert ctx.root == 7  # 2^6 = 7 (mod 19)
    assert root_powers(19, 3) == (1, 7, 11)
    assert repr(ctx) == "ModulusContext(modulus=19, p=3, cofactor=6)"  # root, powers left out


def test_context_refuses_a_large_p_and_coarse_queries_build_none(monkeypatch):
    from cyclorank import eisenstein, modmath
    from cyclorank.modmath import classify_target
    from cyclorank.rank import bounds

    assert len(ModulusContext(10211, 1021).powers) == 1021  # p^3 <= 2^30
    # safe primes N = 2p + 1: the contract allows p up to 2^61, a p-entry table does not fit
    pairs = ((2063, 1031), (200000447, 100000223), (2305843009213699919, 1152921504606849959))
    for n, p in pairs:
        with pytest.raises(DomainError, match="p\\^3"):
            ModulusContext(n, p)
    # what reads no character checks the contract alone: no root, no context
    calls = []
    real_root, real_init = modmath.root_of_unity, ModulusContext.__post_init__

    def counted_root(n, p):
        calls.append("root")
        return real_root(n, p)

    def counted_init(ctx):
        calls.append("ctx")
        real_init(ctx)

    monkeypatch.setattr(modmath, "root_of_unity", counted_root)
    monkeypatch.setattr(ModulusContext, "__post_init__", counted_init)
    for n, p in pairs:
        assert classify_target(n, p).residue_mod_p2 == n
        report = bounds(n, p, cl_k_rank=1)
        assert (report.lower, report.upper) == ((p - 1) // 2, p + 3 * (p - 1) ** 2 // 2)
    assert bounds(149, 37, cl_k_rank=1).target_class == classify_target(149, 37)
    assert eisenstein.represent_4n_bruteforce(61) == eisenstein.represent_4n(61)
    assert calls == ["ctx", "root"]  # represent_4n's own context, and only that
    calls.clear()
    for query in (lambda: classify_target(2063, 1033), lambda: bounds(2063, 1031),
                  lambda: eisenstein.represent_4n_bruteforce(23)):
        with pytest.raises(DomainError):
            query()
    assert calls == []


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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, DEFAULT_SIEVE_CAP), st.integers(0, DEFAULT_SIEVE_CAP),
                          st.integers(1, DEFAULT_SIEVE_CAP)), min_size=1, max_size=20))
def test_array_powmod_matches_pow(triples):
    base, exp, mod = (np.array(col, dtype=np.uint64) for col in zip(*triples))
    assert powmod(base, exp, mod).tolist() == [pow(b, e, m) for b, e, m in triples]


def test_array_powmod_refuses_a_modulus_above_the_cap():
    # products of residues below 2^30 fit uint64; the guard is an explicit raise, kept under -O
    assert powmod(3, 5, DEFAULT_SIEVE_CAP).tolist() == 243
    with pytest.raises(AssertionError, match="exceeds"):
        powmod(np.array([2, 3]), 5, np.array([7, DEFAULT_SIEVE_CAP + 1]))
