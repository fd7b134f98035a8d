import dataclasses
import random

import numpy as np
import pytest

from cyclorank import invariants
from cyclorank.errors import DomainError
from cyclorank.invariants import (
    REGULAR_PRIMES_BELOW_100,
    ProductClasses,
    alpha_count,
    alpha_counts,
    invariant_record,
    m_class_direct,
    mu_count,
    product_classes,
    unit_products,
)
from cyclorank.modmath import ModulusContext, PowerClass, power_class
from cyclorank.primes import DEFAULT_SIEVE_CAP, is_prime, primes_in_class, primes_in_range
from oracles import euler_flags, u_k_direct

VETTED_P = sorted(p for p in REGULAR_PRIMES_BELOW_100 if p >= 5)  # p = 3 has no even twist


def _naive_m_i(ctx, i):
    # honest double product: exponent of k is the exact integer sum of a^i, a < k
    n = ctx.modulus
    acc = 1
    for k in range(1, n):
        e = sum(a**i for a in range(1, k))
        acc = acc * pow(k, e, n) % n
    return power_class(acc, ctx)


def test_m_class_examples():
    ctx7 = ModulusContext(7, 3)  # root 4
    assert product_classes(ctx7).m.index != 0  # M = 1*4*27 = 3 (mod 7), not a cube
    ctx11 = ModulusContext(11, 5)  # root 4
    assert product_classes(ctx11).m.index == 4
    assert product_classes(ModulusContext(337, 7)).m.index != 0  # converse failure instance


def test_m_class_matches_direct_oracle():
    for p in (3, 5, 7):
        for n in primes_in_class(2000, p, {1}):
            ctx = ModulusContext(n, p)
            assert product_classes(ctx).m == m_class_direct(ctx, ctx.root)
    # M is no cube mod 7, so f = 1, of order 1, matches none of f's powers
    with pytest.raises(DomainError, match="order 3"):
        m_class_direct(ModulusContext(7, 3), 1)


def test_m_i_examples():
    assert product_classes(ModulusContext(11, 5)).mi[1].index == 4
    assert product_classes(ModulusContext(7, 3)).mi == {}  # 1..p-4 is empty for p = 3
    assert set(product_classes(ModulusContext(29, 7)).mi) == {1, 3}  # odd i only


def test_m_i_matches_naive_double_product():
    for p in (5, 7):
        for n in primes_in_class(500, p, {1}):
            ctx = ModulusContext(n, p)
            for i, cls in product_classes(ctx).mi.items():
                assert cls == _naive_m_i(ctx, i)


def _direct_m_i(ctx, i):
    # F_N evaluation of prod_k k^(S_i(k-1)), the exponent reduced mod N-1 only
    n = ctx.modulus
    acc = 1
    s = 0  # S_i(k-1) mod (N-1)
    for k in range(1, n):
        acc = acc * pow(k, s, n) % n
        s = (s + pow(k, i, n - 1)) % (n - 1)
    return power_class(acc, ctx)


def test_product_classes_match_direct_evaluation():
    checked = 0
    for p in (5, 7, 11, 13, 37, 101):  # 37 and 101 are irregular: the identity holds for any p
        for n in primes_in_class(2000, p, {1}):
            ctx = ModulusContext(n, p)
            pc = product_classes(ctx)
            assert pc.m == m_class_direct(ctx, ctx.root)
            assert set(pc.mi) == set(range(1, p - 3, 2))
            for i, cls in pc.mi.items():
                assert cls == _direct_m_i(ctx, i), (n, p, i)
            rec = invariant_record(n, p)
            assert rec.f == ctx.root
            assert rec.mu == (mu_count(ctx).mu if p in REGULAR_PRIMES_BELOW_100 else None)
            ac = alpha_count(ctx)  # U_k of its own, not the record's
            assert (rec.alpha, rec.power_flags) == (ac.alpha, ac.power_flags)
            assert (rec.m_cls, rec.mi_classes) == (pc.m, pc.mi)
            checked += 1
    assert checked > 150


def _half_walk(ctx):
    # the scalar walk over k <= (N-1)/2 that the array class products replaced, with
    # the running weights T_i[r-1] that product_classes' tail sums replaced
    n, p = ctx.modulus, ctx.p
    q_index = [0] * p
    for r in range(1, p):
        acc = 1
        for k in range(r, (n - 1) // 2 + 1, p):
            acc = acc * k % n
        q_index[r] = power_class(acc, ctx).index
    mi = {}
    for i in range(1, p - 3, 2):
        total = t = 0  # t = T_i[r-1] = sum_{a<r} a^i mod p
        for r in range(1, p):
            total += t * q_index[r]
            t += pow(r, i, p)
        mi[i] = PowerClass(2 * total % p)
    return ProductClasses(PowerClass(sum(r * q for r, q in enumerate(q_index)) % p), mi)


def test_product_classes_match_the_half_walk():
    checked = 0
    pairs = [(n, p) for p in (3, 5, 7, 11, 13, 37, 101) for n in primes_in_class(30000, p, {1})]
    # p = 1021 is the largest p a context allows (p^3 <= 2^30), with 509 odd i
    for n, p in [*pairs, (10211, 1021)]:
        ctx = ModulusContext(n, p)
        assert product_classes(ctx) == _half_walk(ctx), (n, p)
        checked += 1
    assert checked == 3661


def test_invariant_record_frozen_at_1000039():
    # recorded from the per-k index table that product_classes replaced
    rec = invariant_record(1000039, 13)
    assert rec.f == 844395
    assert rec.m_cls.index == 9
    assert {i: c.index for i, c in rec.mi_classes.items()} == {1: 7, 3: 5, 5: 6, 7: 9, 9: 3}
    assert (rec.mu, rec.cl_f_upper, rec.alpha) == (5, 1, 0)


def test_invariant_record_frozen_at_10000121():
    # recorded from the walk over every k < N that the half walk replaced
    rec = invariant_record(10000121, 13)
    assert rec.f == 8593675
    assert rec.m_cls.index == 8
    assert {i: c.index for i, c in rec.mi_classes.items()} == {1: 12, 3: 3, 5: 8, 7: 7, 9: 12}
    assert (rec.mu, rec.cl_f_upper, rec.alpha) == (5, 1, 0)


def test_invariant_record_frozen_at_100000213():
    # recorded from the half walk; the helper runs several 2^20-cell blocks here
    rec = invariant_record(100000213, 13)
    assert rec.f == 17502254
    assert rec.m_cls.index == 2
    assert {i: c.index for i, c in rec.mi_classes.items()} == {1: 3, 3: 6, 5: 0, 7: 8, 9: 7}
    assert (rec.mu, rec.cl_f_upper, rec.alpha) == (4, 3, 0)


def test_o_n_paths_refuse_n_above_the_cap():
    ctx = ModulusContext(1000000000061, 5)  # prime, 1 (mod 5), above 2^30
    for run in (
        lambda: product_classes(ctx),
        lambda: mu_count(ctx),
        lambda: m_class_direct(ctx, ctx.root),
        lambda: invariant_record(1000000000061, 5),
        lambda: invariant_record(2063, 1031),  # 1031^3 > 2^30: the U_k cost grows as p^2
    ):
        with pytest.raises(DomainError, match="cap"):
            run()


def test_mu_examples():
    assert mu_count(ModulusContext(11, 5)) .mu == 1
    assert mu_count(ModulusContext(11, 5)).cl_f_upper == 1
    assert mu_count(ModulusContext(7, 3)).mu == 0  # empty i-range
    assert mu_count(ModulusContext(7, 3)).cl_f_upper == 1
    with pytest.raises(DomainError, match="regular"):
        mu_count(ModulusContext(149, 37))
    with pytest.raises(DomainError, match="regular"):
        mu_count(ModulusContext(607, 101))  # beyond the vetted range


def test_unit_product_examples():
    up = unit_products(ModulusContext(31, 5))[2]  # root 2
    assert (up.value, up.cls.index != 0) == (14, True)
    up = unit_products(ModulusContext(41, 5))[2]  # root 10
    assert (up.value, up.cls.index != 0) == (29, True)
    # the alternative order-5 element 3 at N=11 gives value 6, still not a 5th power,
    # like the root 4 does
    assert u_k_direct(11, 5, 2, 3) == 6 and pow(6, 2, 11) != 1
    ups = unit_products(ModulusContext(11, 5))
    assert ups[2].value == u_k_direct(11, 5, 2, 4) and ups[2].cls.index != 0
    assert sorted(ups) == [1, 2, 3]  # 0 < k < p-1: no U_0, no U_4
    assert sorted(unit_products(ModulusContext(7, 3))) == [1]


def _assert_unit_products_direct(n, p):
    ctx = ModulusContext(n, p)
    ups = unit_products(ctx)
    assert sorted(ups) == list(range(1, p - 1)), (n, p)
    for k, up in ups.items():
        assert up.value == u_k_direct(n, p, k, ctx.root), (n, p, k)
        assert up.cls == power_class(up.value, ctx), (n, p, k)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_unit_products_match_direct_small(p):
    # the small-exponent recurrence against the unreduced exponent j^k, every N = 1 (mod p)
    for n in primes_in_class(2 * 10**4, p, {1}):
        _assert_unit_products_direct(n, p)


@pytest.mark.parametrize("p", [5, 7])
def test_unit_products_match_direct_seeded(p):
    # the full width of the contract: N up to 2^62
    rng = random.Random(22 + p)
    for n in _seeded_primes(p, rng, True, 20) + _seeded_primes(p, rng, False, 180):
        _assert_unit_products_direct(n, p)


def test_unit_product_triviality_is_f_independent():
    # U_2 is evaluated here for each of the four order-5 elements; whether it is
    # a 5th power must not depend on the element, and must match ctx.root's answer
    for n in primes_in_class(2000, 5, {1}):
        ctx = ModulusContext(n, 5)
        up = unit_products(ctx)[2]
        assert up.value == u_k_direct(n, 5, 2, ctx.root)
        for e in range(1, 5):
            u = u_k_direct(n, 5, 2, pow(ctx.root, e, n))
            assert (pow(u, ctx.cofactor, n) == 1) == (up.cls.index == 0), (n, e)


def test_alpha_examples():
    assert alpha_count(ModulusContext(7, 3)).alpha == 0  # empty even-i range
    assert alpha_count(ModulusContext(11, 5)).alpha == 0
    # first prime with alpha = 1 for p = 5, frozen from the direct evaluation
    ac = alpha_count(ModulusContext(211, 5))
    assert ac.alpha == 1 and ac.power_flags == {2: True}


def test_power_flags_match_euler_criterion():
    # flag i says whether U_(p-1-i) is a p-th power; U is evaluated directly here
    asymmetric = 0
    for p in VETTED_P:
        for n in primes_in_class(3000 if p < 50 else 1500, p, {1}):
            ctx = ModulusContext(n, p)
            want = euler_flags(n, p, ctx.root)
            assert alpha_count(ctx).power_flags == want, (n, p)
            assert invariant_record(n, p).power_flags == want, (n, p)
            asymmetric += want != {i: want[p - 1 - i] for i in want}
    assert asymmetric > 0


def _seeded_primes(p: int, rng: random.Random, square: bool, count: int):
    # primes N < 2^62 with N = 1 (mod p), and N = 1 (mod p^2) exactly when square
    step = p * p if square else p
    found = []
    while len(found) < count:
        n = 1 + step * rng.randrange(1, (1 << rng.randrange(20, 63)) // step)
        if (n % (p * p) == 1) == square and is_prime(n):
            found.append(n)
    return found


def test_alpha_linear_form_matches_unit_products():
    # oracle: the flags read off the class of each U_k, evaluated in F_N by unit_products;
    # 37 (irregular) and 101 (beyond the list) take the path without the cached table
    rng = random.Random(8)
    for p in (*VETTED_P, 37, 101):
        ns = [*primes_in_class(10_000, p, {1})]
        ns += _seeded_primes(p, rng, True, 2) + _seeded_primes(p, rng, False, 2)
        cofactor_classes = set()
        for n in ns:
            ctx = ModulusContext(n, p)
            ups = unit_products(ctx)
            want = {i: ups[p - 1 - i].cls.index == 0 for i in range(2, p - 2, 2)}
            ac = alpha_count(ctx)
            assert (ac.power_flags, ac.alpha) == (want, sum(want.values())), (n, p)
            cofactor_classes.add(ctx.cofactor % p == 0)  # root a p-th power or not
        assert cofactor_classes == {True, False}, p


@pytest.mark.parametrize("p", VETTED_P)
@pytest.mark.parametrize("lo, hi", [(2, 10**5), (DEFAULT_SIEVE_CAP - 10**5, DEFAULT_SIEVE_CAP + 1)])
def test_alpha_counts_match_alpha_flags(p, lo, hi):
    # the batch kernel against the point-query kernel on every prime N = 1 (mod p) of the
    # range; the second range is the uint64 width edge below the 2^30 cap
    ns = np.fromiter(primes_in_range(lo, hi, p, {1}), dtype=np.int64)
    want = [alpha_count(ModulusContext(n, p)).alpha for n in ns.tolist()]
    assert alpha_counts(ns, p).tolist() == want


def test_alpha_counts_edge_cases():
    # the p = 5 sample of test_alpha_counts_match_alpha_flags runs the root search's retry
    # loop: 450 of its 2,387 primes need g > 2, and 80 of those need g > 3
    ns = list(primes_in_class(10**5, 5, {1}))
    assert len(ns) == 2387
    assert sum(pow(2, (n - 1) // 5, n) == 1 for n in ns) == 450
    assert sum(pow(2, (n - 1) // 5, n) == pow(3, (n - 1) // 5, n) == 1 for n in ns) == 80
    p3 = np.fromiter(primes_in_class(10**4, 3, {1}), dtype=np.int64)
    assert alpha_counts(p3, 3).tolist() == [0] * p3.size  # no even twist for p = 3
    assert alpha_counts(np.array([], dtype=np.uint64), 7).tolist() == []


@pytest.mark.parametrize("n", [341, 1111, 4681])
def test_alpha_counts_refuse_a_composite_n(n):
    # 341 = 11 * 31 and the others are composite N = 1 (mod 5): some character value is
    # then no power of the root; the check is an explicit raise, so it holds under -O
    with pytest.raises(AssertionError, match=f"N={n}"):
        alpha_counts(np.array([n]), 5)


def test_alpha_count_evaluates_half_the_characters(monkeypatch):
    # (p-1)/2 full-width modpows per N, each a character (exponent (N-1)/p), none of a U_k
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(invariants, "pow", counting_pow, raising=False)
    for n, p in ((211, 5), (1000039, 13), (2305843009213693133, 97)):
        alpha_count(ModulusContext(n, p))  # the j^k table is built once per p
        ctx = ModulusContext(n, p)
        assert len(ctx.powers) == p  # the root and its powers, before counting
        calls.clear()
        alpha_count(ctx)
        assert len(calls) == (p - 1) // 2
        assert all(e == ctx.cofactor and m == n for _, e, m in calls)


def test_alpha_range_law():
    for p in (3, 5, 7, 11):
        for n in primes_in_class(1500, p, {1}):
            a = alpha_count(ModulusContext(n, p)).alpha
            assert 0 <= a <= (p - 3) // 2
            if p == 3:
                assert a == 0


def test_m_m1_equivalence_small():
    for p in (5, 7):
        for n in primes_in_class(3000, p, {1}):
            pc = product_classes(ModulusContext(n, p))
            assert (pc.m.index == 0) == (pc.mi[1].index == 0)


def test_invariant_record_assembly():
    rec = invariant_record(11, 5)
    assert rec.f == 4
    assert rec.mu == 1 and rec.cl_f_upper == 1
    assert rec.alpha == 0
    assert set(rec.mi_classes) == {1}
    assert set(rec.mk_products) == {1, 2, 3}
    assert rec.power_flags == {2: False}
    rec3 = invariant_record(7, 3)
    assert rec3.mi_classes == {} and rec3.alpha == 0 and rec3.mu == 0
    rec37 = invariant_record(149, 37)  # irregular p: no mu, the products still print
    assert rec37.mu is None and rec37.cl_f_upper is None
    assert set(rec37.mk_products) == set(range(1, 36))


def test_invariant_record_cross_checks_alpha_against_u_k():
    # a flag that disagrees with the printed U_k is refused, also under python -O
    rec = invariant_record(211, 5)
    assert rec.power_flags == {2: True} and rec.mk_products[2].cls.index == 0
    with pytest.raises(AssertionError, match="U_2"):
        dataclasses.replace(rec, power_flags={2: False})
    # alpha counts at most (p - 3) / 2 twists, and M and M_1 are p-th powers together
    for alpha in (-1, 2):
        with pytest.raises(AssertionError, match="out of range"):
            dataclasses.replace(rec, alpha=alpha)
    with pytest.raises(AssertionError, match="M and M_1 disagree"):
        dataclasses.replace(rec, m_cls=PowerClass(1))
