import pytest

from cyclorank.errors import DomainError
from cyclorank.invariants import (
    alpha_count,
    invariant_record,
    m_class_direct,
    mu_count,
    product_classes,
    unit_product,
)
from cyclorank.modmath import ModulusContext, find_order_p_element, power_class
from cyclorank.primes import primes_in_class


def _naive_m_i(ctx, f, i):
    # honest double product: exponent of k is the exact integer sum of a^i, a < k
    n = ctx.modulus
    acc = 1
    for k in range(1, n):
        e = sum(a**i for a in range(1, k))
        acc = acc * pow(k, e, n) % n
    return power_class(acc, ctx, f)


def test_m_class_examples():
    ctx7 = ModulusContext(7, 3)
    assert product_classes(ctx7, 4).m.index != 0  # M = 1*4*27 = 3 (mod 7), not a cube
    ctx11 = ModulusContext(11, 5)
    assert product_classes(ctx11, 4).m.index == 4
    assert product_classes(ModulusContext(337, 7)).m.index != 0  # converse failure instance


def test_m_class_matches_direct_oracle():
    for p in (3, 5, 7):
        for n in primes_in_class(2000, p, {1}):
            ctx = ModulusContext(n, p)
            f = find_order_p_element(ctx)
            assert product_classes(ctx, f).m == m_class_direct(ctx, f)


def test_m_i_examples():
    assert product_classes(ModulusContext(11, 5), 4).mi[1].index == 4
    assert product_classes(ModulusContext(7, 3)).mi == {}  # 1..p-4 is empty for p = 3
    assert set(product_classes(ModulusContext(29, 7)).mi) == {1, 3}  # odd i only


def test_m_i_matches_naive_double_product():
    for p in (5, 7):
        for n in primes_in_class(500, p, {1}):
            ctx = ModulusContext(n, p)
            f = find_order_p_element(ctx)
            for i, cls in product_classes(ctx, f).mi.items():
                assert cls == _naive_m_i(ctx, f, i)


def _direct_m_i(ctx, f, i):
    # F_N evaluation of prod_k k^(S_i(k-1)), the exponent reduced mod N-1 only
    n = ctx.modulus
    acc = 1
    s = 0  # S_i(k-1) mod (N-1)
    for k in range(1, n):
        acc = acc * pow(k, s, n) % n
        s = (s + pow(k, i, n - 1)) % (n - 1)
    return power_class(acc, ctx, f)


def test_product_classes_match_direct_evaluation():
    checked = 0
    for p in (5, 7, 11, 13):
        for n in primes_in_class(2000, p, {1}):
            ctx = ModulusContext(n, p)
            f = find_order_p_element(ctx)
            pc = product_classes(ctx, f)
            assert pc.m == m_class_direct(ctx, f)
            assert set(pc.mi) == set(range(1, p - 3, 2))
            for i, cls in pc.mi.items():
                assert cls == _direct_m_i(ctx, f, i), (n, p, i)
            rec = invariant_record(n, p, f)
            assert rec.mu == mu_count(ctx, f).mu
            ac = alpha_count(ctx, f)  # U_k of its own, not the record's
            assert (rec.alpha, rec.power_flags) == (ac.alpha, ac.power_flags)
            assert (rec.m_cls, rec.mi_classes) == (pc.m, pc.mi)
            checked += 1
    assert checked > 150


def test_invariant_record_frozen_at_1000039():
    # recorded from the per-k index table that product_classes replaced
    rec = invariant_record(1000039, 13)
    assert rec.f == 844395
    assert rec.m_cls.index == 9
    assert {i: c.index for i, c in rec.mi_classes.items()} == {1: 7, 3: 5, 5: 6, 7: 9, 9: 3}
    assert (rec.mu, rec.cl_f_upper, rec.alpha) == (5, 1, 0)


def test_o_n_paths_refuse_n_above_the_cap():
    ctx = ModulusContext(1000000000061, 5)  # prime, 1 (mod 5), above 2^30
    for run in (
        lambda: product_classes(ctx),
        lambda: mu_count(ctx),
        lambda: m_class_direct(ctx),
        lambda: invariant_record(1000000000061, 5),
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
    up = unit_product(ModulusContext(31, 5), 2, 2)
    assert (up.value, up.cls.index != 0) == (14, True)
    up = unit_product(ModulusContext(41, 5), 2, 10)
    assert (up.value, up.cls.index != 0) == (29, True)
    # alternative order-5 element at N=11 gives value 6, still not a 5th power
    up = unit_product(ModulusContext(11, 5), 2, 3)
    assert (up.value, up.cls.index != 0) == (6, True)
    with pytest.raises(DomainError):
        unit_product(ModulusContext(11, 5), 0)
    with pytest.raises(DomainError):
        unit_product(ModulusContext(11, 5), 4)


def test_unit_product_triviality_is_f_independent():
    for n in primes_in_class(2000, 5, {1}):
        ctx = ModulusContext(n, 5)
        f0 = find_order_p_element(ctx)
        flags = set()
        for e in range(1, 5):
            f = pow(f0, e, n)
            flags.add(unit_product(ctx, 2, f).cls.index == 0)
        assert len(flags) == 1


def test_alpha_examples():
    assert alpha_count(ModulusContext(7, 3)).alpha == 0  # empty even-i range
    assert alpha_count(ModulusContext(11, 5)).alpha == 0
    # first prime with alpha = 1 for p = 5, frozen from the direct evaluation
    ac = alpha_count(ModulusContext(211, 5))
    assert ac.alpha == 1 and ac.power_flags == {2: True}


def test_power_flags_match_euler_criterion():
    # flag i says whether U_(p-1-i) is a p-th power; U is evaluated directly here
    asymmetric = 0
    for p in (7, 11, 13):
        for n in primes_in_class(3000, p, {1}):
            ctx = ModulusContext(n, p)
            f = find_order_p_element(ctx)
            want = {}
            for i in range(2, p - 2, 2):
                u = 1
                for j in range(1, p):
                    u = u * pow(1 - pow(f, j, n), j ** (p - 1 - i), n) % n
                want[i] = pow(u, (n - 1) // p, n) == 1
            assert alpha_count(ctx, f).power_flags == want, (n, p)
            assert invariant_record(n, p, f).power_flags == want, (n, p)
            asymmetric += want != {i: want[p - 1 - i] for i in want}
    assert asymmetric > 0


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
            ctx = ModulusContext(n, p)
            f = find_order_p_element(ctx)
            pc = product_classes(ctx, f)
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
