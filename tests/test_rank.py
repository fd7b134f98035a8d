import pytest

from cyclorank.eisenstein import represent_4n, split_prime
from cyclorank.errors import DomainError
from cyclorank.modmath import ModulusContext
from cyclorank.primes import primes_in_class
from cyclorank.rank import RankReport, bounds, rank3, rank3_detail


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
    with pytest.raises(DomainError):
        rank3(5)
    with pytest.raises(DomainError):
        rank3(3)


def test_rank3_methods_agree():
    for n in primes_in_class(20000, 3, {1}):
        results = rank3_detail(n, "all")[2]
        assert len(set(results.values())) == 1, (n, results)


@pytest.mark.parametrize(
    "n", [19, 37, 7, 13, 1000000000000000009, 1000000000000000177, 1000000000000000003]
)
def test_p3_query_computes_one_root(monkeypatch, n):
    # one (N, 3) context per query, and the context computes the root: the split, the
    # cubic symbols of gerth and the factorial criterion all read it (N = 1, 1, 7, 4, 1,
    # 7, 4 mod 9)
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
        RankReport(
            n=7, p=3, target_class=None, rep=None, exact_rank3=1, methods_agreed=True,
            alpha=0, lower=2, upper=1, coarse_lower=1, coarse_upper=2,
        )
