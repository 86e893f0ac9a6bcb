import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab import (
    ApQuery,
    ExponentC,
    GuardError,
    RouteDisagreementError,
    ValidationError,
    ap_main_term,
    brun_titchmarsh_report,
    floor_pow,
    integer_root,
    is_ps_value,
    pi_ap,
    pi_c_ap,
    ps_primes_up_to,
    theta_ap,
    primes_up_to,
    vartheta_c_ap,
)
from pslab import psprimes

C32 = ExponentC(3, 2)
GENERATION_CORPUS = [
    ExponentC(*pq) for pq in [(3, 2), (21, 20), (11, 10), (17, 10), (5, 3), (5, 2), (1001, 1000)]
]


def test_pi_ap_examples():
    assert pi_ap(20, 4, 1) == 3  # 5, 13, 17
    assert pi_ap(100, 1, 0) == 25
    assert pi_ap(2, 2, 1) == 0  # no odd primes... 2 = 0 mod 2 is excluded


def test_pi_ap_query_validation():
    with pytest.raises(ValidationError):
        ApQuery(100, 4, 2, C32)  # gcd(2, 4) > 1
    with pytest.raises(ValidationError):
        ApQuery(1, 1, 0, C32)
    with pytest.raises(GuardError):
        ApQuery(10**9 + 1, 1, 0, C32)


def test_pi_ap_and_theta_ap_refuse_a_modulus_below_one():
    for d in (0, -3):
        with pytest.raises(ValidationError):
            pi_ap(100, d, 1)
        with pytest.raises(ValidationError):
            theta_ap(100, d, 1)
    # a non-coprime residue still counts the one prime it can hold
    assert pi_ap(100, 4, 2) == 1 and pi_ap(100, 6, 3) == 1 and pi_ap(100, 10, 4) == 0
    assert abs(theta_ap(100, 4, 2) - math.log(2)) < 1e-12


def test_theta_ap_example():
    assert abs(theta_ap(10, 1, 0) - math.log(210)) < 1e-12


def test_pi_c_examples():
    assert pi_c_ap(ApQuery(50, 1, 0, C32)) == 5
    assert list(ps_primes_up_to(50, C32)) == [2, 5, 11, 31, 41]
    assert pi_c_ap(ApQuery(50, 4, 1, C32)) == 2  # 5 and 41
    assert pi_c_ap(ApQuery(2, 1, 0, C32)) == 1  # 2 = floor(2^1.5)


def test_pi_c_partition_over_residues():
    for c in (C32, ExponentC(21, 20)):
        total = pi_c_ap(ApQuery(2000, 1, 0, c))
        for d in range(2, 11):
            parts = sum(
                pi_c_ap(ApQuery(2000, d, a, c))
                for a in range(d)
                if math.gcd(a, d) == 1
            )
            dividing = sum(
                1 for p in ps_primes_up_to(2000, c) if d % int(p) == 0
            )
            assert parts + dividing == total


def test_vartheta_bounded_by_theta():
    for d, a in ((1, 0), (3, 1), (4, 3)):
        assert vartheta_c_ap(ApQuery(10**4, d, a, C32)) <= theta_ap(10**4, d, a) + 1e-9


def test_vartheta_empty_progression():
    # x=3: primes 2, 3; progression 5 mod 7 is empty
    assert vartheta_c_ap(ApQuery(3, 7, 5, C32)) == 0.0


def test_counting_monotone_in_x():
    qs = [ApQuery(x, 3, 1, C32) for x in (10, 100, 1000, 5000)]
    counts = [pi_c_ap(q) for q in qs]
    assert counts == sorted(counts)
    weights = [vartheta_c_ap(q) for q in qs]
    assert weights == sorted(weights)


def test_main_term_closed_form_small():
    g = 2 / 3
    expected = g * (2 ** (g - 1) + 3 ** (g - 1))
    assert abs(ap_main_term(ApQuery(3, 1, 0, C32)) - expected) < 1e-12


def test_main_term_empty_progression():
    assert ap_main_term(ApQuery(3, 7, 5, C32)) == 0.0


def test_main_term_route_agreement_corpus(envelopes):
    fx = envelopes["main_term_corpus"]
    rng = np.random.default_rng(fx["seed"])
    cs = [(21, 20), (3, 2), (11, 10), (17, 10), (1001, 1000), (5, 3)]
    for _ in range(fx["count"]):
        x = int(rng.integers(10**3, 10**6))
        d = int(rng.integers(1, 13))
        while True:
            a = int(rng.integers(0, d)) if d > 1 else 0
            if math.gcd(a, d) == 1:
                break
        p, q = cs[int(rng.integers(0, len(cs)))]
        value = ap_main_term(ApQuery(x, d, a, ExponentC(p, q)))  # raises on disagreement
        assert value >= 0.0


def test_main_term_tracks_count():
    # |pi_c - main| / main stays a small trend statistic at desk scale
    q = ApQuery(10**5, 4, 1, ExponentC(21, 20))
    main = ap_main_term(q)
    count = pi_c_ap(q)
    assert abs(count - main) / main < 0.2


def test_brun_titchmarsh_finite_positive():
    q = ApQuery(10**4, 3, 1, C32)
    r = brun_titchmarsh_report(q)
    assert math.isfinite(r) and r > 0


def test_brun_titchmarsh_refuses_a_large_modulus_before_counting():
    # phi(d) is taken first, so the factorization guard refuses d before the
    # count sieves 10^8 and generates the sequence values
    t0 = time.perf_counter()
    with pytest.raises(GuardError):
        brun_titchmarsh_report(ApQuery(10**8, 10**15 + 1, 1, ExponentC(21, 20)))
    assert time.perf_counter() - t0 < 1.0


def test_progressions_take_a_modulus_beyond_int64():
    # every prime p <= x lies below such a d, so the progression holds at
    # most the prime a mod d; the results match a d > x that fits int64
    big, small = 10**20 + 1, 10**9 + 7
    for d in (big, small):
        assert (pi_ap(100, d, 3), pi_ap(100, d, 4), pi_ap(100, d, d + 97)) == (1, 0, 1)
        assert theta_ap(100, d, 3) == math.log(3)
        # 5 = floor(3^(3/2)) and 11 = floor(5^(3/2)) are sequence primes; 3 is not
        assert [pi_c_ap(ApQuery(100, d, a, C32)) for a in (5, 3, d + 11)] == [1, 0, 1]
        assert vartheta_c_ap(ApQuery(100, d, 5, C32)) == math.log(5)
    assert ap_main_term(ApQuery(100, big, 5, C32)) == ap_main_term(ApQuery(100, small, 5, C32))


def test_brun_titchmarsh_sweep_envelope():
    c = ExponentC(21, 20)
    ratios = [
        brun_titchmarsh_report(ApQuery(10**6, d, a, c))
        for d in (3, 4, 5, 7)
        for a in range(d)
        if math.gcd(a, d) == 1
    ]
    assert all(math.isfinite(r) for r in ratios)
    assert max(ratios) <= 5.0


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ps_primes_match_witness_filter_at_value_boundaries(data):
    c = data.draw(st.sampled_from(GENERATION_CORPUS))
    # is_ps_value is slow on the 1000th powers of c = 1001/1000
    k = data.draw(st.integers(2, 600 if c.q == 1000 else 5000))
    n = max(integer_root(k**c.q, c.p), 2)
    x = max(floor_pow(n, c) + data.draw(st.sampled_from([-1, 0, 1])), 2)
    want = [int(p) for p in primes_up_to(x).primes if is_ps_value(int(p), c).is_member]
    assert ps_primes_up_to(x, c).tolist() == want


@pytest.mark.parametrize("c", [ExponentC(21, 20), C32, ExponentC(19, 10)], ids=str)
def test_ps_primes_match_witness_filter(c):
    x = 30000
    want = [int(p) for p in primes_up_to(x).primes if is_ps_value(int(p), c).is_member]
    assert ps_primes_up_to(x, c).tolist() == want


def test_ps_primes_are_a_writable_copy():
    ps = ps_primes_up_to(1000, C32)
    ps[0] = 0
    assert ps_primes_up_to(1000, C32)[0] == 2
    assert ps_primes_up_to(1, C32).flags.writeable


def test_ps_primes_in_a_progression_are_a_fresh_selection():
    c = ExponentC(1001, 1000)
    every = ps_primes_up_to(10**4, c)
    for d, a in [(1, 0), (4, 1), (4, 3), (7, 0), (10, 13)]:
        ps = ps_primes_up_to(10**4, c, d, a)
        assert ps.tolist() == [p for p in every.tolist() if p % d == a % d]
        ps[:1] = 0  # the caller's own array; the cached one is read-only
    assert ps_primes_up_to(10**4, c).tolist() == every.tolist()
    assert not psprimes._ps_prime_mask_cached(10**4, c).flags.writeable
    with pytest.raises(ValidationError):
        ps_primes_up_to(10**4, c, 0, 1)


def test_dropped_member_is_a_route_disagreement(monkeypatch):
    bulk = psprimes.is_ps_value_bulk

    def without_two(ks, c):  # 2 = floor(2^(3/2)) is the first prime, always sampled
        return bulk(ks, c) & (ks != 2)

    monkeypatch.setattr(psprimes, "is_ps_value_bulk", without_two)
    psprimes._ps_prime_mask_cached.cache_clear()
    try:
        with pytest.raises(RouteDisagreementError):
            ps_primes_up_to(1000, C32)
    finally:
        psprimes._ps_prime_mask_cached.cache_clear()


def _sieve(x):
    flags = np.ones(x + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.float64)


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("d, a", [(1, 0), (4, 1)])
def test_log_sums_match_fsum_recount(d, a):
    x = 10**6
    ps = _sieve(x)
    ps = ps[ps % d == a % d]
    assert _close(theta_ap(x, d, a), math.fsum(np.log(ps)))
    # the route B closed form gamma * sum p^(gamma-1)
    g = C32.gamma
    assert _close(ap_main_term(ApQuery(x, d, a, C32)), g * math.fsum(ps ** (g - 1.0)))
    c = ExponentC(1001, 1000)  # nearly every prime is a value: more than one 2^16 chunk
    seq = ps_primes_up_to(x, c)
    seq = seq[seq % d == a % d].astype(np.float64)
    assert _close(vartheta_c_ap(ApQuery(x, d, a, c)), math.fsum(np.log(seq)))


def test_pi_ap_and_theta_ap_share_the_query_range_check():
    for x in (0, 1):
        assert pi_ap(x, 3, 1) == 0 and theta_ap(x, 3, 1) == 0.0
    with pytest.raises(ValidationError):
        pi_ap(-1, 3, 1)
    for f in (pi_ap, theta_ap):
        with pytest.raises(GuardError):
            f(psprimes.X_GUARD + 1, 3, 1)
