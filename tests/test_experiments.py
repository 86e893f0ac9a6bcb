import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab import (
    ExponentC,
    GuardError,
    ValidationError,
    chebyshev_sum,
    convolution_count,
    floor_pow,
    integer_root,
    large_pf_exceed,
    largest_prime_factor,
    residue_equidistribution,
    smooth_count,
    square_divisor_sum,
    squarefree_density,
)

C32 = ExponentC(3, 2)
C1110 = ExponentC(11, 10)
C1710 = ExponentC(17, 10)


def test_squarefree_small_hand_enumeration():
    # values 1,2,5,8,11,14,18,22,27,31; squarefree except 8, 18, 27
    r = squarefree_density(10, C32)
    assert r.observed == 7.0


def test_squarefree_x1():
    r = squarefree_density(1, C32)
    assert r.observed == 1.0
    assert abs(r.reference - 6 / math.pi**2) < 1e-12


def test_squarefree_frozen_count_at_1e5():
    # frozen from the per-value factorization oracle
    r = squarefree_density(10**5, C32)
    assert int(r.observed) == 58585


def test_squarefree_ratio_trend():
    r4 = squarefree_density(10**4, C32)
    r6 = squarefree_density(10**6, C32)
    assert abs(r6.ratio - 1.0) < abs(r4.ratio - 1.0)


def test_squarefree_warns_outside_range():
    with pytest.warns(UserWarning):
        squarefree_density(100, ExponentC(9, 5))


def test_squarefree_refuses_values_beyond_bulk_test_at_once():
    for c in (ExponentC(7, 4), ExponentC(19, 10)):  # values up to 1.8e12 and 2e13
        t0 = time.perf_counter()
        with pytest.raises(GuardError):
            squarefree_density(10**7, c)
        assert time.perf_counter() - t0 < 1.0


def test_chebyshev_hand_values():
    assert chebyshev_sum(2, C32).observed == pytest.approx(math.log(2))
    assert chebyshev_sum(1, C32).observed == 0.0


def test_chebyshev_matches_slow_oracle():
    # independent recount via per-value factorization
    from pslab import factorize

    x = 2000
    expected = 0.0
    for n in range(1, x + 1):
        v = floor_pow(n, C1110)
        if v > 1:
            expected += sum(math.log(p) for p, _ in factorize(v).entries)
    assert chebyshev_sum(x, C1110).observed == pytest.approx(expected, rel=1e-9)


def test_chebyshev_matches_slow_oracle_near_c_two():
    # values reach 1.8e6 here and 2.5e11 at the x = 10^6 guard, both within
    # factor_stream's 10^12
    from pslab import factorize

    c = ExponentC(19, 10)
    expected = math.fsum(
        math.log(p) for n in range(1, 2001) for p in factorize(floor_pow(n, c)).primes()
    )
    assert chebyshev_sum(2000, c).observed == pytest.approx(expected, rel=1e-12)


def test_chebyshev_acceptance_band():
    r = chebyshev_sum(10**5, ExponentC(6, 5))
    assert 0.90 <= r.ratio <= 1.05


def test_smooth_count_witness_frozen():
    # frozen from the direct scan oracle over n <= 10^4
    r = smooth_count(10**4, C1110, 0.5)
    assert r.observed == 1977.0
    assert r.observed >= 1.0


def test_smooth_count_eps_one_recount():
    x = 3000
    r = smooth_count(x, C1110, 1.0)
    direct = sum(
        1 for n in range(2, x + 1) if largest_prime_factor(floor_pow(n, C1110)) <= n
    )
    assert int(r.observed) == direct


def test_smooth_count_monotone_in_eps():
    counts = [smooth_count(5000, C1110, e).observed for e in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert counts == sorted(counts)


def test_large_pf_theta_zero_counts_everything():
    for x in (100, 5000):
        r = large_pf_exceed(x, C32, 0.0, 0.05)
        assert r.observed == float(x - 1)


def test_large_pf_theta_c_matches_prime_values():
    # theta = c: only n with floor(n^c) prime (plus boundary effects) survive;
    # cross-check the count against the sequence-prime enumeration
    from pslab import ApQuery, pi_c_ap

    x = 2000
    r = large_pf_exceed(x, C32, 1.5, 0.05)
    strict = sum(
        1
        for n in range(2, x + 1)
        if largest_prime_factor(floor_pow(n, C32)) > float(n) ** 1.45
    )
    assert int(r.observed) == strict
    prime_values = pi_c_ap(ApQuery(floor_pow(x, C32), 1, 0, C32))
    assert int(r.observed) <= prime_values


def test_largest_prime_harnesses_refuse_values_beyond_factor_stream_at_once():
    c = ExponentC(5, 2)  # values up to 10^15
    for call in (
        lambda: large_pf_exceed(10**6, c, 0.5, 0.05),
        lambda: smooth_count(10**6, c, 0.5),
        lambda: chebyshev_sum(10**6, c),
    ):
        t0 = time.perf_counter()
        with pytest.raises(GuardError):
            call()
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("c, e", [(C32, Fraction(1, 2)), (ExponentC(4, 3), Fraction(1, 3))])
def test_largest_prime_comparisons_exact_when_p_equals_n_to_the_e(c, e):
    # n = m^den makes floor(n^c) = m^(den c), so for prime m, P = m = n^e exactly
    x = 3000
    ns = range(2, x + 1)
    P = [largest_prime_factor(floor_pow(n, c)) for n in ns]
    exceed = sum(1 for n, p in zip(ns, P) if p**e.denominator > n**e.numerator)
    at = sum(1 for n, p in zip(ns, P) if p**e.denominator == n**e.numerator)
    assert at >= 5
    assert large_pf_exceed(x, c, e, 0).observed == exceed
    assert smooth_count(x, c, e).observed == x - 1 - exceed
    if e == Fraction(1, 2):
        # exponents a hair off 1/2 have denominator 2^40: decided by intervals
        assert large_pf_exceed(x, c, 0.5 + 2.0**-40, 0.0).observed == exceed
        assert large_pf_exceed(x, c, 0.5 - 2.0**-40, 0.0).observed == exceed + at


def test_large_pf_refuses_infinite_exponent():
    with pytest.raises(ValidationError):
        large_pf_exceed(1000, C32, math.inf, 0.05)


def test_large_pf_deciles_present():
    r = large_pf_exceed(1000, C32, 0.3, 0.05)
    assert set(r.extras) == {f"d{k}0" for k in range(1, 10)}
    assert all(0.0 < v <= 1.6 for v in r.extras.values())
    assert r.extras["d10"] <= r.extras["d50"] <= r.extras["d90"]


def test_square_divisor_zero_weight():
    lhs, rhs = square_divisor_sum(1000, C32, 2, np.zeros_like)
    assert (lhs, rhs) == (0.0, 0.0)


def test_square_divisor_example_envelope():
    lhs, rhs = square_divisor_sum(10**5, C32, 2, np.ones_like)
    assert abs(lhs - rhs) <= 0.05 * 10**5


def test_square_divisor_single_d_cross_check():
    # the d-term of the sum matches an independent residue scan
    x, d = 20000, 5
    vals = [floor_pow(n, C32) for n in range(1, x + 1)]
    direct = sum(1 for v in vals if v % (d * d) == 0)
    lhs, _ = square_divisor_sum(
        x, C32, 4, lambda ds: (ds == d).astype(float)
    )
    assert lhs == float(direct)


def test_residue_equidistribution_exactness():
    n = 10**4
    r = residue_equidistribution(n, C1710, 1, 0)
    assert r.observed == float(n)
    counts = [
        residue_equidistribution(n, C1710, 7, a).observed for a in range(7)
    ]
    assert sum(counts) == float(n)


def test_residue_equidistribution_acceptance_band():
    devs = [
        abs(residue_equidistribution(10**6, C1710, 7, a).observed * 7 / 10**6 - 1)
        for a in range(7)
    ]
    assert max(devs) <= 0.02


def test_residue_counts_big_values_exactly():
    # values up to 7.3e12: floor_pow_bulk settles more than half of them exactly
    c, N = ExponentC(5, 2), 70_000
    want = [0, 0]
    for n in range(N + 1, 2 * N + 1):
        want[floor_pow(n, c) % 2] += 1
    assert [residue_equidistribution(N, c, 2, a).observed for a in (0, 1)] == want


def test_residue_fast_at_large_q():
    # the int64 values' repair band sends its suspects to floor_pow, where
    # n^p has millions of bits; c > 2 lies outside the proven range
    t0 = time.perf_counter()
    with pytest.warns(UserWarning):
        r = residue_equidistribution(3 * 10**4, ExponentC(300001, 150000), 1, 0)
    assert time.perf_counter() - t0 < 2.0
    assert r.observed == 30000


def test_residue_guard():
    with pytest.raises(GuardError):
        residue_equidistribution(100, C1710, 50, 1)


def test_residue_warns_outside_c_range():
    with pytest.warns(UserWarning):
        residue_equidistribution(1000, C1110, 2, 0)


def test_convolution_zero_predicate():
    assert convolution_count(10**4, C1110, np.zeros_like) == 0.0


def test_convolution_positive_and_brute_force():
    got = convolution_count(2000, C1110, np.ones_like)
    assert got > 0
    # oracle: iterate n and scan divisors of floor(n^c) inside the boxes
    eps, cf = 0.01, 11 / 10
    K = max(int(2000 ** (cf - 1 + 6 * eps)), 1)
    L = max(int(2000 ** (1 - 6 * eps) / 5), 1)
    brute = 0
    for n in range(1, 2001):
        v = floor_pow(n, C1110)
        for k in range(K + 1, 2 * K + 1):
            if v % k == 0 and L < v // k <= 2 * L:
                brute += 1
    assert got == float(brute)


def test_convolution_prime_indicator_cross_check():
    from pslab import is_prime

    def prime_indicator(arr):
        return np.array([1.0 if is_prime(int(v)) else 0.0 for v in arr])

    got = convolution_count(1500, C1110, prime_indicator)
    eps, cf = 0.01, 11 / 10
    K = max(int(1500 ** (cf - 1 + 6 * eps)), 1)
    L = max(int(1500 ** (1 - 6 * eps) / 5), 1)
    brute = 0
    for n in range(1, 1501):
        v = floor_pow(n, C1110)
        for k in range(K + 1, 2 * K + 1):
            if v % k == 0:
                l = v // k
                if L < l <= 2 * L and is_prime(k) and is_prime(l):
                    brute += 1
    assert got == float(brute)


def test_reports_serialize():
    r = squarefree_density(100, C32)
    assert r.to_csv_row().startswith("squarefree_density,")
    assert '"experiment": "squarefree_density"' in r.to_json()
    assert r.ratio == pytest.approx(r.observed / r.reference)


def test_square_divisor_range_decided_exactly():
    # 100^3 = 1000^2: at c = 4/3, D = 100 is both x^(c/2) and x^(2-c)
    c = ExponentC(4, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        square_divisor_sum(1000, c, 100, np.ones_like)
    with pytest.raises(ValidationError):
        square_divisor_sum(1000, c, 101, np.ones_like)


@pytest.mark.parametrize("N, c, q", [(512, ExponentC(5, 3), 4), (10**5, ExponentC(9, 5), 10)])
def test_residue_guard_decided_exactly(N, c, q):
    # q^6 = N^(3-c): q is the largest admissible modulus
    assert residue_equidistribution(N, c, q, 1).observed > 0
    with pytest.raises(GuardError):
        residue_equidistribution(N, c, q + 1, 1)


@pytest.mark.parametrize("c", [ExponentC(300001, 300000), ExponentC(100001, 100000)], ids=str)
def test_bound_checks_refuse_at_once_for_large_exponent_terms(c):
    # powers of about q would take seconds to minutes to form here
    t0 = time.perf_counter()
    with pytest.raises(GuardError):
        residue_equidistribution(10**6, c, 101, 0)
    with pytest.raises(ValidationError):
        square_divisor_sum(10**6, c, 10**6, np.ones_like)
    assert time.perf_counter() - t0 < 1.0


def test_square_divisor_work_guard_refuses_before_allocating():
    # at c = 7/2, D = 10^9 lies below x^(c/2) = 10^10.5; x*D = 10^15 is refused
    # before the D-element arrays are built
    t0 = time.perf_counter()
    with pytest.raises(GuardError):
        square_divisor_sum(10**6, ExponentC(7, 2), 10**9, np.ones_like)
    assert time.perf_counter() - t0 < 1.0


def test_bound_checks_refuse_values_beyond_float_range():
    with pytest.raises(ValidationError):
        square_divisor_sum(10**6, C32, 10**400, np.ones_like)
    with pytest.raises(GuardError):
        residue_equidistribution(10**6, C1710, 10**400, 0)


def test_factorization_guard_decided_at_once_for_large_exponent_terms():
    # 10^12 = (10^6)^2 sits between x^c for the two neighbouring exponents
    t0 = time.perf_counter()
    with pytest.raises(GuardError):
        chebyshev_sum(10**6, ExponentC(300001, 150000))
    with pytest.raises(GuardError):
        squarefree_density(10**6, ExponentC(2000001, 1000000))
    assert time.perf_counter() - t0 < 1.0


def test_factorization_guard_at_its_boundary():
    from pslab.experiments import _check_values

    # (10^5)^(12/5) = 10^12 exactly: the largest value factor_stream takes
    _check_values(10**5, ExponentC(12, 5))
    with pytest.raises(GuardError):
        _check_values(10**5 + 1, ExponentC(12, 5))


def test_exceeds_power_decides_n_one_and_integer_ties():
    from pslab.experiments import _exceeds_power

    # 1 = 1^e would never leave the interval route; 8 = 4^(3/2) is a tie
    one = np.array([1, 1], dtype=np.int64)
    assert _exceeds_power(np.array([1, 2]), one, Fraction(100001, 100000)).tolist() == [False, True]
    assert _exceeds_power(np.array([1, 2]), one, Fraction(-1, 3)).tolist() == [False, True]
    four = np.array([4, 4, 4], dtype=np.int64)
    got = _exceeds_power(np.array([7, 8, 9]), four, Fraction(3, 2))
    assert got.tolist() == [False, False, True]


def test_convolution_count_by_lookup_at_the_guard():
    t0 = time.perf_counter()
    assert convolution_count(10**5, C32, np.ones_like) == 20738.0
    assert time.perf_counter() - t0 < 2.0


def test_exceeds_decides_operands_beyond_float_range():
    from pslab.pscore import exceeds

    big = 10**400
    assert exceeds(big, 10**6, Fraction(3, 2))
    assert exceeds(big, 10**6, Fraction(-1, 6))
    assert not exceeds(big, 10**6, Fraction(100))  # 10^600
    # ties P = n^e that the bit lengths cannot settle: P against floor(n^e)
    assert not exceeds(big, 10, Fraction(400))
    assert exceeds(big + 1, 10, Fraction(400))
    assert not exceeds(big, 1000, Fraction(400, 3))
    assert exceeds(big + 1, 1000, Fraction(400, 3))


def test_exceeds_at_n_one_zero_and_negative_exponents_and_ties():
    from pslab.pscore import exceeds

    assert not exceeds(1, 1, Fraction(-1, 3))  # 1^e = 1
    assert exceeds(1, 2, Fraction(-1, 3))  # 2^(-1/3) < 1
    assert not exceeds(1, 7, Fraction(0))  # 1 is not > 7^0
    assert exceeds(2, 7, Fraction(0))
    assert [exceeds(P, 4, Fraction(3, 2)) for P in (7, 8, 9)] == [False, False, True]


def _exceeds_oracle(P, n, e):
    num, den = e.numerator, e.denominator
    return P**den > n**num if num >= 0 else P**den * n**-num > 1


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 10**7),
    num=st.integers(-40, 200),
    den=st.integers(1, 100),
    offset=st.integers(-2, 2),
    scale=st.integers(0, 3),
)
def test_exceeds_matches_integer_oracle(n, num, den, offset, scale):
    # P near n^e, then scaled by 2^scale: ties, near-ties and bit-length splits
    from pslab.pscore import exceeds

    e = Fraction(num, den)
    root = integer_root(n**num, den) if num >= 0 else 1
    P = max(1, (root << scale) + offset)
    assert exceeds(P, n, e) == _exceeds_oracle(P, n, e)


def test_residue_refuses_huge_modulus_at_negative_exponent_at_once():
    # (3 - 7/2)/6 < 0: the range check must not meet a float
    t0 = time.perf_counter()
    with pytest.raises(GuardError):
        residue_equidistribution(10**6, ExponentC(7, 2), 10**400, 0)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "x, c",
    # K = 2.6e5; K = 6.3e4 with K*L = 6.3e8; K = 1.3e5 with K*L = 6.9e6 (K alone
    # over its bound); x^(c-1+6 eps) beyond float range
    [
        (3000, ExponentC(5, 2)),
        (10**5, ExponentC(19, 10)),
        (400, ExponentC(29, 10)),
        (10**5, ExponentC(201, 2)),
    ],
)
def test_convolution_count_refuses_work_beyond_its_guard_at_once(x, c):
    # K = x^(c-1+6 eps) Python iterations and K*L lookups are bounded, not x alone
    t0 = time.perf_counter()
    with pytest.raises(GuardError, match="guard"):
        convolution_count(x, c, np.ones_like)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "harness",
    [
        lambda: squarefree_density(10**6, C32),
        lambda: chebyshev_sum(10**6, ExponentC(8, 7)),
        lambda: residue_equidistribution(10**6, C1710, 7, 1),
    ],
    ids=["squarefree", "chebyshev", "residue"],
)
def test_value_harnesses_hold_one_block_of_values_at_a_time(harness):
    # the 10^6 values alone take 8 MB as int64; a block of CHUNK takes 0.5 MB
    tracemalloc.start()
    try:
        harness()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
