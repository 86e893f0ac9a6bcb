import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab import (
    GuardError,
    ValidationError,
    euler_phi,
    factor_stream,
    factorize,
    is_prime,
    is_squarefree,
    is_squarefree_bulk,
    largest_prime_factor,
    primes_up_to,
)
from pslab.arith import SEGMENT_SIZE, _simple_sieve, divisible

# classical prime counts pi(10^k)
PI_TABLE = {10: 4, 100: 25, 10**3: 168, 10**4: 1229, 10**6: 78498}


def test_sieve_counts():
    for limit, count in PI_TABLE.items():
        assert primes_up_to(limit).primes.size == count
    assert primes_up_to(1).primes.size == 0
    assert list(primes_up_to(10).primes) == [2, 3, 5, 7]


def test_sieve_segmented_matches_simple():
    # limit straddling several segment boundaries
    limit = (1 << 18) * 3 + 12345
    seg = primes_up_to(limit).primes
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    assert np.array_equal(seg, np.nonzero(flags)[0])


def test_sieve_one_route_matches_simple_sieve():
    from pslab.arith import SEGMENT_SIZE, _simple_sieve, divisible

    limits = [*range(3000), SEGMENT_SIZE - 1, SEGMENT_SIZE, SEGMENT_SIZE + 1, 2 * SEGMENT_SIZE + 7]
    for limit in limits:
        assert np.array_equal(primes_up_to(limit).primes, _simple_sieve(limit)), limit


def test_sieve_guard():
    with pytest.raises(GuardError):
        primes_up_to(10**9 + 1)


def test_sieve_matches_simple_sieve_at_segment_and_pattern_edges():
    # segment k starts at the odd number 1 + 2*SEGMENT_SIZE*k; the
    # 3*5*7*11*13 pattern repeats every 2*15015 numbers
    limits = [3 + 2 * SEGMENT_SIZE * k + d for k in (1, 2) for d in range(-2, 3)]
    limits += [2 * 15015 * k + d for k in (1, 2, 3, 4) for d in (-1, 0, 1, 2)]
    for limit in limits:
        assert np.array_equal(primes_up_to(limit).primes, _simple_sieve(limit)), limit


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3 * 10**6))
def test_sieve_matches_simple_sieve_property(limit):
    assert np.array_equal(primes_up_to(limit).primes, _simple_sieve(limit))


def test_sieve_keeps_the_pattern_primes():
    for limit in range(40):
        small = primes_up_to(limit).primes
        assert small[small <= 13].tolist() == [p for p in (2, 3, 5, 7, 11, 13) if p <= limit]


def test_sieve_large_counts_and_dtype():
    for limit, count in ((10**7, 664579), (10**8, 5761455)):
        primes = primes_up_to(limit).primes
        assert primes.dtype == np.int64
        assert primes.size == count


def test_sieve_is_shared_and_read_only():
    sieve = primes_up_to(10**4)
    assert primes_up_to(10**4) is sieve
    with pytest.raises(ValueError):
        sieve.primes[0] = 4


def _assert_bitmap_matches_primes(limit):
    # the sieve's primes read as a membership mask over 0..limit+1: it flags
    # exactly the primes up to limit (against the simple sieve everywhere and
    # against is_prime in the last 256 entries), and never limit + 1
    sieve = primes_up_to(limit)
    got = np.zeros(limit + 2, dtype=bool)
    got[sieve.primes] = True
    want = np.zeros(limit + 2, dtype=bool)
    want[_simple_sieve(limit)] = True
    assert np.array_equal(got, want), limit
    tail = range(max(limit - 256, 0), limit + 2)
    assert [bool(got[v]) for v in tail] == [v <= limit and is_prime(v) for v in tail], limit


@pytest.mark.parametrize("limit", [*range(41), *(2 * SEGMENT_SIZE + d for d in (-1, 0, 1, 2))])
def test_sieve_bitmap_matches_primes(limit):
    _assert_bitmap_matches_primes(limit)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 3 * 2**20))
def test_sieve_bitmap_matches_primes_property(limit):
    _assert_bitmap_matches_primes(limit)


def test_is_prime_small_and_bases():
    sieve = primes_up_to(10**4).primes
    marks = np.zeros(10**4 + 1, dtype=bool)
    marks[sieve] = True
    for n in range(2, 10**4 + 1):
        assert is_prime(n) == bool(marks[n])
    assert is_prime(999999999989)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_factorize_examples():
    assert factorize(12).entries == ((2, 2), (3, 1))
    assert factorize(561).entries == ((3, 1), (11, 1), (17, 1))
    assert factorize(1).entries == ()


def test_factorize_recompose_randomized():
    rng = np.random.default_rng(23)
    for decade in range(1, 14):
        lo, hi = 10**decade, 10 ** (decade + 1)
        count = 400 if decade <= 9 else 40
        for m in rng.integers(lo, min(hi, 10**14), count):
            m = int(m)
            fm = factorize(m)
            assert math.prod(p**e for p, e in fm.entries) == m
            assert all(is_prime(p) for p, _ in fm.entries)


def test_factorize_guard():
    with pytest.raises(GuardError):
        factorize(10**14 + 1)


def test_factorize_hard_semiprimes():
    # two primes just under 1e7 make a rho-requiring semiprime near the guard
    ps = [n for n in range(10**7 - 1, 10**7 - 60, -2) if is_prime(n)][:2]
    p, q = max(ps), min(ps)
    assert factorize(p * q).entries == ((q, 1), (p, 1))
    assert factorize(10**13 + 39).entries[-1][0] > 10**6  # large prime survives


def test_largest_prime_factor():
    assert largest_prime_factor(8) == 2
    assert largest_prime_factor(561) == 17
    assert largest_prime_factor(97) == 97
    with pytest.raises(ValidationError):
        largest_prime_factor(1)


def test_lpf_multiplicative_property():
    rng = np.random.default_rng(31)
    primes = primes_up_to(10**4).primes
    for _ in range(200):
        m = int(rng.integers(2, 10**8))
        p = int(primes[rng.integers(0, primes.size)])
        assert largest_prime_factor(m * p) == max(largest_prime_factor(m), p)


def test_is_squarefree_examples():
    assert is_squarefree(10)
    assert not is_squarefree(8)
    assert is_squarefree(999999999989)


def test_is_squarefree_bulk_matches_slow():
    rng = np.random.default_rng(41)
    vals = rng.integers(1, 10**9, 4000).astype(np.int64)
    bulk = is_squarefree_bulk(vals)
    for v, b in zip(vals, bulk):
        assert bool(b) == is_squarefree(int(v))


def _assert_matches_factorize(values):
    """Every factor_stream field against the scalar factorize route."""
    fs = factor_stream(np.array(values, dtype=np.int64))
    fms = [factorize(int(v)) for v in values]
    assert fs.squarefree.tolist() == [f.is_squarefree() for f in fms]
    assert fs.largest_prime().tolist() == [f.max_prime() if f.entries else 1 for f in fms]
    logs = math.fsum(math.log(p) for f in fms for p in f.primes())
    assert math.fsum(fs.log_terms()) == pytest.approx(logs, rel=1e-12, abs=0.0)


# trial division stops at cbrt(10^12) = 10^4; 10007 is the first prime above,
# 9973 the last one below
FACTOR_STREAM_EDGES = [
    [1],
    [2, 3, 5, 7, 9973, 10007, 999999999989],
    [10007**2, 10**12],              # p^2 cofactor, p the first prime above the bound
    [2 * 10007**2, 10**12],
    [10007 * 10009, 10**12],         # pq, both above the bound
    [999983 * 1000003, 10**12],
    [10**12, 10**12 - 1, 999999999989, 2**39],
    [9973**3],                       # p^3, p the last prime of the bound
    [343],                           # 7^3, bound 7
    [9973**2 * 7, 10**12],
    [4, 5, 6, 7],                    # bound 1: 4 = 2^2 and 6 = 2*3 are cofactors
    [13, 23],                        # prime cofactors that are Miller-Rabin bases
    [1662803],
]
# pq cofactors of their own one-value stream.  Strong pseudoprimes to base 2:
# 2047, 1373653, 25326001 and 4759123141 (also to 13 and 23).  Each of the
# last four fails exactly one of the bases 2, 13, 23, 1662803, in that order.
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 4759123141,
                       97071211, 4033, 16705021, 2510569]


@pytest.mark.parametrize("values", FACTOR_STREAM_EDGES + [[n] for n in STRONG_PSEUDOPRIMES])
def test_factor_stream_edge_cases(values):
    _assert_matches_factorize(values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 10**12), min_size=1, max_size=40))
def test_factor_stream_matches_factorize(values):
    _assert_matches_factorize(values)


_COFACTOR_PRIMES = primes_up_to(2 * 10**6).primes[::211].tolist()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_COFACTOR_PRIMES),
            st.sampled_from(_COFACTOR_PRIMES),
            st.integers(1, 60),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_factor_stream_products_of_large_primes(triples):
    # p*q*k puts prime, p^2 and pq cofactors on both sides of the bound
    values = [p * q * k for p, q, k in triples if p * q * k <= 10**12]
    if values:
        _assert_matches_factorize(values)


def test_factor_stream_refuses_out_of_range_values():
    with pytest.raises(GuardError):
        factor_stream(np.array([10**12 + 1], dtype=np.int64))
    with pytest.raises(ValidationError):
        factor_stream(np.array([0, 5], dtype=np.int64))
    assert factor_stream(np.zeros(0, dtype=np.int64)).log_terms() == []


def test_log_sum_equals_one_list_fsum():
    from pslab.pscore import CHUNK

    # more cofactors above 1 than one CHUNK: log_terms() lists every prime's
    # term and then every cofactor's, all in one list for one fsum
    vals = np.arange(10**6, 10**6 + 3 * CHUNK, dtype=np.int64) ** 2 // 7 + 1
    fs = factor_stream(vals)
    r = np.where(fs.square, fs.root, fs.cofactor)
    assert int(np.count_nonzero(r > 1)) > CHUNK
    terms = [h * math.log(p) for p, h in zip(fs.primes.tolist(), fs.hits.tolist()) if h]
    assert fs.log_terms() == terms + np.log(r[r > 1].astype(np.float64)).tolist()


def _stream_near(top, seed):
    """More than two CHUNKs of values up to top (top itself included), with
    prime powers mixed in so the p^2 test and the divide-out run."""
    from pslab.pscore import CHUNK

    rng = np.random.default_rng(seed)
    size = 2 * CHUNK + 4321
    mults = np.array([1, 2, 4, 3, 8, 9, 25, 49, 2**12, 3**7, 1331, 1021**2, 1601 * 1607])
    m = mults[rng.integers(0, mults.size, size)]
    vals = rng.integers(1, top // m + 1) * m
    vals[rng.integers(0, size, 50)] = top - rng.integers(0, 1000, 50)
    vals[-1] = top
    return vals.astype(np.int64)


@pytest.mark.parametrize("top", [2**32 - 1, 2**32 + 15])  # the two word widths
def test_factor_stream_blocks_at_both_widths(top):
    vals = _stream_near(top, seed=top % 1000)
    fs = factor_stream(vals)
    assert fs.bound == 1625  # 1625^3 <= top < 1626^3 for both tops
    assert fs.primes.tolist() == [int(p) for p in _simple_sieve(fs.bound)]
    assert fs.hits.tolist() == [int(np.count_nonzero(vals % p == 0)) for p in fs.primes.tolist()]
    P = fs.largest_prime()
    sample = np.random.default_rng(7).choice(vals.size, 2000, replace=False)
    for i in [*sample.tolist(), vals.size - 1]:
        entries = factorize(int(vals[i])).entries
        small = [(p, e) for p, e in entries if p <= fs.bound]
        cofactor = int(vals[i]) // math.prod(p**e for p, e in small)
        assert fs.small_max[i] == (small[-1][0] if small else 1)
        assert fs.cofactor[i] == cofactor
        assert fs.root[i] == math.isqrt(cofactor)
        assert fs.squarefree[i] == all(e == 1 for _, e in entries)
        assert P[i] == (entries[-1][0] if entries else 1)


_ODD = st.integers(0, 1_500_000_000).map(lambda o: 2 * o + 1)
_MODULI = st.one_of(
    st.just(1),
    st.integers(0, 62).map(lambda k: 2**k),
    st.tuples(st.integers(1, 15), st.integers(0, 5000)).map(lambda t: 4 ** t[0] * (2 * t[1] + 1) ** 2),
    _ODD.map(lambda o: o * o),
    # just above a multiple of 2^32: cut to a uint32 word they would read 1 or 5
    st.sampled_from([2**32 + 1, (2**16 + 1) ** 2, 3 * 2**32 + 5]),
)


@settings(max_examples=200, deadline=None)
@given(top=st.sampled_from([2**32 - 1, 2**63 - 1]), moduli=st.lists(_MODULI, min_size=1, max_size=6), data=st.data())
def test_divisible_matches_remainders(top, moduli, data):
    # moduli 1, powers of 2 and squares, even (2^2k o^2) and odd, up to
    # 9e18, so many lie above every value, and odd moduli a little above a
    # multiple of 2^32; values up to top, both sides of 2^32 (uint32 and
    # uint64 words), powers of 2, multiples of the moduli and their
    # neighbours, and always 0, 1, 2^31 and top
    multiple = st.sampled_from(moduli).flatmap(lambda m: st.integers(0, top // m).map(lambda r: r * m))
    beside = st.tuples(multiple, st.sampled_from([-1, 1])).map(lambda t: min(max(t[0] + t[1], 0), top))
    near = st.integers(2**32 - 4096, min(top, 2**32 + 4096))
    power = st.integers(0, top.bit_length() - 1).map(lambda k: 2**k)
    values = [0, 1, 2**31, top] + data.draw(st.lists(st.one_of(st.integers(0, top), near, power, multiple, beside)))
    got = [hit.tolist() for hit in divisible(np.array(values, dtype=np.int64), np.array(moduli, dtype=np.int64))]
    assert got == [[v % m == 0 for v in values] for m in moduli]


@pytest.mark.parametrize("top", [4_759_123_140, 4_759_123_141, 4_759_123_142])
def test_is_sprp_bulk_on_both_base_sets(top):
    from pslab.arith import _is_sprp_bulk

    rng = np.random.default_rng(top)
    # strong pseudoprimes to base 2 (3215031751 also to 3, 5 and 7;
    # 4759123141 to 2, 7 and 61), Carmichael numbers, a prime square and the
    # two primes below 4759123141
    hard = [2047, 1373653, 25326001, 3215031751, 4759123141, 561, 41041,
            65537**2, 4759123129, 4759123121]
    vals = [*rng.integers(5, top, 3000).tolist(), *hard, top]
    n = np.array([v for v in vals if v <= top], dtype=np.int64)
    assert _is_sprp_bulk(n).tolist() == [is_prime(int(v)) for v in n]


# one step; 20-bit halves; halves where (n - 1)^2 already overflows int64
@pytest.mark.parametrize("n", [3_037_000_499, 3_037_000_500, 3_037_000_501])
def test_mulmod_at_the_one_step_limit(n):
    from pslab.arith import _mulmod

    rng = np.random.default_rng(n)
    a = [n - 1, n - 2, n - 1, 0, 1, *rng.integers(0, n, 500).tolist()]
    b = [n - 1, n - 1, n - 2, n - 1, n - 1, *rng.integers(0, n, 500).tolist()]
    got = _mulmod(np.array(a), np.array(b), np.full(len(a), n))
    assert got.tolist() == [x * y % n for x, y in zip(a, b)]


# primes below 55000 keep p*q under 3037000499, the one-step mulmod; primes
# up to 10^6 reach 10^12, where mulmod works in 20-bit halves
@pytest.mark.parametrize("hi", [55_000, 10**6])
def test_largest_prime_of_semiprimes(hi):
    ps = primes_up_to(hi).primes
    ps = ps[ps > 10**4]
    rng = np.random.default_rng(hi)
    n = ps[rng.integers(0, ps.size, 2000)] * ps[rng.integers(0, ps.size, 2000)]
    assert (n.max() > 3_037_000_499) == (hi > 55_000)
    got = factor_stream(n).largest_prime()
    assert got.tolist() == [factorize(int(v)).max_prime() for v in n]


def test_rho_split_bulk_gives_proper_factors():
    from pslab.arith import _rho_split_bulk

    # odd semiprimes, an even composite and prime squares times a prime
    n = np.array([10007 * 10009, 999983 * 1000003, 6, 10, 15, 1021**2 * 1031, 3 * 5 * 7], dtype=np.int64)
    d = _rho_split_bulk(n)
    assert all(1 < x < v and v % x == 0 for x, v in zip(d.tolist(), n.tolist()))


def test_squarefree_count_to_10_4():
    # Q(10^4), the count of squarefree d <= 10^4, checked by brute force
    assert sum(is_squarefree(d) for d in range(1, 10**4 + 1)) == 6083


def test_euler_phi():
    assert [euler_phi(d) for d in (1, 2, 3, 4, 10, 12)] == [1, 1, 2, 2, 4, 4]
