import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pslab import pscore
from pslab import (
    ExponentC,
    ValidationError,
    count_decomposition,
    floor_pow,
    floor_pow_bulk,
    integer_root,
    is_ps_value,
    ps_values_in,
)

C32 = ExponentC(3, 2)

C_CORPUS = [ExponentC(*pq) for pq in [(3, 2), (11, 10), (17, 10), (5, 3), (21, 20), (5, 2)]]


def test_integer_root_examples():
    assert integer_root(1000, 2) == 31
    assert integer_root(0, 5) == 0
    assert integer_root(2**64, 4) == 2**16


def test_integer_root_bracket_randomized():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        q = int(rng.integers(1, 12))
        m = int(rng.integers(0, 10**12))
        r = integer_root(m, q)
        assert r**q <= m < (r + 1) ** q
    # near perfect powers, where float seeds are most dangerous
    for base in (10**6 - 1, 10**6, 10**6 + 1):
        for q in (2, 3, 5, 7):
            for delta in (-1, 0, 1):
                m = base**q + delta
                r = integer_root(m, q)
                assert r**q <= m < (r + 1) ** q


def test_integer_root_rejects():
    with pytest.raises(ValidationError):
        integer_root(10, 0)
    with pytest.raises(ValidationError):
        integer_root(-1, 2)


def test_exponent_validation():
    with pytest.raises(ValidationError):
        ExponentC(2, 1)  # integer c
    with pytest.raises(ValidationError):
        ExponentC(2, 4)  # not reduced
    with pytest.raises(ValidationError):
        ExponentC(2, 3)  # c < 1
    with pytest.raises(ValidationError):
        ExponentC.parse("1.5")
    assert ExponentC.parse(" 3/2 ") == C32


def test_floor_pow_examples():
    assert floor_pow(2, C32) == 2
    assert floor_pow(1, ExponentC(21, 20)) == 1
    assert floor_pow(10, C32) == 31


def test_floor_pow_exactness_against_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(5)
    for c in C_CORPUS:
        for n in rng.integers(1, 10**5, 200):
            n = int(n)
            hp = mpmath.floor(mpmath.mpf(n) ** (mpmath.mpf(c.p) / c.q))
            exact = floor_pow(n, c)
            # high-precision float agrees whenever it is clearly off-integer;
            # any disagreement must favour the exact path
            dist = abs(mpmath.mpf(n) ** (mpmath.mpf(c.p) / c.q) - mpmath.nint(
                mpmath.mpf(n) ** (mpmath.mpf(c.p) / c.q)))
            if dist >= 1e-6:
                assert exact == int(hp)


def test_floor_pow_monotone():
    for c in C_CORPUS:
        vals = [floor_pow(n, c) for n in range(1, 2000)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_is_ps_value_examples():
    assert is_ps_value(5, C32).preimage == 3
    assert is_ps_value(3, C32).preimage is None
    assert is_ps_value(1, ExponentC(17, 10)).preimage == 1


def test_round_trip_membership():
    for c in C_CORPUS:
        for n in list(range(1, 300)) + [10**4, 10**5]:
            k = floor_pow(n, c)
            w = is_ps_value(k, c)
            assert w.is_member
            assert floor_pow(w.preimage, c) == k


def test_ps_values_in_examples():
    got = [(w.value, w.preimage) for w in ps_values_in(1, 12, C32)]
    assert got == [(1, 1), (2, 2), (5, 3), (8, 4), (11, 5)]
    assert list(ps_values_in(3, 4, C32)) == []


def test_ps_values_in_matches_membership_filter():
    for c in C_CORPUS[:4]:
        stream = {w.value for w in ps_values_in(1, 500, c)}
        direct = {k for k in range(1, 501) if is_ps_value(k, c).is_member}
        assert stream == direct


def test_ps_values_single_point_consistency():
    for k in range(1, 60):
        single = list(ps_values_in(k, k, C32))
        w = is_ps_value(k, C32)
        assert (len(single) == 1) == w.is_member


def test_count_identity():
    # floor(n^c) is strictly increasing, so values <= floor(x^c) biject with n <= x
    for c in C_CORPUS[:4]:
        for x in (10, 100, 1234):
            assert sum(1 for _ in ps_values_in(1, floor_pow(x, c), c)) == x


def test_decomposition_zero_weight():
    main, corr, exact = count_decomposition(100, C32, np.zeros_like)
    assert (main, corr, exact) == (0.0, 0.0, 0.0)


def test_decomposition_small_exact_count():
    main, corr, exact = count_decomposition(10, C32, np.ones_like)
    assert exact == 4.0  # values 1, 2, 5, 8


def test_decomposition_residual_envelope():
    # the O(1) residual stays inside the calibrated envelope across the corpus
    for c in C_CORPUS[:5]:
        main, corr, exact = count_decomposition(10**4, c, np.ones_like)
        assert abs(exact - main - corr) <= 2.0


def test_decomposition_rejects_zero():
    with pytest.raises(ValidationError):
        count_decomposition(0, C32, np.ones_like)


def test_floor_pow_bulk_matches_exact():
    rng = np.random.default_rng(17)
    for c in C_CORPUS:
        ns = np.unique(rng.integers(1, 2 * 10**6, 800).astype(np.int64))
        bulk = floor_pow_bulk(ns, c)
        for n, k in zip(ns, bulk):
            assert int(k) == floor_pow(int(n), c)


def test_floor_pow_bulk_big_value_fallback():
    c = ExponentC(5, 2)  # values ~ n^2.5 blow past the float path quickly
    ns = np.array([10**6, 10**6 + 1], dtype=np.int64)
    bulk = floor_pow_bulk(ns, c)
    assert int(bulk[0]) == floor_pow(10**6, c)


@settings(max_examples=30, deadline=None)
@given(
    c=st.sampled_from(C_CORPUS),
    lo=st.integers(1, 10**6),
    length=st.sampled_from([1, pscore.CHUNK - 1, pscore.CHUNK, pscore.CHUNK + 1, 2 * pscore.CHUNK + 3]),
    data=st.data(),
)
def test_value_blocks_are_full_chunks_of_exact_values(c, lo, length, data):
    blocks = list(pscore.value_blocks(lo, lo + length - 1, c))
    assert [b.size for b in blocks[:-1]] == [pscore.CHUNK] * (len(blocks) - 1)
    assert 1 <= blocks[-1].size <= pscore.CHUNK
    vals = np.concatenate(blocks)
    assert vals.size == length and bool(np.all(np.diff(vals) > 0))
    sample = data.draw(st.lists(st.integers(0, length - 1), max_size=20))
    for i in [0, length - 1, *sample]:
        assert int(vals[i]) == floor_pow(lo + i, c)


@settings(max_examples=60, deadline=None)
@given(c=st.sampled_from(C_CORPUS), m=st.integers(2, 10**6), offset=st.sampled_from([-1, 0, 1]))
def test_last_preimage_brackets_its_bound(c, m, offset):
    X = floor_pow(m, c) + offset
    n = pscore.last_preimage(X, c)
    assert floor_pow(n, c) <= X < floor_pow(n + 1, c)


C_BULK = [ExponentC(*pq) for pq in [(3, 2), (21, 20), (5, 2), (1001, 1000), (41, 2)]]


def _fit_bits(c):
    # n_max < 2^bits with bits * p <= 62 q: floor_pow_bulk returns int64
    return 62 * c.q // c.p


def _check_bulk(ns, c):
    ns = np.asarray(ns, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = floor_pow_bulk(ns, c)
    fits = int(ns.max()).bit_length() <= _fit_bits(c)
    assert got.dtype == (np.int64 if fits else object)
    assert [int(v) for v in got] == [floor_pow(int(n), c) for n in ns]


@settings(max_examples=60, deadline=None)
@given(c=st.sampled_from(C_BULK), data=st.data())
def test_floor_pow_bulk_at_perfect_powers(c, data):
    # n = m^q makes n^c = m^p an integer, the worst case for a float floor
    m = data.draw(st.integers(1, integer_root(2 ** _fit_bits(c) - 3, c.q)))
    spread = data.draw(st.integers(0, 2**20))
    ns = [m**c.q + d for d in (-2, -1, 0, 1, 2) if m**c.q + d >= 1]
    # a larger element widens the repair band, as in a long chunk
    _check_bulk(ns + [min(ns[-1] + spread, 2 ** _fit_bits(c) - 1)], c)


@settings(max_examples=60, deadline=None)
@given(
    c=st.sampled_from(C_BULK),
    where=st.sampled_from(["2^53", "fit", "3e8"]),
    offsets=st.lists(st.integers(-64, 64), min_size=1, max_size=16),
)
@example(c=C32, where="3e8", offsets=list(range(-64, 64)))
def test_floor_pow_bulk_at_path_boundaries(c, where, offsets):
    # values straddling 2^53, n_max on both sides of the int64 fit rule,
    # and a window at n ~ 3e8 (c = 3/2 reaches 5.2e12 there)
    center = {
        "2^53": integer_root(2 ** (53 * c.q), c.p),
        "fit": 2 ** _fit_bits(c),
        "3e8": 3 * 10**8,
    }[where]
    _check_bulk([max(center + d, 1) for d in offsets], c)


@pytest.mark.parametrize("c", C_BULK, ids=str)
def test_floor_pow_bulk_int64_fit_rule(c):
    top = 2 ** _fit_bits(c)
    _check_bulk(np.arange(max(top - 8, 1), top), c)
    _check_bulk(np.arange(max(top - 8, 1), top + 1), c)


def test_floor_pow_bulk_repair_band_keeps_its_margin(monkeypatch):
    # every element whose float candidate lies within 10x the largest float
    # error seen of an integer must be settled exactly; at c = 1001/1000
    # rounding c to float64 costs nearly the whole 2^-53 budget
    mpmath = pytest.importorskip("mpmath")
    c = ExponentC(1001, 1000)
    ns = np.arange(10**12, 10**12 + 4000, dtype=np.int64)
    settled = []
    exact_floor_pow = pscore.floor_pow

    def recorded(n, c):
        settled.append(n)
        return exact_floor_pow(n, c)

    monkeypatch.setattr(pscore, "floor_pow", recorded)
    floor_pow_bulk(ns, c)
    v = np.power(ns.astype(np.float64), c.as_float)
    with mpmath.workprec(160):
        e = mpmath.mpf(c.p) / c.q
        worst = max(abs(mpmath.mpf(float(vi)) - mpmath.mpf(int(n)) ** e) for n, vi in zip(ns, v))
    dist = np.minimum(v - np.floor(v), np.ceil(v) - v)
    must = set(ns[dist < 10.0 * float(worst)].tolist())
    assert worst > 0 and must and must <= set(settled)


def test_floor_pow_bulk_repair_band_keeps_its_margin_when_pow_is_the_budget(monkeypatch):
    # at c = 3/2 rounding c to float64 is exact and n < 2^53, so the band is
    # sized by pow's error alone: it must still cover 10x the largest error
    # seen, and must stay far narrower than the worst-case band (about 40%)
    mpmath = pytest.importorskip("mpmath")
    ns = np.arange(3 * 10**8, 3 * 10**8 + 4000, dtype=np.int64)
    settled = []
    exact_floor_pow = pscore.floor_pow

    def recorded(n, c):
        settled.append(n)
        return exact_floor_pow(n, c)

    monkeypatch.setattr(pscore, "floor_pow", recorded)
    floor_pow_bulk(ns, C32)
    v = np.power(ns.astype(np.float64), C32.as_float)
    with mpmath.workprec(160):
        worst = max(abs(mpmath.mpf(float(vi)) - mpmath.mpf(int(n)) ** 1.5) for n, vi in zip(ns, v))
    dist = np.minimum(v - np.floor(v), np.ceil(v) - v)
    must = set(ns[dist < 10.0 * float(worst)].tolist())
    assert worst > 0 and must and must <= set(settled)
    assert len(settled) < 0.06 * ns.size


@pytest.mark.parametrize("c", [ExponentC(1025, 1024), ExponentC(1001, 1000)], ids=str)
def test_floor_pow_bulk_straddling_n_2_53(c):
    # n itself crosses 2^53, where converting n to float64 starts to round
    _check_bulk(np.arange(2**53 - 32, 2**53 + 32), c)


@pytest.mark.parametrize(
    "n, c",
    [
        (2**45, ExponentC(5, 3)),
        (2**61, ExponentC(1001, 1000)),
        (10**6, ExponentC(10001, 10000)),
        (10**6, ExponentC(300001, 300000)),
        (10**6 + 7, ExponentC(150001, 150000)),
    ],
)
def test_floor_pow_fast_for_big_roots_and_orders(n, c):
    # roots above 2^53, and orders q in the thousands, where a float seed
    # below the root or far above it costs millions of steps; at q ~ 10^5,
    # n^p has millions of bits, which only the interval route avoids
    t0 = time.perf_counter()
    k = floor_pow(n, c)
    assert time.perf_counter() - t0 < 1.0
    assert k**c.q <= n**c.p < (k + 1) ** c.q


def test_is_ps_value_fast_at_large_q():
    c = ExponentC(300001, 300000)
    t0 = time.perf_counter()
    w = is_ps_value(1000046, c)  # floor((10^6)^c)
    assert time.perf_counter() - t0 < 1.0
    assert w.preimage == 10**6


def _preimage_oracle(k, c):
    # the n with k^q <= n^p < (k+1)^q, if any: the smallest n with n^p >= k^q
    r = integer_root(k**c.q, c.p)
    n = r if r**c.p == k**c.q else r + 1
    return n if n**c.p < (k + 1) ** c.q else None


def _large_q_exponents():
    # c = p/q with q in [65, 2000] and p in (q, 2q], in lowest terms
    return st.integers(65, 2000).flatmap(
        lambda q: st.integers(q + 1, 2 * q).filter(lambda p: math.gcd(p, q) == 1).map(lambda p: ExponentC(p, q))
    )


@settings(max_examples=60, deadline=None)
@given(c=_large_q_exponents(), data=st.data())
def test_rational_powers_match_integer_oracles_on_both_routes(c, data):
    # bits(n) up to twice what keeps n^p within EXACT_BITS: both routes
    bits = data.draw(st.integers(1, 2 * pscore.EXACT_BITS // c.p + 1), label="bits")
    n = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1), label="n")
    k = floor_pow(n, c)
    assert k == integer_root(n**c.p, c.q)
    assert k**c.q <= n**c.p < (k + 1) ** c.q
    e = Fraction(c.p, c.q)
    assert not pscore.exceeds(k, n, e) and pscore.exceeds(k + 1, n, e)
    for kk in (k - 1, k, k + 1):
        if kk >= 1:
            assert is_ps_value(kk, c).preimage == _preimage_oracle(kk, c)


@settings(max_examples=40, deadline=None)
@given(c=_large_q_exponents(), data=st.data())
def test_rational_powers_at_perfect_powers(c, data):
    # n = m^q makes n^c = m^p an integer; every such n >= 2^65 exceeds int64,
    # and n^p has at least 65 * 66 * 2 bits; the floor must be m^p exactly
    m = data.draw(st.integers(2, 2 ** max(1, 4096 // c.q)), label="m")
    n, k = m**c.q, m**c.p
    assert floor_pow(n, c) == k
    if c.p * n.bit_length() <= 2 * pscore.EXACT_BITS:  # the integer oracle stays cheap
        assert k == integer_root(n**c.p, c.q)
    assert is_ps_value(k, c).preimage == n
    # the neighbouring values floor((n -+ 1)^c) lie c n^(c-1) > 1 away from k
    assert is_ps_value(k - 1, c).preimage is None
    assert is_ps_value(k + 1, c).preimage is None


@settings(max_examples=30, deadline=None)
@given(lo=st.integers(1, 10**7), width=st.integers(0, 60))
def test_ps_values_in_matches_membership_filter_at_1001_1000(lo, width):
    c = ExponentC(1001, 1000)
    stream = [(w.value, w.preimage) for w in ps_values_in(lo, lo + width, c)]
    direct = [(k, w.preimage) for k in range(lo, lo + width + 1) if (w := is_ps_value(k, c)).is_member]
    assert stream == direct


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 2**3000), q=st.sampled_from([3, 5, 7, 20, 999, 1000, 5000]))
def test_integer_root_bracket_any_size(m, q):
    r = integer_root(m, q)
    assert r**q <= m < (r + 1) ** q


@settings(max_examples=60, deadline=None)
@given(
    c=st.sampled_from(C_CORPUS),
    k=st.integers(1, 2 * 10**4),
    delta=st.sampled_from([-1, 0, 1]),
)
def test_decomposition_exact_part_counts_the_values(c, k, delta):
    # K at a value boundary: floor(n^c) - 1, floor(n^c), floor(n^c) + 1 for n ~ k^(1/c)
    n = max(integer_root(k**c.q, c.p), 1)
    K = max(floor_pow(n, c) + delta, 1)
    exact = count_decomposition(K, c, np.ones_like)[2]
    assert exact == len(list(ps_values_in(1, K, c)))


def test_decomposition_sums_match_fsum_recount():
    K, g = 10**5, C32.gamma
    ks = np.arange(1, K + 1, dtype=np.float64)

    def psi(t):
        return t - np.floor(t) - 0.5

    main, corr, exact = count_decomposition(K, C32, np.ones_like)
    want_main = g * math.fsum(ks ** (g - 1.0))
    want_corr = math.fsum(psi(-((ks + 1.0) ** g)) - psi(-(ks**g)))
    assert abs(main - want_main) <= 1e-12 * abs(want_main)
    assert abs(corr - want_corr) <= 1e-12 * abs(want_corr)


def test_parse_rational():
    from fractions import Fraction

    assert pscore.parse_rational("3/2") == Fraction(3, 2)
    assert pscore.parse_rational(" 6 / 4 ") == Fraction(3, 2)
    assert pscore.parse_rational("-7/3") == Fraction(-7, 3)
    assert pscore.parse_rational("0/5") == 0
    for text in ("1.5", "3", "1/0", "-1/-2", "3/-2", "a/b", "/2", "3/2/1", ""):
        with pytest.raises(ValidationError, match="rational"):
            pscore.parse_rational(text)


def test_exponent_parse_refuses_a_negative_denominator():
    for text in ("-3/-2", "3/-2"):
        with pytest.raises(ValidationError):
            ExponentC.parse(text)
    assert ExponentC.parse("6/4") == C32
