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
    GuardError,
    ValidationError,
    count_decomposition,
    floor_pow,
    floor_pow_bulk,
    integer_root,
    is_ps_value,
    is_ps_value_bulk,
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


def test_ps_values_in_refuses_too_many_preimages_at_once():
    # at 1001/1000 each preimage near 10^6 costs about 0.2 ms, so a walk to
    # 10^18 would not end; the count is refused before the first value
    t0 = time.perf_counter()
    with pytest.raises(GuardError):
        next(ps_values_in(1, 10**18, ExponentC(1001, 1000)))
    with pytest.raises(GuardError):
        next(ps_values_in(10**6, 10**18, C32))
    assert time.perf_counter() - t0 < 1.0
    # the guard counts preimages, not values: this range has exactly that many
    last = pscore.PS_VALUES_GUARD
    assert sum(1 for _ in ps_values_in(1, floor_pow(last, C32), C32)) == last
    with pytest.raises(GuardError):
        next(ps_values_in(1, floor_pow(last + 1, C32), C32))


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


def _record_band(monkeypatch):
    # the elements floor_pow_bulk hands to its exact settle, by either route
    settled = []
    settle = pscore._settle_band

    def recorded(ns, m, a, b, tol):
        settled.extend(ns.tolist())
        return settle(ns, m, a, b, tol)

    monkeypatch.setattr(pscore, "_settle_band", recorded)
    return settled


def test_floor_pow_bulk_repair_band_keeps_its_margin(monkeypatch):
    # every element whose float candidate lies within 10x the largest float
    # error seen of an integer must be settled exactly; at c = 1001/1000
    # rounding c to float64 costs nearly the whole 2^-53 budget
    mpmath = pytest.importorskip("mpmath")
    c = ExponentC(1001, 1000)
    ns = np.arange(10**12, 10**12 + 4000, dtype=np.int64)
    settled = _record_band(monkeypatch)
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
    settled = _record_band(monkeypatch)
    floor_pow_bulk(ns, C32)
    v = np.power(ns.astype(np.float64), C32.as_float)
    with mpmath.workprec(160):
        worst = max(abs(mpmath.mpf(float(vi)) - mpmath.mpf(int(n)) ** 1.5) for n, vi in zip(ns, v))
    dist = np.minimum(v - np.floor(v), np.ceil(v) - v)
    must = set(ns[dist < 10.0 * float(worst)].tolist())
    assert worst > 0 and must and must <= set(settled)
    assert len(settled) < 0.06 * ns.size


def test_floor_pow_bulk_repair_band_keeps_its_margin_below_one(monkeypatch):
    # is_ps_value_bulk roots k at the inverse exponent q/p; 20/21 is not
    # dyadic, so rounding it to float64 joins pow's error in the budget
    mpmath = pytest.importorskip("mpmath")
    ns = np.arange(10**12, 10**12 + 4000, dtype=np.int64)
    settled = _record_band(monkeypatch)
    pscore._floor_pow_bulk(ns, 20, 21)
    v = np.power(ns.astype(np.float64), 20 / 21)
    with mpmath.workprec(160):
        e = mpmath.mpf(20) / 21
        worst = max(abs(mpmath.mpf(float(vi)) - mpmath.mpf(int(n)) ** e) for n, vi in zip(ns, v))
    dist = np.minimum(v - np.floor(v), np.ceil(v) - v)
    must = set(ns[dist < 10.0 * float(worst)].tolist())
    assert worst > 0 and must and must <= set(settled)


@pytest.mark.parametrize("a, b", [(2, 3), (7, 10), (20, 21), (1000, 1001), (150000, 300001)])
def test_floor_pow_bulk_below_one_matches_floor_pow(a, b):
    # the inverse exponents of is_ps_value_bulk: perfect b-th powers and
    # their neighbours, and windows at 1, 10^9, 2^53 and 2^62, past which
    # an exponent above 62/63 takes the object path
    ns = [m**b + d for m in (2, 3, 7, 1000, 2**20) if m.bit_length() * b < 62 for d in (-1, 0, 1)]
    for start in (1, 10**9, 2**53 - 50, 2**62):
        ns += range(start, start + 100)
    got = pscore._floor_pow_bulk(np.array(ns, dtype=np.int64), a, b)
    assert got.dtype == (object if 63 * a > 62 * b else np.int64)
    assert [int(v) for v in got] == [pscore._floor_pow(n, a, b) for n in ns]


@pytest.mark.parametrize("a, b, start", [(3, 2, 10**6), (300001, 150000, 10**6), (20, 21, 2**21 - 2048)])
def test_floor_pow_bulk_slices_match_floor_pow_across_boundaries(monkeypatch, a, b, start):
    # 3 CHUNK + 17 elements drawn from a pool, the pool's largest last, so
    # the band is the pool's; band elements of the pool sit on both sides of
    # every slice boundary
    pool = np.arange(start, start + 4096, dtype=np.int64)
    settled = _record_band(monkeypatch)
    pscore._floor_pow_bulk(pool, a, b)
    band = sorted(set(settled))
    ns = np.random.default_rng(a).choice(pool, 3 * pscore.CHUNK + 17)
    ns[-1] = pool[-1]
    edges = [j * pscore.CHUNK + d for j in (1, 2, 3) for d in (-1, 0)]
    ns[edges] = [band[i % len(band)] for i in range(len(edges))]
    settled.clear()
    got = pscore._floor_pow_bulk(ns, a, b)
    assert got.dtype == np.int64 and set(ns[edges].tolist()) <= set(settled)
    exact = {n: pscore._floor_pow(n, a, b) for n in set(ns.tolist())}
    assert got.tolist() == [exact[n] for n in ns.tolist()]


def test_floor_pow_bulk_holds_one_slice_of_temporaries():
    # the 10^6 results take 8 MB; each float64 temporary over the whole
    # input would take 8 MB more
    import tracemalloc

    ns = np.arange(1, 10**6 + 1, dtype=np.int64)
    tracemalloc.start()
    try:
        floor_pow_bulk(ns, C32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


C_MEMBERSHIP = [ExponentC(*pq) for pq in [(3, 2), (8, 7), (17, 10), (21, 20), (1001, 1000), (300001, 150000)]]


@settings(max_examples=60, deadline=None)
@given(c=st.sampled_from(C_MEMBERSHIP), data=st.data())
def test_is_ps_value_bulk_matches_is_ps_value(c, data):
    # values and their neighbours, perfect p-th powers (the one case where
    # floor(k^(1/c)) itself is the preimage) and their neighbours, k = 1,
    # and k around the value of the last n on floor_pow_bulk's int64 path
    top = 2 ** _fit_bits(c) - 1
    k_top = floor_pow(top, c)
    bits = data.draw(st.integers(1, _fit_bits(c)))
    n = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    m = data.draw(st.integers(1, integer_root(k_top, c.p)))
    ks = [floor_pow(n, c) + d for d in (-1, 0, 1)] + [m**c.p + d for d in (-1, 0, 1)]
    ks = [k for k in ks + [1, k_top - 1, k_top, k_top + 1] if k >= 1]
    got = is_ps_value_bulk(np.array(ks, dtype=np.int64), c)
    assert got.dtype == bool
    assert got.tolist() == [is_ps_value(k, c).is_member for k in ks]


def test_is_ps_value_bulk_edges():
    assert is_ps_value_bulk(np.empty(0, dtype=np.int64), C32).tolist() == []
    # 1 = 1^c, 8 = 4^(3/2) and 27 = 9^(3/2) are values only by n0 = floor(k^(2/3))
    assert is_ps_value_bulk(np.array([1, 2, 3, 8, 27]), C32).tolist() == [True, True, False, True, True]
    with pytest.raises(ValidationError):
        is_ps_value_bulk(np.array([5, 0]), C32)


def test_is_ps_value_bulk_runs_by_chunk():
    # longer than CHUNK, with its largest (and so its perfect p-th powers)
    # in the last chunk: the same answers as one call per chunk and as
    # is_ps_value, across each chunk boundary
    cubes = [m**3 + d for m in (10**4, 2 * 10**5) for d in (-1, 0, 1)]
    ks = np.concatenate([np.arange(1, 2 * pscore.CHUNK + 10, dtype=np.int64), cubes])
    got = is_ps_value_bulk(ks, C32)
    per_chunk = [is_ps_value_bulk(ks[lo : lo + pscore.CHUNK], C32) for lo in range(0, ks.size, pscore.CHUNK)]
    assert got.tolist() == np.concatenate(per_chunk).tolist()
    around = np.r_[pscore.CHUNK - 40 : pscore.CHUNK + 40, 2 * pscore.CHUNK - 40 : ks.size]
    assert got[around].tolist() == [is_ps_value(int(k), C32).is_member for k in ks[around]]


C_WINDOWS = [ExponentC(*pq) for pq in [(3, 2), (8, 7), (17, 10), (21, 20), (1001, 1000)]]


def test_value_blocks_take_preimages_beyond_int64():
    # np.arange over Python ints that reach 2^63 wraps to -2^63 or turns to
    # float64; a block that reaches 2^63 is a range of Python ints instead.
    # Blocks that straddle 2^63, that end at 2^63 - 1 with the next one
    # starting at 2^63, and that start at 2^64, all exact
    runs = [(2**63 - 2, 2**63 - 1), (2**63 - 3, 2**63 + 2), (2**63 - pscore.CHUNK, 2**63 + 1), (2**64, 2**64 + 3)]
    for c, (lo, hi) in [*((C32, run) for run in runs), (ExponentC(1001, 1000), runs[1]), (ExponentC(1001, 1000), runs[3])]:
        blocks = list(pscore.value_blocks(lo, hi, c))
        assert [b.size for b in blocks] == [min(pscore.CHUNK, hi + 1 - s) for s in range(lo, hi + 1, pscore.CHUNK)]
        assert all(b.dtype == object for b in blocks)  # never float64, never wrapped int64
        vals = [v for b in blocks for v in b.tolist()]
        assert all(type(v) is int and v > 0 for v in vals)
        if hi - lo < 10:
            assert vals == [floor_pow(n, c) for n in range(lo, hi + 1)]
        else:  # the CHUNK-long block: its ends and a sample, then strictly increasing
            sample = [0, 1, 777, pscore.CHUNK - 2, pscore.CHUNK - 1, pscore.CHUNK, pscore.CHUNK + 1]
            assert [vals[i] for i in sample] == [floor_pow(lo + i, c) for i in sample]
            assert all(a < b for a, b in zip(vals, vals[1:]))


def _multiples_found(s, V, c):
    found = list(pscore.multiple_preimages(np.array(s, dtype=np.int64), V, c))
    return [(int(i), int(k), int(n)) for part in found for i, k, n in zip(*part)]


@settings(max_examples=40, deadline=None)
@given(c=st.sampled_from(C_WINDOWS), power=st.booleans(), data=st.data())
def test_multiple_preimages_match_exact_per_value_checks(c, power, data):
    # moduli that divide a value a (a floor, or a perfect p-th power, the
    # one kind whose preimage is floor(a^(1/c)) itself) and one drawn up to
    # V, each with a few dozen multiples at most, from 1 to 2^62; every
    # multiple is decided again by the scalar is_ps_value
    bits = data.draw(st.integers(1, 62))
    if power:
        a = data.draw(st.integers(1, integer_root(2**bits, c.p))) ** c.p
    else:
        a = floor_pow(data.draw(st.integers(1, pscore.last_preimage(2**bits, c))), c)
    V = data.draw(st.integers(a, a + a // 2))
    moduli = [a, a // math.gcd(a, data.draw(st.integers(1, 8))), data.draw(st.integers(max(1, V // 32), V))]
    want = []
    for i, s in enumerate(moduli):
        for m in range(1, V // s + 1):
            w = is_ps_value(m * s, c)
            if w.is_member:
                want.append((i, m * s, w.preimage))
    assert (0, a, is_ps_value(a, c).preimage) in want
    assert _multiples_found(moduli, V, c) == want


@pytest.mark.parametrize("c", C_WINDOWS + [ExponentC(19, 10)])
def test_multiple_preimages_of_small_moduli_against_the_value_blocks(c):
    # every multiple of s up to V, s = 1 among them, against the divisible
    # values of value_blocks, in (modulus, value) order; moduli above V and
    # a bound between two values give none beyond them
    V = 10**5 + 1
    s = [1, 4, 6, 9, 25, 49, 1000, 99991, V, V + 1]
    n_top = pscore.last_preimage(V, c)
    vals = np.concatenate(list(pscore.value_blocks(1, n_top, c)))
    want = [(i, int(vals[n - 1]), n) for i, m in enumerate(s) for n in (np.flatnonzero(vals % m == 0) + 1).tolist()]
    assert _multiples_found(s, V, c) == want
    assert _multiples_found([], V, c) == [] and _multiples_found([7], 6, c) == []


def test_is_ps_value_bulk_takes_each_chunk_s_perfect_powers_from_its_own_range():
    # chunks far below and far above most of the perfect p-th powers: the
    # same answers as is_ps_value at every power and its neighbours
    cubes = np.array([m**3 for m in range(1, 2 * 10**5, 997)], dtype=np.int64)
    ks = np.concatenate([np.arange(1, pscore.CHUNK + 1, dtype=np.int64), cubes - 1, cubes, cubes + 1])
    ks = ks[ks >= 1]
    got = is_ps_value_bulk(ks, C32)
    pick = np.r_[0 : 50, pscore.CHUNK - 50 : ks.size]
    assert got[pick].tolist() == [is_ps_value(int(k), C32).is_member for k in ks[pick]]


@settings(max_examples=80, deadline=None)
@given(c=st.sampled_from(C_WINDOWS), at_fit=st.booleans(), data=st.data())
def test_floor_pow_bulk_windows_match_floor_pow(c, at_fit, data):
    # windows log-uniform in n, which reach both settles of the band (a band
    # below 1/2 compared in bulk, a wider one per element), or ending at the
    # largest n of the int64 path
    width = data.draw(st.integers(1, 300))
    top = 2 ** _fit_bits(c) - 1
    if at_fit:
        lo = top - width + 1
    else:
        bits = data.draw(st.integers(1, _fit_bits(c)))
        lo = min(data.draw(st.integers(2 ** (bits - 1), 2**bits - 1)), top - width + 1)
    _check_bulk(np.arange(lo, lo + width), c)


def test_floor_pow_bulk_settles_a_narrow_band_by_comparison(monkeypatch):
    # below a band of 1/2 and EXACT_BITS bits of n^p no element reaches
    # floor_pow; at 300001/150000 n^p is too large and each one does
    calls = []
    exact_floor_pow = pscore.floor_pow

    def counted(n, c):
        calls.append(n)
        return exact_floor_pow(n, c)

    monkeypatch.setattr(pscore, "floor_pow", counted)
    settled = _record_band(monkeypatch)
    ns = np.arange(3 * 10**8, 3 * 10**8 + 20000, dtype=np.int64)
    got = floor_pow_bulk(ns, C32)
    assert settled and not calls
    assert [int(v) for v in got] == [integer_root(int(n) ** 3, 2) for n in ns]
    settled.clear()
    floor_pow_bulk(np.arange(10**6, 10**6 + 2000, dtype=np.int64), ExponentC(300001, 150000))
    assert settled and calls == settled


@pytest.mark.parametrize("q", [3, 5, 7, 1001])
@pytest.mark.parametrize("r", [3, 2**39 + 12345, 2**40 - 1, 2**40, 2**40 + 1, 3 * 2**40 + 7])
def test_integer_root_next_to_perfect_powers_around_2_40(r, q):
    # below 2^40 the float estimate alone starts the bracket check, from
    # 2^40 up Newton runs first; both must land on r - 1 or r exactly
    assert integer_root(r**q - 1, q) == r - 1
    assert integer_root(r**q, q) == r
    assert integer_root(r**q + 1, q) == r


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


C701 = ExponentC(701, 700)


@pytest.mark.parametrize("c, base", [(c, base) for c in C_WINDOWS for base in (1, 2**63 - 3)] + [(C701, 9_652_000_000_000)])
@settings(max_examples=12, deadline=None)
@given(j=st.integers(0, 4), d=st.integers(-2, 1), width=st.integers(0, 40), chunk=st.sampled_from([1, 2, 3, 7]))
@example(j=3, d=0, width=0, chunk=1)  # from 2^63 - 3: preimages 2^63 - 1 and 2^63, one block each
@example(j=0, d=0, width=40, chunk=3)
def test_ps_values_in_is_the_is_ps_value_filter_across_blocks(c, base, j, d, width, chunk):
    # value ranges [lo, lo + width] from lo = floor(n0^c) + d, whose
    # preimages run over several blocks (CHUNK made small) and, with n0
    # near 2^63, from int64 preimages into the blocks of Python ints; at
    # 701/700 near values 10^13 most floors fall in the float band
    n0 = base + j
    lo = max(floor_pow(n0, c) + d, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pscore, "CHUNK", chunk)
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


def test_decomposition_sums_are_the_chunked_two_sided_psi_sums():
    # each chunk's correction is psi(-(k+1)^gamma) - psi(-k^gamma) with both
    # powers formed separately, summed per chunk and combined by fsum
    from pslab.sawtooth import psi

    K, c = 2 * pscore.CHUNK + 17, ExponentC(17, 10)
    g = c.gamma

    def z(ks):
        return np.sqrt(ks) % 7.0

    main, corr = [], []
    for start in range(1, K + 1, pscore.CHUNK):
        ks = np.arange(start, min(start + pscore.CHUNK, K + 1), dtype=np.float64)
        main.append(float(np.sum(z(ks) * ks ** (g - 1.0))))
        corr.append(float(np.sum(z(ks) * (psi(-((ks + 1.0) ** g)) - psi(-(ks**g))))))
    assert count_decomposition(K, c, z)[:2] == (g * math.fsum(main), math.fsum(corr))


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
