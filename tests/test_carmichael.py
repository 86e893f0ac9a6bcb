import json

import pytest

from pslab import (
    ExponentC,
    ValidationError,
    carmichael_numbers_up_to,
    fermat_holds,
    is_ps_carmichael,
    korselt,
    search_ps_carmichael,
)
from pslab import carmichael

CLASSICS_1E4 = [561, 1105, 1729, 2465, 2821, 6601, 8911]
CLASSICS_1E5 = CLASSICS_1E4 + [
    10585, 15841, 29341, 41041, 46657, 52633, 62745, 63973, 75361,
]
C_NEAR_ONE = ExponentC(1001, 1000)
C32 = ExponentC(3, 2)


def test_korselt_examples():
    assert korselt(561)
    assert not korselt(6)
    assert korselt(1105)
    assert not korselt(9)  # not squarefree
    assert not korselt(97)  # prime
    with pytest.raises(ValidationError):
        korselt(1)


def test_korselt_implies_fermat():
    for N in CLASSICS_1E5:
        assert korselt(N)
        assert fermat_holds(N)


def test_classical_search():
    assert carmichael_numbers_up_to(10**4) == CLASSICS_1E4
    assert carmichael_numbers_up_to(10**5) == CLASSICS_1E5
    assert carmichael_numbers_up_to(500) == []
    assert carmichael_numbers_up_to(561) == [561]


def test_pinch_counts():
    # R. G. E. Pinch's counts of Carmichael numbers up to 10^6 and 10^7
    hits = carmichael_numbers_up_to(10**7)
    assert sum(1 for N in hits if N <= 10**6) == 43
    assert len(carmichael_numbers_up_to(10**6)) == 43
    assert len(hits) == 105
    assert all(korselt(N) for N in hits)


def test_search_ps_filter_near_one():
    records = search_ps_carmichael(10**4, C_NEAR_ONE)
    assert [r.N for r in records] == CLASSICS_1E4  # every factor is a value at c ~ 1
    first = records[0]
    assert first.factors.primes() == (3, 11, 17)
    assert first.ps_status == (True, True, True)


def test_search_ps_filter_c32_excludes_561():
    assert is_ps_carmichael(561, C32) is None  # 3 is not a value at c = 3/2
    hits = {r.N for r in search_ps_carmichael(10**4, C32)}
    assert 561 not in hits


def test_search_huge_c_empty():
    assert search_ps_carmichael(561, ExponentC(100001, 1000)) == []


def test_non_carmichael_rejected():
    assert is_ps_carmichael(4, C_NEAR_ONE) is None
    assert is_ps_carmichael(561 * 3, C_NEAR_ONE) is None


def test_filter_converges_as_c_drops_to_one():
    # with c -> 1+ every prime becomes a value, so the filtered list grows
    # monotonically toward the unfiltered one
    limit = 10**4
    sizes = []
    for k in (1, 2, 3):
        c = ExponentC(10**k + 1, 10**k)
        sizes.append(len(search_ps_carmichael(limit, c)))
    assert sizes == sorted(sizes)
    assert sizes[-1] == len(CLASSICS_1E4)


def test_record_json_lines():
    rec = search_ps_carmichael(600, C_NEAR_ONE)[0]
    obj = json.loads(rec.to_json_line(C_NEAR_ONE))
    assert obj == {"N": 561, "factors": [3, 11, 17], "ps": [True, True, True], "c": "1001/1000"}


def test_fermat_on_all_hits():
    for rec in search_ps_carmichael(10**4, C_NEAR_ONE):
        assert fermat_holds(rec.N)


def test_is_ps_carmichael_factors_once(monkeypatch):
    calls = []
    factorize = carmichael.factorize
    monkeypatch.setattr(carmichael, "factorize", lambda n: calls.append(n) or factorize(n))
    assert is_ps_carmichael(561, C_NEAR_ONE) is not None
    assert is_ps_carmichael(563, C_NEAR_ONE) is None
    assert calls == [561, 563]


def test_search_limit_range():
    from pslab import GuardError

    with pytest.raises(ValidationError):
        carmichael_numbers_up_to(-1)
    assert carmichael_numbers_up_to(0) == carmichael_numbers_up_to(560) == []
    assert carmichael_numbers_up_to(561) == [561]
    with pytest.raises(GuardError):
        carmichael_numbers_up_to(carmichael.SEARCH_GUARD + 1)
