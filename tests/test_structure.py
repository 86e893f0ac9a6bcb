"""One path per job: the package keeps a single thread pool, a single chunk
constant, no smallest-prime-factor table route, one vectorized route in
floor_pow_bulk and one sorted-array membership lookup."""
import inspect
import re
from pathlib import Path

from pslab import experiments

PACKAGE = Path(experiments.__file__).parent
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}


def _count(pattern):
    assert SOURCES
    return sum(len(re.findall(pattern, text)) for text in SOURCES.values())


def test_one_thread_pool():
    assert _count(r"ThreadPoolExecutor\(") == 1


def test_one_chunk_constant():
    assert _count(r"1 << 16") == 1


def test_no_spf_table_route():
    assert _count(r"with_spf|SPF_LIMIT_GUARD") == 0


def test_no_harness_takes_threads():
    harnesses = [
        experiments.squarefree_density,
        experiments.chebyshev_sum,
        experiments.smooth_count,
        experiments.large_pf_exceed,
        experiments.square_divisor_sum,
        experiments.residue_equidistribution,
        experiments.convolution_count,
    ]
    assert [h.__name__ for h in harnesses if "threads" in inspect.signature(h).parameters] == []


def test_floor_pow_bulk_has_one_vectorized_route():
    assert _count(r"_int_root_bulk|_FLOAT_PATH_MAX_VALUE") == 0
    assert len(re.findall(r"dtype=object", SOURCES["pscore.py"])) == 1


def test_one_membership_lookup():
    lookup = r"np\.minimum\(np\.searchsorted"
    assert _count(lookup) == 1 and re.search(lookup, SOURCES["pscore.py"])
    assert "def in_sorted(" in SOURCES["pscore.py"]
    assert all("in_sorted(" in SOURCES[name] for name in ("psprimes.py", "experiments.py"))
    assert "is_ps_value(" not in SOURCES["experiments.py"]
