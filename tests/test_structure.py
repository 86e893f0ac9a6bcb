"""One path per job: the package keeps a single thread pool, a single chunk
constant, no smallest-prime-factor table route, one vectorized route in
floor_pow_bulk, one sorted-array membership lookup, one sieve route, one
scalar power comparison, and reports built once."""
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


def test_reports_are_built_once_with_their_runtime():
    source = SOURCES["experiments.py"]
    # no report gets its runtime patched on after it is built
    assert re.findall(r"runtime_ms\s*=", source) == []
    assert len(re.findall(r"ExperimentReport\(", source)) == source.count("_ms_since(t0)") == 5


def test_bit_lengths_only_in_the_scalar_comparison():
    scalar = inspect.getsource(experiments._exceeds)
    assert SOURCES["experiments.py"].count("bit_length") == scalar.count("bit_length") > 0


def test_primes_up_to_has_one_sieve_route():
    from pslab import arith

    assert inspect.getsource(arith.primes_up_to).count("_simple_sieve(") == 1
