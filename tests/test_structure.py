"""One path per job: the package keeps a single thread pool, a single chunk
constant, no smallest-prime-factor table route, one vectorized route in
floor_pow_bulk, one value generator, one sorted-array membership lookup,
one sieve route, one exact rational power in pscore, one e(x), and reports
built once; nothing is read from the environment and the command line has
no root options."""
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


def test_no_environment_reads():
    assert _count(r"environ|getenv") == 0


def test_root_parser_has_no_options():
    from pslab import cli

    assert [s for a in cli.build_parser()._actions for s in a.option_strings] == ["-h", "--help"]


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


def test_power_comparisons_only_in_pscore():
    assert re.findall(r"bit_length|mpmath|EXACT_DEN_MAX", SOURCES["experiments.py"]) == []
    assert _count(r"mpmath") == SOURCES["pscore.py"].count("from mpmath.libmp import") == 1


def test_primes_up_to_has_one_sieve_route():
    from pslab import arith

    assert inspect.getsource(arith.primes_up_to).count("_simple_sieve(") == 1


def _sites(pattern):
    """(module, function) for each line matching pattern, by the enclosing def."""
    sites = []
    for name, text in SOURCES.items():
        func = None
        for line in text.splitlines():
            m = re.match(r"\s*def (\w+)\(", line)
            if m:
                func = m.group(1)
            if re.search(pattern, line):
                sites.append((name, func))
    return sorted(sites)


def test_guard_errors_come_from_the_range_check():
    # besides check_range: the factorization value guard, the residue
    # harness's admissible-range bound and the primality proof bound
    assert _sites(r"raise GuardError\(") == [
        ("arith.py", "is_prime"),
        ("errors.py", "check_range"),
        ("experiments.py", "_check_values"),
        ("experiments.py", "residue_equidistribution"),
    ]


def test_one_rational_parser():
    assert _count(r'partition\("/"\)') == 1
    assert _count(r"_exceeds_power_exact|_check_cells|RunConfig|_parse_fraction") == 0


def test_no_knobs_with_one_value_in_use():
    assert "eps" not in inspect.signature(experiments.convolution_count).parameters


def test_one_e_of_x():
    from pslab import expsum

    # e(x) = exp(2 pi i x) comes from expsum.cis2pi and its cos/sin table only
    assert "np.mod(" not in SOURCES["expsum.py"]
    assert _count(r"np\.exp\(|\dj\b") == 0
    assert _count(r"np\.(cos|sin)\(") == 2
    assert inspect.getsource(expsum._e_table).count("np.cos(") == 1
    assert all("cis2pi(" in SOURCES[name] for name in ("expsum.py", "sawtooth.py"))


def test_one_value_generator():
    from pslab import arith

    assert _count(r"_values_upto|ps_value_chunks") == 0
    # every value array is built by pscore.value_blocks, block by block
    assert _sites(r"(?<!def )\bfloor_pow_bulk\(") == [("pscore.py", "value_blocks")]
    # and factor_stream factors what it is given, with no slicing of its own
    assert "CHUNK" not in inspect.getsource(arith.factor_stream)
