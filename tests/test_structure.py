"""One path per job: the package keeps a single thread pool, a single chunk
constant, no smallest-prime-factor table route, one vectorized route in
floor_pow_bulk, one value generator, one sorted-array membership lookup,
one sieve route, one exact rational power in pscore, one e(x), reports
built once, one square-divisibility test and one cost rule for it, and
each job done by the call that already does it; nothing is read from the
environment, and the command line has no root options and names each
command once."""
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


def test_cli_leaves_carry_their_runners():
    # each leaf parser binds its runner; no second table of command names
    assert re.findall(r"_HANDLERS|def _cmd_|args\.\w+_cmd ==|args\.kind ==", SOURCES["cli.py"]) == []


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
    assert "def in_sorted(" in SOURCES["pscore.py"] and "in_sorted(" in SOURCES["experiments.py"]
    # psprimes decides membership only through is_ps_value_bulk over the
    # sieve's primes, with is_ps_value as the sampled witness; it generates
    # no values and reads no bitmap
    psprimes = SOURCES["psprimes.py"]
    assert "in_sorted" not in psprimes
    assert re.search(r"value_blocks|floor_pow|\.contains\(", psprimes) is None
    in_psprimes = [f for name, f in _sites(r"\bis_ps_value(_bulk)?\(") if name == "psprimes.py"]
    assert in_psprimes == ["_ps_prime_mask_cached"] * 2
    assert psprimes.count("is_ps_value_bulk(") == 1
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
    assert _count(r"_exceeds_power_exact|_check_cells|RunConfig|_parse_fraction"
                  r"|mobius_up_to|MOBIUS_LIMIT_GUARD|log_sum") == 0


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
    from pslab import arith, pscore

    assert _count(r"_values_upto|ps_value_chunks") == 0
    # every value array is built by pscore.value_blocks, block by block;
    # value_preimages is the one other caller, for its candidate preimages
    assert _sites(r"(?<!def )\bfloor_pow_bulk\(") == [("pscore.py", "value_blocks"), ("pscore.py", "value_preimages")]
    # ps_values_in filters value_blocks and floors no preimage of its own
    walk = inspect.getsource(pscore.ps_values_in)
    assert "value_blocks(" in walk and re.search(r"_floor_pow\(\w+, c\.p, c\.q\)", walk) is None
    # and factor_stream factors what it is given, with no slicing of its own
    assert "CHUNK" not in inspect.getsource(arith.factor_stream)


def test_sequence_primes_are_one_masked_selection():
    from pslab import psprimes

    # the witness samples are read from the mask by index
    fill = inspect.getsource(psprimes._ps_prime_mask_cached)
    assert "buf" not in fill and "searchsorted(" not in fill


def test_miller_rabin_takes_two_to_the_s_from_the_lowest_set_bit():
    from pslab import arith

    assert "while True" not in inspect.getsource(arith._is_sprp_bulk)


def test_deciles_come_from_one_percentile_call():
    assert "10 * k" not in inspect.getsource(experiments.large_pf_exceed)


def test_only_experiments_spells_the_decile_keys():
    assert "d{k}0" not in SOURCES["cli.py"]


def test_one_square_divisibility_test_and_one_cost_rule():
    source = SOURCES["experiments.py"]
    assert not hasattr(experiments, "REMAINDERS_PER_MULTIPLE")
    # no remainder by d^2 in the harnesses; the residue count's % q stays
    assert re.findall(r"% ?dd|% \(d", source) == []
    assert "% q" in source
    assert _sites(r"MULTIPLE_COST\[") == [("experiments.py", "_by_multiples")]
    # inverses mod 2^w come from one helper, for both division-free tests
    assert _sites(r"pow\(.*, -1,") == []
    assert _sites(r"(?<!def )\b_inverses\(") == [("arith.py", "divisible"), ("arith.py", "factor_stream")]
