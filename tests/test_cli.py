import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pslab import experiments as xp
from pslab import expsum, psprimes
from pslab.carmichael import is_ps_carmichael
from pslab.cli import main
from pslab.exppairs import lpf_exponent
from pslab.expsum import SumInstance, eval_sum
from pslab.pscore import ExponentC, count_decomposition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ps_floor(capsys):
    code, out, _ = run(capsys, "ps", "floor", "--n", "10", "--c", "3/2")
    assert code == 0 and out.strip() == "31"


def test_ps_member_and_values(capsys):
    code, out, _ = run(capsys, "ps", "member", "--k", "5", "--c", "3/2")
    assert code == 0 and "preimage=3" in out
    code, out, _ = run(capsys, "ps", "values", "--lo", "1", "--hi", "12", "--c", "3/2")
    assert [line.split("\t")[0] for line in out.strip().splitlines()] == ["1", "2", "5", "8", "11"]


def test_pairs_chain_reference(capsys):
    code, out, _ = run(
        capsys, "pairs", "chain", "--ops", "BAAAA", "--kappa", "32/205", "--lambda", "269/410"
    )
    assert code == 0 and out.strip() == "3843/8480 4304/8480"


def test_pairs_thresholds(capsys):
    code, out, _ = run(capsys, "pairs", "square-divisibility-threshold")
    assert code == 0 and out.startswith("149/87")
    code, out, _ = run(capsys, "pairs", "carmichael-threshold", "--E", "7039/10000")
    assert code == 0 and out.startswith("516702/509663")
    code, out, _ = run(
        capsys, "pairs", "sv-threshold", "--kappa", "3843/8480", "--lambda", "4304/8480"
    )
    assert code == 0 and out.startswith("24979/20803")


def test_pairs_exponent(capsys):
    code, out, _ = run(capsys, "pairs", "exponent", "--c", "3/2")
    assert code == 0 and out.startswith("55/172")


def test_experiment_squarefree_csv(capsys):
    code, out, _ = run(
        capsys, "experiment", "squarefree", "--x", "1000", "--c", "3/2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "experiment,param_json,observed,reference,ratio,runtime_ms"
    fields = lines[1].split(",")
    assert fields[0] == "squarefree_density"
    assert float(fields[2]) > 0


def test_experiment_json_format(capsys):
    code, out, _ = run(
        capsys, "experiment", "chebyshev", "--x", "100", "--c", "3/2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["experiment"] == "chebyshev_sum"


def test_experiment_series_tsv_plot(capsys, tmp_path):
    target = tmp_path / "series.tsv"
    code, _, _ = run(
        capsys,
        "experiment", "squarefree", "--x", "100", "--c", "3/2",
        "--series", "100,1000,10000", "--format", "tsv-plot", "--output", str(target),
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("#") and "ratio" in lines[0]
    assert len(lines) == 4


def test_determinism_modulo_runtime(capsys, tmp_path):
    argv = ["experiment", "residues", "--N", "10000", "--c", "17/10", "--q", "7", "--format", "csv"]
    outs = []
    for name in ("a.csv", "b.csv"):
        target = tmp_path / name
        code, _, _ = run(capsys, *argv, "--output", str(target))
        assert code == 0
        text = re.sub(r",\d+$", ",RUNTIME", target.read_text(), flags=re.M)
        outs.append(text)
    assert outs[0] == outs[1]


def test_primes_commands(capsys):
    code, out, _ = run(capsys, "primes", "count", "--x", "20", "--d", "4", "--a", "1")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "primes", "count", "--x", "50", "--d", "1", "--a", "0", "--c", "3/2")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "primes", "main-term", "--x", "1000", "--d", "4", "--a", "1", "--c", "21/20")
    assert code == 0 and float(out.strip()) > 0


@pytest.mark.parametrize("cmd", ["count", "log-weight"])
def test_primes_modulus_zero_is_a_usage_error(capsys, cmd):
    code, out, err = run(capsys, "primes", cmd, "--x", "100", "--d", "0", "--a", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_carmichael_search_json_lines(capsys):
    code, out, _ = run(capsys, "carmichael", "search", "--limit", "2000", "--c", "1001/1000")
    assert code == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert [o["N"] for o in objs] == [561, 1105, 1729]
    assert objs[0]["factors"] == [3, 11, 17]


def test_carmichael_search_all_keeps_non_members(capsys):
    code, out, _ = run(capsys, "carmichael", "search", "--limit", "2000", "--c", "3/2", "--all")
    assert code == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert [o["N"] for o in objs] == [561, 1105, 1729]
    assert objs[0]["factors"] == [3, 11, 17] and objs[0]["ps"][0] is False


def test_sum_eval_and_bounds(capsys):
    inst = json.dumps(
        {"phase": {"A": 0.2, "exponents": [[0, 2.0]]}, "ranges": [[5, False]], "seed": None}
    )
    code, out, _ = run(capsys, "sum", "eval", "--instance", inst)
    assert code == 0 and "abs=" in out
    code, out, _ = run(capsys, "sum", "bound", "--kind", "trilinear", "--M", "1", "--N", "1", "--F", "1")
    assert code == 0 and out.strip() == "9.0"


def test_sawtooth_commands(capsys):
    code, out, _ = run(capsys, "sawtooth", "vaaler-check", "--H", "10", "--grid", "5001")
    assert code == 0 and "ok=True" in out
    code, out, _ = run(capsys, "sawtooth", "discrepancy", "--K", "1000", "--H", "10", "--beta", "0.3")
    assert code == 0 and "ok=True" in out


def test_sawtooth_refuses_oversized_kernel_matrix_at_once(capsys):
    # the default 100001-point grid at H = 10^5 would ask for a 10^10-cell matrix
    t0 = time.perf_counter()
    code, _, err = run(capsys, "sawtooth", "vaaler-check", "--H", "100000")
    assert code == 3 and "guard" in err.lower()
    assert time.perf_counter() - t0 < 5.0


def test_vaaler_check_refuses_points_x_h_before_building_the_grid():
    # 3*10^7 points x H = 2 is over the guard; building the grid first
    # would take several hundred MB before the refusal.  VmHWM is the child's
    # own peak; ru_maxrss would carry pytest's peak across fork and exec
    child = (
        "import time\n"
        "from pslab.cli import main\n"
        "t0 = time.perf_counter()\n"
        "code = main(['sawtooth', 'vaaler-check', '--H', '2', '--grid', '30000000'])\n"
        "took = time.perf_counter() - t0\n"
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(code, took, hwm.split()[1])\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", child],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, took, rss_kb = proc.stdout.split()
    assert int(code) == 3 and "guard" in proc.stderr.lower()
    assert float(took) < 1.0 and int(rss_kb) < 150 * 1024


def test_discrepancy_refuses_points_x_h_before_building_the_points(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "sawtooth", "discrepancy", "--K", "30000000", "--H", "2", "--beta", "0.3")
    assert code == 3 and out == "" and "guard" in err.lower()
    assert time.perf_counter() - t0 < 1.0


def test_experiment_chebyshev_reaches_c_near_two(capsys):
    code, out, _ = run(capsys, "experiment", "chebyshev", "--x", "20000", "--c", "19/10")
    assert code == 0 and out.splitlines()[1].startswith("chebyshev_sum,")


def test_exit_code_validation_error(capsys):
    code, _, err = run(capsys, "ps", "floor", "--n", "10", "--c", "1.5")
    assert code == 2 and "rational" in err


def test_exit_code_guard_error(capsys):
    code, _, err = run(capsys, "experiment", "squarefree", "--x", "100000001", "--c", "3/2")
    assert code == 3 and "guard" in err.lower()


def test_bt_ratio_refuses_a_large_modulus(capsys):
    # d over the factorization guard: phi(d) refuses it before any sieving
    code, out, err = run(
        capsys, "primes", "bt-ratio", "--x", str(10**8), "--d", str(10**15 + 1), "--a", "1", "--c", "21/20"
    )
    assert code == 3 and out == "" and "guard" in err.lower()


@pytest.mark.parametrize(
    "cmd, c, expected",
    [("count", None, "1"), ("count", "3/2", "0"), ("log-weight", None, repr(math.log(3))),
     ("log-weight", "3/2", "0.0"), ("main-term", "3/2", repr(2 / 3 * 3.0 ** (2 / 3 - 1)))],
)
def test_primes_take_a_modulus_beyond_int64(capsys, cmd, c, expected):
    # the progression holds the prime 3 alone; it is no value floor(n^(3/2)),
    # and main-term weighs it as gamma 3^(gamma - 1)
    argv = ["primes", cmd, "--x", "100", "--d", str(10**20), "--a", "3"] + (["--c", c] if c else [])
    code, out, err = run(capsys, *argv)
    assert (code, out.strip(), err) == (0, expected, "")


def test_threads_flag_deterministic(capsys, tmp_path):
    # sum eval is the one pooled command; 300 x 300 terms make three blocks
    # of whole 300-term rows, at most 2^15 terms each, so its pool of one
    # worker per CPU may run them apart, and it prints the one-worker value
    # all the same
    inst = tmp_path / "inst.json"
    inst.write_text(
        json.dumps(
            {
                "phase": {"A": 0.37, "exponents": [[0, 1.5], [1, 0.5]]},
                "ranges": [[300, True], [300, False]],
                "seed": None,
            }
        )
    )
    value = eval_sum(SumInstance.from_json(inst.read_text()), threads=1)
    code, out, _ = run(capsys, "sum", "eval", "--instance", str(inst))
    assert code == 0
    assert out == f"{value.real!r} {value.imag!r} abs={abs(value)!r}\n"


def _one_error_line(err):
    return err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("series", ["1000.7,2000.9", "1e3", "100,abc"])
def test_experiment_series_accepts_only_integers(capsys, series):
    # a float entry must not decide an integer x
    code, out, err = run(
        capsys, "experiment", "squarefree", "--x", "100", "--c", "3/2", "--series", series
    )
    assert code == 2 and out == "" and _one_error_line(err)


@pytest.mark.parametrize("q", ["0", "-3"])
@pytest.mark.parametrize("fmt", ["csv", "tsv-plot"])
def test_experiment_residues_rejects_q_below_one(capsys, q, fmt):
    code, out, err = run(
        capsys, "experiment", "residues", "--N", "1000", "--c", "17/10", "--q", q, "--format", fmt
    )
    assert code == 2 and out == "" and _one_error_line(err)


@pytest.mark.parametrize(
    "instance", ["{}", "notjson", "[1]", '{"phase": {"A": 1}, "ranges": [[5, false]]}']
)
def test_sum_eval_rejects_malformed_instance(capsys, instance):
    code, out, err = run(capsys, "sum", "eval", "--instance", instance)
    assert code == 2 and out == "" and _one_error_line(err)


@pytest.mark.parametrize("series", [",", " , ,"])
@pytest.mark.parametrize("fmt", ["csv", "tsv-plot"])
def test_experiment_series_refuses_a_list_without_entries(capsys, series, fmt):
    code, out, err = run(
        capsys, "experiment", "squarefree", "--x", "100", "--c", "3/2", "--series", series, "--format", fmt
    )
    assert code == 2 and out == "" and _one_error_line(err)


@pytest.mark.parametrize("grid", ["0", "-5"])
def test_vaaler_check_refuses_a_grid_below_one(capsys, grid):
    code, out, err = run(capsys, "sawtooth", "vaaler-check", "--H", "10", "--grid", grid)
    assert code == 2 and out == "" and _one_error_line(err)


@pytest.mark.parametrize("text", ["-1/-2", "1/-2", "0/-1", "1/0", "0.5"])
def test_pairs_rationals_need_a_positive_denominator(capsys, text):
    code, out, err = run(capsys, "pairs", "carmichael-threshold", f"--E={text}")
    assert code == 2 and out == "" and _one_error_line(err) and "rational" in err


def test_carmichael_search_refuses_a_negative_limit(capsys):
    code, out, err = run(capsys, "carmichael", "search", "--limit=-1", "--c", "1001/1000")
    assert code == 2 and out == "" and _one_error_line(err)


# one success-path test per leaf that had none; each compares the printed
# value with the library call's own result


def _report(r):
    obj = json.loads(r.to_json())
    del obj["runtime_ms"]
    return obj


def _printed_reports(out):
    objs = [json.loads(line) for line in out.strip().splitlines()]
    for obj in objs:
        del obj["runtime_ms"]
    return objs


def test_ps_decompose(capsys):
    main_, corr, exact = count_decomposition(1000, ExponentC(3, 2), np.ones_like)
    code, out, _ = run(capsys, "ps", "decompose", "--K", "1000", "--c", "3/2")
    assert code == 0
    assert out == f"main={main_!r} correction={corr!r} exact={exact!r} residual={exact-main_-corr!r}\n"


def test_pairs_exponent_table(capsys):
    code, out, _ = run(capsys, "pairs", "exponent-table", "--samples", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# c\texponent"
    lo, hi = Fraction(243, 205), Fraction(2)
    cs = [lo + (hi - lo) * Fraction(i, 4) for i in range(4)]
    assert lines[1:] == [f"{c.numerator}/{c.denominator}\t{float(lpf_exponent(c))!r}" for c in cs]


def test_experiment_smooth(capsys):
    code, out, _ = run(
        capsys, "experiment", "smooth", "--x", "1000", "--c", "3/2", "--eps", "0.3",
        "--series", "500,1000", "--format", "json",
    )
    assert code == 0
    assert _printed_reports(out) == [_report(xp.smooth_count(x, ExponentC(3, 2), 0.3)) for x in (500, 1000)]


def test_experiment_largepf(capsys):
    theta = lpf_exponent(Fraction(8, 5))
    code, out, _ = run(capsys, "experiment", "largepf", "--x", "1000", "--c", "8/5", "--format", "json")
    assert code == 0
    assert _printed_reports(out) == [_report(xp.large_pf_exceed(1000, ExponentC(8, 5), theta, 0.05))]


def test_experiment_largepf_deciles_by_c(capsys):
    code, out, _ = run(
        capsys, "experiment", "largepf", "--x", "1000", "--c", "8/5",
        "--c-list", "3/2,8/5", "--theta", "0.3", "--eps", "0.01", "--format", "tsv-plot",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# " + "\t".join(["c"] + [f"d{k}0" for k in range(1, 10)])
    for line, c in zip(lines[1:], (ExponentC(3, 2), ExponentC(8, 5)), strict=True):
        extras = xp.large_pf_exceed(1000, c, 0.3, 0.01).extras
        assert line == "\t".join([str(c)] + [repr(extras[f"d{k}0"]) for k in range(1, 10)])


def test_experiment_squaredivisor(capsys):
    lhs, rhs = xp.square_divisor_sum(1000, ExponentC(3, 2), 5, np.ones_like)
    code, out, _ = run(capsys, "experiment", "squaredivisor", "--x", "1000", "--c", "3/2", "--D", "5")
    assert code == 0 and out == f"lhs={lhs!r} rhs={rhs!r}\n"


def test_experiment_convolution(capsys):
    total = xp.convolution_count(1000, ExponentC(3, 2), np.ones_like)
    code, out, _ = run(capsys, "experiment", "convolution", "--x", "1000", "--c", "3/2")
    assert code == 0 and out == f"{total!r}\n"


def test_primes_log_weight(capsys):
    code, out, _ = run(capsys, "primes", "log-weight", "--x", "1000", "--d", "4", "--a", "1")
    assert code == 0 and out == f"{psprimes.theta_ap(1000, 4, 1)!r}\n"
    value = psprimes.vartheta_c_ap(psprimes.ApQuery(1000, 4, 1, ExponentC(21, 20)))
    code, out, _ = run(capsys, "primes", "log-weight", "--x", "1000", "--d", "4", "--a", "1", "--c", "21/20")
    assert code == 0 and out == f"{value!r}\n"


def test_carmichael_check(capsys):
    c = ExponentC(1001, 1000)
    code, out, _ = run(capsys, "carmichael", "check", "--N", "561", "--c", "1001/1000")
    assert code == 0 and out == is_ps_carmichael(561, c).to_json_line(c) + "\n"
    assert is_ps_carmichael(560, c) is None
    code, out, _ = run(capsys, "carmichael", "check", "--N", "560", "--c", "1001/1000")
    assert code == 0 and out == "560 rejected\n"


@pytest.mark.parametrize(
    "kind, bound, lam",
    [
        ("vdc2", expsum.bound_second_derivative, 0.5),
        ("vdc3", expsum.bound_third_derivative, 0.5),
        ("kusmin-landau", expsum.bound_kusmin_landau, 0.25),
    ],
)
def test_sum_bound_kinds(capsys, kind, bound, lam):
    code, out, _ = run(capsys, "sum", "bound", "--kind", kind, "--N", "10", "--lam", str(lam))
    assert code == 0 and out == f"{bound(10.0, lam)!r}\n"


def test_ps_values_refuses_a_range_past_its_guard(capsys):
    # 10^6 preimages, each with one exact floor
    t0 = time.perf_counter()
    code, out, err = run(capsys, "ps", "values", "--lo", "1", "--hi", str(10**9), "--c", "3/2")
    assert code == 3 and out == "" and "guard" in err.lower()
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("samples, code_", [("0", 2), ("-3", 2), (str(10**5 + 1), 3)])
def test_exponent_table_checks_samples_before_the_loop(capsys, samples, code_):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "pairs", "exponent-table", "--samples", samples)
    assert code == code_ and out == "" and _one_error_line(err) and "--samples" in err
    assert time.perf_counter() - t0 < 1.0


def test_largepf_refuses_theta_minus_eps_beyond_float64(capsys):
    code, out, err = run(
        capsys, "experiment", "largepf", "--x", "100", "--c", "3/2", "--theta", "1e308", "--eps=-1e308"
    )
    assert code == 2 and out == "" and _one_error_line(err)


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "vdc2", "--N", "10", "--lam", "nan"],
        ["--kind", "vdc3", "--N", "10", "--lam", "inf"],
        ["--kind", "kusmin-landau", "--N", "nan", "--lam", "0.25"],
        ["--kind", "trilinear", "--M", "nan", "--N", "5", "--F", "1"],
    ],
)
def test_sum_bound_refuses_non_finite_arguments(capsys, argv):
    code, out, err = run(capsys, "sum", "bound", *argv)
    assert code == 2 and out == "" and _one_error_line(err)
