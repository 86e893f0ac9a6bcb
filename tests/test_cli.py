import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pslab.cli import main
from pslab.expsum import SumInstance, eval_sum


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
    code, _, err = run(capsys, "experiment", "squarefree", "--x", "100000000", "--c", "3/2")
    assert code == 3 and "guard" in err.lower()


def test_bt_ratio_refuses_a_large_modulus(capsys):
    # d over the factorization guard: phi(d) refuses it before any sieving
    code, out, err = run(
        capsys, "primes", "bt-ratio", "--x", str(10**8), "--d", str(10**15 + 1), "--a", "1", "--c", "21/20"
    )
    assert code == 3 and out == "" and "guard" in err.lower()


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
