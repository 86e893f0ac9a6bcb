import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pslab import (
    GuardError,
    ValidationError,
    discrepancy_lhs,
    erdos_turan_rhs,
    psi,
    vaaler_kernel,
)
from pslab.sawtooth import _GROUP, _M

# dense grid plus probes hugging the discontinuity at the integers
GRID = np.concatenate(
    [
        np.linspace(0.0, 1.0, 100001, endpoint=False),
        np.array([1e-12, 1e-9, 1e-7, 1 - 1e-12, 1 - 1e-9, 1 - 1e-7]),
    ]
)


def test_psi_values():
    assert psi(0.25) == -0.25
    assert psi(0.0) == -0.5
    assert psi(1.75) == 0.25


def test_psi_periodic_exact():
    t = np.linspace(-3, 3, 1537)
    assert np.array_equal(psi(t + 1.0), psi(t + 2.0))
    for x in (-2.5, -0.25, 0.0, 0.125, 0.75):
        assert psi(x + 1) == psi(x)


def test_psi_range():
    t = np.linspace(-5, 5, 20011)
    v = psi(t)
    assert np.all(v >= -0.5) and np.all(v < 0.5)


@pytest.mark.parametrize("H", [1, 3, 10, 100])
def test_vaaler_pointwise_inequality(H):
    k = vaaler_kernel(H)
    err = np.abs(psi(GRID) - k.approx(GRID))
    maj = k.majorant(GRID)
    assert float(np.max(err - maj)) <= 1e-9


@pytest.mark.parametrize("H", [1, 10, 100])
def test_vaaler_coefficient_bounds(H):
    k = vaaler_kernel(H)
    h = np.arange(1, H + 1)
    assert np.all(np.abs(k.c_imag) <= 1.0 / (np.pi * h) + 1e-12)
    assert np.all((0.0 <= k.d) & (k.d <= 1.0 / (H + 1) + 1e-15))


@pytest.mark.parametrize("H", [1, 10, 100])
def test_vaaler_majorant_nonnegative(H):
    k = vaaler_kernel(H)
    assert float(np.min(k.majorant(GRID))) >= -1e-12


def test_vaaler_majorant_dominates_jump():
    # at the discontinuity the error is exactly 1/2 and sum d_h must cover it
    for H in (1, 10, 100):
        k = vaaler_kernel(H)
        total = k.d[0] + 2.0 * k.d[1:].sum()
        err0 = abs(psi(0.0) - float(k.approx(0.0)[0]))
        assert total >= err0 - 1e-12


def test_vaaler_guard():
    with pytest.raises(ValidationError):
        vaaler_kernel(0)
    with pytest.raises(ValidationError):
        vaaler_kernel(10**5 + 1)


@pytest.mark.parametrize("H", [2.5, 3.0, "3", True])
def test_degrees_must_be_integers(H):
    # vaaler_kernel(2.5) once built 3 coefficients damped at h/3.5, and
    # erdos_turan_rhs raised numpy's TypeError
    with pytest.raises(ValidationError):
        vaaler_kernel(H)
    with pytest.raises(ValidationError):
        erdos_turan_rhs([0.1, 0.2], H)
    assert vaaler_kernel(np.int64(3)).H == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_refused(bad):
    # a nan point made erdos_turan_rhs nan and counted above beta in
    # discrepancy_lhs; the check comes before the kernels allocate
    pts = [0.1, bad, 0.3]
    k = vaaler_kernel(5)
    for call in (k.approx, k.majorant, lambda t: erdos_turan_rhs(t, 3), lambda t: discrepancy_lhs(t, 0.5)):
        with pytest.raises(ValidationError):
            call(pts)
    t0 = time.perf_counter()
    with pytest.raises(ValidationError):
        erdos_turan_rhs([bad], 10**6)  # S would hold 10^6 sums
    assert time.perf_counter() - t0 < 1.0


def test_kernel_matrices_refused_before_allocation():
    from pslab.sawtooth import SAWTOOTH_CELLS_GUARD

    H = 100
    t = np.zeros(SAWTOOTH_CELLS_GUARD // H + 1)  # one row past the guard
    k = vaaler_kernel(H)
    for call in (k.approx, k.majorant, lambda pts: erdos_turan_rhs(pts, H)):
        with pytest.raises(GuardError):
            call(t)
    # one point: H alone passes the guard, where S would take 16 H bytes
    for H in (10**9, 10**11):
        t0 = time.perf_counter()
        with pytest.raises(GuardError):
            erdos_turan_rhs([0.25], H)
        assert time.perf_counter() - t0 < 1.0


def _cos_sin_reduced(t, hs):
    """cos and sin of 2 pi h t for every point t (rows) and h (columns), with
    h*t reduced mod 1 into [-1/2, 1/2) exactly, in integers, before the
    angle is formed."""
    num, den = (np.array(v, dtype=object)[:, None] for v in zip(*(float(x).as_integer_ratio() for x in t)))
    r = (np.asarray(hs).astype(object)[None, :] * num) % den
    r = np.where(2 * r >= den, r - den, r)
    ang = 2.0 * math.pi * (r / den).astype(np.float64)
    return np.cos(ang), np.sin(ang)


def _vaaler_series(t, H):
    """approx and majorant of the degree-H kernel from their definitions,
    each point's series summed with math.fsum."""
    K = H + 1
    u = [h / K for h in range(1, H + 1)]
    mult = [math.pi * x * (1 - x) / math.tan(math.pi * x) + x for x in u]
    sin_w = np.array([-m / (math.pi * h) for h, m in enumerate(mult, 1)])
    cos_w = np.array([(1 - x) / K for x in u])
    cos, sin = _cos_sin_reduced(t, range(1, H + 1))
    approx = [math.fsum((sin_w * row).tolist()) for row in sin]
    maj = [math.fsum([1 / (2 * K)] + (cos_w * row).tolist()) for row in cos]
    return np.array(approx), np.array(maj)


EDGE_POINTS = [1e-12, 1 - 1e-12, 10**6 + 0.3]
EDGE_DEGREES = sorted({1, 15, 16, 17, 64 * 16 + 1, _M - 1, _M, _M + 1, _GROUP * _M + 1})


@pytest.mark.parametrize(
    "H, t",
    [
        # at 10^9 + 0.3, forming the angle before reducing mod 1 moves approx by ~1e-8
        (10**4, [1e-9, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1 - 1e-9, 10**9 + 0.3] + EDGE_POINTS),
        (10**5, EDGE_POINTS),
        # one power row, fewer powers than _M, partial and whole rows of _M
        # powers, and one or two groups of _GROUP rows, the last group one row
        # with one weight
        *[(H, [0.1, 0.37, 0.5, 0.93] + EDGE_POINTS) for H in EDGE_DEGREES],
    ],
)
def test_vaaler_kernel_matches_fsum_series(H, t):
    k = vaaler_kernel(H)
    approx, maj = _vaaler_series(t, H)
    assert float(np.max(np.abs(k.approx(t) - approx))) <= 1e-10
    assert float(np.max(np.abs(k.majorant(t) - maj))) <= 1e-10


def test_blocked_kernels_equal_one_block(monkeypatch):
    from pslab import sawtooth

    k = vaaler_kernel(60)
    t = np.linspace(-3.0, 7.0, 2 * sawtooth.POINT_BLOCK + 4321)
    blocked = k.approx(t), k.majorant(t), erdos_turan_rhs(t, 60)
    monkeypatch.setattr(sawtooth, "POINT_BLOCK", t.size)
    whole = k.approx(t), k.majorant(t), erdos_turan_rhs(t, 60)
    assert np.array_equal(blocked[0], whole[0]) and np.array_equal(blocked[1], whole[1])
    # S_h is accumulated over the blocks, so only its rounding may differ
    assert blocked[2] == pytest.approx(whole[2], rel=1e-12)


def _erdos_turan_fsum(t, H):
    """K/(H+1) + 3 sum_h |S_h|/h with every S_h summed by math.fsum."""
    cos, sin = _cos_sin_reduced(t, range(1, H + 1))
    terms = [len(t) / (H + 1)] + [
        3.0 * math.hypot(math.fsum(cos[:, h - 1].tolist()), math.fsum(sin[:, h - 1].tolist())) / h
        for h in range(1, H + 1)
    ]
    return math.fsum(terms)


def test_erdos_turan_matches_fsum_recount():
    K, H = 2000, 500
    t = np.arange(1, K + 1, dtype=np.float64) ** (2.0 / 3.0)
    want = _erdos_turan_fsum(t, H)
    assert abs(erdos_turan_rhs(t, H) - want) <= 1e-10 * want


@pytest.mark.parametrize("H", EDGE_DEGREES)
def test_erdos_turan_matches_fsum_at_row_and_group_edges(H):
    t = np.concatenate([np.arange(1, 501, dtype=np.float64) ** (2.0 / 3.0), EDGE_POINTS])
    want = _erdos_turan_fsum(t, H)
    assert abs(erdos_turan_rhs(t, H) - want) <= 1e-10 * want


def test_erdos_turan_memory_linear_in_points():
    t = np.arange(1, 10**5 + 1, dtype=np.float64) ** (2.0 / 3.0)
    tracemalloc.start()
    try:
        erdos_turan_rhs(t, 500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("P, H", [(10**5, 500), (500, 10**5)])
def test_kernel_memory_bounded_at_both_guard_corners(P, H):
    # the power rows and GEMM blocks take a few blocks of points whatever H
    # is; beyond them only the output (approx, majorant) or S (erdos_turan_rhs)
    t = np.arange(1, P + 1, dtype=np.float64) ** (2.0 / 3.0)
    k = vaaler_kernel(H)
    for call in (k.approx, k.majorant, lambda pts: erdos_turan_rhs(pts, H)):
        tracemalloc.start()
        try:
            call(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from pslab import erdos_turan_rhs, vaaler_kernel
t = np.arange(1, 30001, dtype=np.float64) ** (2.0 / 3.0)
k = vaaler_kernel(1200)
h = hashlib.sha256()
h.update(k.approx(t).tobytes())
h.update(k.majorant(t).tobytes())
h.update(np.float64(erdos_turan_rhs(t, 1200)).tobytes())
print(h.hexdigest())
"""


def test_kernels_bit_equal_under_one_and_two_blas_threads():
    import pslab

    src = str(Path(pslab.__file__).resolve().parent.parent)
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_discrepancy_examples():
    assert discrepancy_lhs(np.zeros(10), 0.5) == 5.0
    pts = np.arange(10) / 10.0
    for m in range(1, 10):
        assert abs(discrepancy_lhs(pts, m / 10)) <= 1.0
    t = (np.arange(1, 10**4 + 1) * np.sqrt(2.0)) % 1.0
    assert abs(discrepancy_lhs(t, 0.3)) < 50.0


def test_discrepancy_rejects_bad_beta():
    with pytest.raises(ValidationError):
        discrepancy_lhs([0.1], 0.0)
    with pytest.raises(ValidationError):
        discrepancy_lhs([0.1], 1.0)
    with pytest.raises(ValidationError):
        discrepancy_lhs([], 0.5)


def test_erdos_turan_trivial_cases():
    rhs = erdos_turan_rhs(np.zeros(25), 4)
    assert rhs >= 25.0  # every |S_h| = K
    H = 7
    single = erdos_turan_rhs(np.array([0.37]), H)
    harmonic = sum(1.0 / h for h in range(1, H + 1))
    assert single >= 1.0 / (H + 1) + 3.0 * harmonic - 1e-12


def test_erdos_turan_dominates_discrepancy():
    t = (np.arange(1, 10**4 + 1) * np.sqrt(2.0)) % 1.0
    for H in (10, 100):
        rhs = erdos_turan_rhs(t, H)
        for beta in np.linspace(0.01, 0.99, 100):
            assert abs(discrepancy_lhs(t, float(beta))) <= rhs


def test_erdos_turan_golden_ratio_sequence():
    # a second badly-approximable rotation as an independent sequence
    phi = (1 + np.sqrt(5.0)) / 2
    t = (np.arange(1, 3001) * phi) % 1.0
    rhs = erdos_turan_rhs(t, 50)
    for beta in (0.1, 0.37, 0.5, 0.82):
        assert abs(discrepancy_lhs(t, beta)) <= rhs
