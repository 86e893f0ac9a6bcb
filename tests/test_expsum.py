import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab import (
    GuardError,
    MonomialPhase,
    SumInstance,
    ValidationError,
    balance_terms,
    bound_kusmin_landau,
    bound_second_derivative,
    bound_third_derivative,
    bound_trilinear,
    eval_sum,
)
from pslab.expsum import BLOCK, cis2pi


def _linear_instance(A, N, dyadic=False):
    return SumInstance(MonomialPhase(A, ((0, 1.0),)), ((N, dyadic),))


def test_eval_sum_examples():
    assert abs(eval_sum(_linear_instance(0.5, 2))) < 1e-12  # e(1/2) + e(1) = 0
    inst = SumInstance(MonomialPhase(1e-300, ((0, 0.0),)), ((1000, False),))
    assert abs(eval_sum(inst) - 1000.0) < 1e-9  # flat phase counts lattice points


def test_eval_sum_gauss():
    inst = SumInstance(MonomialPhase(1 / 5, ((0, 2.0),)), ((5, False),))
    assert abs(abs(eval_sum(inst)) - math.sqrt(5.0)) < 1e-9


def test_eval_sum_conjugate_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = float(rng.uniform(-3, 3)) or 0.5
        e = float(rng.uniform(0.3, 2.5))
        N = int(rng.integers(5, 400))
        plus = eval_sum(SumInstance(MonomialPhase(A, ((0, e),)), ((N, True),)))
        minus = eval_sum(SumInstance(MonomialPhase(-A, ((0, e),)), ((N, True),)))
        assert abs(plus - np.conj(minus)) < 1e-12 * max(N, 1)


def test_eval_sum_trivial_bound_and_split():
    inst = SumInstance(MonomialPhase(0.1237, ((0, 1.5),)), ((1000, False),))
    whole = eval_sum(inst)
    assert abs(whole) <= 1000.0
    # splitting the range at an interior point must re-sum to the whole
    left = eval_sum(SumInstance(MonomialPhase(0.1237, ((0, 1.5),)), ((437, False),)))
    ns = np.arange(438, 1001, dtype=np.float64)
    right = complex(np.sum(np.exp(2j * np.pi * np.mod(0.1237 * ns**1.5, 1.0))))
    assert abs(whole - (left + right)) < 1e-9 * abs(whole) + 1e-9


def test_eval_sum_weights_and_joint():
    inst = SumInstance(
        MonomialPhase(1 / 7, ((0, 1.0), (1, 1.0))),
        ((30, False), (30, False)),
        weights=(lambda m: np.cos(m), None),
        joint_weight=lambda m, m1: np.where((m + m1) % 2 == 0, 1.0, -1.0),
    )
    direct = 0j
    for m in range(1, 31):
        for m1 in range(1, 31):
            w = math.cos(m) * (1.0 if (m + m1) % 2 == 0 else -1.0)
            direct += w * np.exp(2j * np.pi * (m * m1 / 7))
    assert abs(eval_sum(inst) - direct) < 1e-9


def test_eval_sum_rejects_unbounded_weights():
    inst = SumInstance(
        MonomialPhase(0.3, ((0, 1.0),)), ((10, False),), weights=(lambda m: 2.0 * m,)
    )
    with pytest.raises(ValidationError):
        eval_sum(inst)


def test_eval_sum_guard():
    with pytest.raises(GuardError):
        eval_sum(SumInstance(MonomialPhase(0.5, ((0, 1.0),)), ((10**9, False),)))


def test_eval_sum_shift_term():
    # phase A*(k*l)^g + shift*k*l, checked against a direct double loop
    inst = SumInstance(
        MonomialPhase(2.0, ((0, 0.5), (1, 0.5)), shift=3 / 11),
        ((12, True), (9, True)),
    )
    direct = 0j
    for k in range(13, 25):
        for l in range(10, 19):
            ph = 2.0 * (k**0.5) * (l**0.5) + 3 / 11 * k * l
            direct += np.exp(2j * np.pi * (ph % 1.0))
    assert abs(eval_sum(inst) - direct) < 1e-9


def test_eval_sum_threads_deterministic():
    inst = SumInstance(MonomialPhase(0.0137, ((0, 1.7),)), ((200000, False),))
    assert eval_sum(inst, threads=1) == eval_sum(inst, threads=4)
    # 60 blocks of one row each
    inst = SumInstance(MonomialPhase(0.2113, ((0, 1.5), (1, 0.5))), ((60, True), (3 * BLOCK // 4, True)))
    values = [eval_sum(inst, threads=n) for n in (1, 2, 4)]
    assert values[0] == values[1] == values[2]


def test_eval_sum_rejects_threads_below_one():
    with pytest.raises(ValidationError):
        eval_sum(_linear_instance(0.5, 2), threads=0)


def _e_mpmath(x: float) -> complex:
    y = mpmath.mpf(x)  # the binary value of x, exactly
    y -= mpmath.floor(y)
    return complex(mpmath.cospi(2 * y), mpmath.sinpi(2 * y))


def test_e_table_entries_within_1_2e_16_at_100_bits():
    from pslab.expsum import _E, _T

    assert _E.shape == (_T,) == (1 << 14,)
    with mpmath.workprec(100):
        for j, z in enumerate(_E.tolist()):
            turn = mpmath.mpf(2 * j) / _T
            assert abs(z.real - mpmath.cospi(turn)) <= 1.2e-16, j
            assert abs(z.imag - mpmath.sinpi(turn)) <= 1.2e-16, j


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_E_ARGUMENTS = st.one_of(
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
    _FINITE.filter(lambda x: abs(x) >= 2.0**52),
    st.integers(-(2**40), 2**40).map(lambda k: k / 4096),
    st.integers(-(2**40), 2**40).map(lambda k: (2 * k + 1) / 8192),
    st.just(0.5),
    _FINITE,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_E_ARGUMENTS, min_size=1, max_size=40))
def test_cis2pi_matches_mpmath(xs):
    got = cis2pi(np.array(xs))
    with mpmath.workprec(80):
        for x, z in zip(xs, got.tolist()):
            assert abs(z - _e_mpmath(x)) <= 1e-15, x


def _rowwise_fsum(A, exps, shift, axes, weights=None, joint=None):
    """sum e(phase) * weights with the phase formed as eval_sum documents
    (factors in axis order), e(x) from libm after an exact mod 1, and each
    row of the last axis summed with math.fsum."""
    grids = np.meshgrid(*axes, indexing="ij")
    phase = np.full(grids[0].shape, A)
    for i, e in exps:
        phase = phase * grids[i] ** e
    if shift:
        prod = grids[0].copy()
        for g in grids[1:]:
            prod = prod * g
        phase = phase + shift * prod
    term = np.exp(2j * np.pi * np.mod(phase, 1.0))
    for i, w in enumerate(weights or ()):
        if w is not None:
            term = term * w(grids[i])
    if joint is not None:
        term = term * joint(*grids)
    rows = term.reshape(-1, axes[-1].size)
    re = math.fsum(math.fsum(r.real.tolist()) for r in rows)
    return complex(re, math.fsum(math.fsum(r.imag.tolist()) for r in rows))


@pytest.mark.parametrize(
    "ranges",
    [
        ((3, True), (2 * BLOCK + 5000, False)),  # rows longer than a block, split
        ((40, True), (30, False), (700, True)),  # many short rows per block
    ],
)
def test_eval_sum_blocks_match_rowwise_fsum(ranges):
    exps = tuple((i, e) for i, e in zip(range(len(ranges)), (1.5, 0.5, 1.25)))
    weights = (lambda m: np.cos(m),) + (None,) * (len(ranges) - 1)
    joint = lambda *g: np.where(sum(g) % 3 == 0, -1.0, 1.0)  # noqa: E731
    inst = SumInstance(
        MonomialPhase(0.0731, exps, shift=1 / 13), ranges, weights=weights, joint_weight=joint
    )
    assert inst.n_terms() > 3 * BLOCK
    axes = [inst.variable_values(i, np.arange(M)) for i, (M, _) in enumerate(ranges)]
    want = _rowwise_fsum(0.0731, exps, 1 / 13, axes, weights, joint)
    # both form the same float phases; each e(phase) is within 1e-15 on either side
    assert abs(eval_sum(inst) - want) <= 2e-15 * inst.n_terms()


@pytest.mark.parametrize(
    "phase",
    [
        MonomialPhase(1e300, ((0, 200.0),)),
        MonomialPhase(1.0, ((0, 1.0),), shift=1e308),
        # A x^10 overflows before y^-10 would bring it back below 4e302
        MonomialPhase(1e300, ((0, 10.0), (1, -10.0))),
    ],
)
def test_eval_sum_refuses_a_phase_that_overflows(phase):
    with pytest.raises(ValidationError, match="overflows"):
        eval_sum(SumInstance(phase, ((10, True), (10, True))))


@pytest.mark.parametrize("ranges", [((4 * 10**6, False),), ((4 * 10**6, True), (1, False))])
def test_eval_sum_memory_stays_near_one_block(ranges):
    import tracemalloc

    inst = SumInstance(MonomialPhase(0.0137, ((0, 1.7),), shift=0.5), ranges)
    tracemalloc.start()
    try:
        eval_sum(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float64 array over the 4*10^6 points alone would take 32 MB
    assert peak < 8 * 2**20


def test_json_round_trip():
    inst = SumInstance(
        MonomialPhase(0.25, ((0, 1.5), (1, -0.5)), shift=0.125),
        ((100, True), (50, False)),
    )
    back = SumInstance.from_json(inst.to_json())
    assert back.phase == inst.phase
    assert back.ranges == inst.ranges
    obj = json.loads(inst.to_json())
    assert set(obj) == {"phase", "ranges"}
    # older instance files carry "seed": null; keys nothing reads are ignored
    obj["seed"] = None
    assert SumInstance.from_json(json.dumps(obj)) == back


def test_bound_formula_values():
    assert bound_second_derivative(1, 1) == 2.0
    assert abs(bound_second_derivative(100, 0.01) - 20.0) < 1e-12
    assert bound_third_derivative(1, 1) == 3.0
    assert abs(bound_third_derivative(16, 1) - 26.0) < 1e-12
    assert abs(bound_kusmin_landau(10, 0.5) - 1.0) < 1e-12
    assert abs(bound_kusmin_landau(10, 0.1) - 6.3138) < 1e-4
    assert bound_trilinear(1, 1, 1) == 9.0


def test_bound_trilinear_f256():
    expected = (
        2.0 + 1.0 + 2 ** (24 / 49) + 2 ** (12 / 29) + 2 ** (16 / 29)
        + 2 ** (25 / 38) + 2 ** (14 / 27) + 1.0 + 0.25
    )
    assert abs(bound_trilinear(1, 1, 2**8) - expected) < 1e-12


def test_bound_domains():
    with pytest.raises(ValidationError):
        bound_kusmin_landau(10, 0.6)
    with pytest.raises(ValidationError):
        bound_kusmin_landau(10, 0.0)
    with pytest.raises(ValidationError):
        bound_second_derivative(10, -1.0)
    with pytest.raises(ValidationError):
        bound_trilinear(1, 1, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bounds_refuse_non_finite_arguments(bad):
    # nan is false under every comparison check, so each argument is checked for it
    calls = [
        lambda: bound_second_derivative(10.0, bad),
        lambda: bound_second_derivative(bad, 0.5),
        lambda: bound_third_derivative(10.0, bad),
        lambda: bound_third_derivative(bad, 0.5),
        lambda: bound_kusmin_landau(10.0, bad),
        lambda: bound_kusmin_landau(bad, 0.25),
        lambda: bound_trilinear(bad, 5.0, 1.0),
        lambda: bound_trilinear(2.0, bad, 1.0),
        lambda: bound_trilinear(2.0, 5.0, bad),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


def test_bounds_monotone_in_sizes():
    rng = np.random.default_rng(6)
    for _ in range(200):
        M, N, F = (float(10 ** rng.uniform(0, 3)) for _ in range(3))
        up = 1.0 + float(rng.uniform(0, 1))
        assert bound_trilinear(M * up, N, F) >= bound_trilinear(M, N, F) - 1e-9
        assert bound_trilinear(M, N * up, F) >= bound_trilinear(M, N, F) - 1e-9
        lam = float(10 ** rng.uniform(-4, 0))
        assert bound_second_derivative(N * up, lam) >= bound_second_derivative(N, lam)
        assert bound_third_derivative(N * up, lam) >= bound_third_derivative(N, lam)


def test_second_derivative_ratio_study(envelopes):
    fx = envelopes["second_derivative"]
    worst = 0.0
    for A in fx["A_values"]:
        for N in fx["N_values"]:
            s = abs(eval_sum(SumInstance(MonomialPhase(A, ((0, 2.0),)), ((N, True),))))
            worst = max(worst, s / bound_second_derivative(N, 2 * A))
    assert worst <= fx["envelope"] <= 10.0


def test_third_derivative_ratio_study(envelopes):
    fx = envelopes["third_derivative"]
    worst = 0.0
    for A in fx["A_values"]:
        for N in fx["N_values"]:
            s = abs(eval_sum(SumInstance(MonomialPhase(A, ((0, 3.0),)), ((N, True),))))
            worst = max(worst, s / bound_third_derivative(N, 6 * A))
    assert worst <= fx["envelope"] <= 10.0


def test_kusmin_landau_ratio_study(envelopes):
    fx = envelopes["kusmin_landau"]
    num, den = fx["slope"]
    bound = bound_kusmin_landau(1.0, num / den)
    worst = 0.0
    for N in fx["lengths"]:
        s = abs(eval_sum(SumInstance(MonomialPhase(num / den, ((0, 1.0),)), ((N, False),))))
        worst = max(worst, s / bound)
    assert worst <= fx["envelope"] <= 10.0


def _trilinear_corpus(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        M = int(rng.integers(1, 50))
        M1 = int(rng.integers(1, 50))
        M2 = int(rng.integers(1, max(2, 10**6 // (M * M1 * 8) + 1)))
        alpha = float(rng.choice([-1.5, -0.5, 0.5, 1.5, 2.5, 3.5]) + rng.uniform(-0.2, 0.2))
        beta = float(rng.uniform(0.2, 1.8) * rng.choice([-1, 1]))
        gamma_e = float(rng.uniform(0.2, 1.8) * rng.choice([-1, 1]))
        F_target = float(10.0 ** rng.uniform(-2, 4))
        scale = (1.5 * M) ** alpha * (1.5 * M1) ** beta * (1.5 * M2) ** gamma_e
        yield SumInstance(
            MonomialPhase(F_target / abs(scale), ((0, alpha), (1, beta), (2, gamma_e))),
            ((M, True), (M1, True), (M2, True)),
        )


def test_trilinear_ratio_study(envelopes):
    fx = envelopes["trilinear"]
    eps = fx["epsilon"]
    worst = 0.0
    for inst in _trilinear_corpus(fx["seed"], fx["count"]):
        (M, _), (M1, _), (M2, _) = inst.ranges
        N = M1 * M2
        ph = inst.phase
        F = abs(ph.A) * (2 * M) ** dict(ph.exponents)[0] * (2 * M1) ** dict(ph.exponents)[1] * (
            2 * M2
        ) ** dict(ph.exponents)[2]
        ratio = abs(eval_sum(inst)) / (bound_trilinear(M, N, F) * (M * N) ** eps)
        worst = max(worst, ratio)
    assert worst <= fx["envelope"] <= 10.0


def test_balance_terms_single_cross():
    bound, q1 = balance_terms([(1.0, 1.0)], [(1.0, 1.0)], 10.0)
    assert abs(bound - 1.1) < 1e-12
    assert 0 < q1 <= 10.0


def test_balance_terms_degenerate_window():
    # Q_lo = Q_hi pins the witness and bounds L there up to the cross surplus
    C, D = [(2.0, 1.3)], [(5.0, 0.7)]
    bound, q1 = balance_terms(C, D, 3.0, 3.0)
    L = lambda q: 2.0 * q**1.3 + 5.0 * q**-0.7
    assert abs(q1 - 3.0) < 1e-9
    assert L(3.0) <= bound + 1e-9
    assert bound <= L(3.0) + (2.0**0.7 * 5.0**1.3) ** (1 / 2.0)


def test_balance_terms_witness_corpus(envelopes):
    fx = envelopes["balance"]
    rng = np.random.default_rng(fx["seed"])
    for _ in range(fx["count"]):
        J, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        C = [(float(10 ** rng.uniform(-2, 3)), float(rng.uniform(0.2, 3))) for _ in range(J)]
        D = [(float(10 ** rng.uniform(-2, 3)), float(rng.uniform(0.2, 3))) for _ in range(K)]
        qhi = float(10 ** rng.uniform(0.5, 4))
        qlo = float(qhi * 10 ** rng.uniform(-3, -0.1)) if rng.random() < 0.5 else None
        bound, q1 = balance_terms(C, D, qhi, qlo)
        L = lambda q: sum(Cj * q**cj for Cj, cj in C) + sum(Dk * q**-dk for Dk, dk in D)
        factor = J * K + J + K
        assert L(q1) <= factor * bound
        # the bound can never undercut the true minimum by more than the factor
        grid = np.geomspace(qlo or q1 / 1e3, qhi, 600)
        assert float(np.min(L(grid))) >= bound / (factor + 1) - 1e-9 * bound


def test_balance_terms_rejects_empty():
    with pytest.raises(ValidationError):
        balance_terms([], [(1.0, 1.0)], 10.0)
    with pytest.raises(ValidationError):
        balance_terms([(1.0, 1.0)], [], 10.0)
