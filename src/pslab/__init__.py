"""pslab: exact arithmetic and empirical verification lab for the
Piatetski-Shapiro sequences floor(n^c) with rational non-integer c > 1.
"""

from .arith import (
    FactorMap,
    FactorStream,
    SieveCache,
    euler_phi,
    factor_stream,
    factorize,
    is_prime,
    is_squarefree,
    is_squarefree_bulk,
    largest_prime_factor,
    primes_up_to,
)
from .carmichael import (
    CarmichaelRecord,
    carmichael_numbers_up_to,
    fermat_holds,
    is_ps_carmichael,
    korselt,
    search_ps_carmichael,
)
from .errors import GuardError, PslabError, RouteDisagreementError, ValidationError
from .experiments import (
    ExperimentReport,
    chebyshev_sum,
    convolution_count,
    large_pf_exceed,
    residue_equidistribution,
    smooth_count,
    square_divisor_sum,
    squarefree_density,
)
from .exppairs import (
    ExpPair,
    a_process,
    apply_chain,
    b_process,
    carmichael_threshold,
    format_pair,
    format_rational,
    lpf_exponent,
    lpf_exponent_high,
    lpf_exponent_mid,
    lpf_exponent_tail,
    smooth_values_c_threshold,
    square_divisibility_threshold,
)
from .expsum import (
    MonomialPhase,
    SumInstance,
    balance_terms,
    bound_kusmin_landau,
    bound_second_derivative,
    bound_third_derivative,
    bound_trilinear,
    eval_sum,
)
from .pscore import (
    ExponentC,
    PsWitness,
    count_decomposition,
    floor_pow,
    floor_pow_bulk,
    integer_root,
    is_ps_value,
    is_ps_value_bulk,
    ps_values_in,
)
from .psprimes import (
    ApQuery,
    ap_main_term,
    brun_titchmarsh_report,
    pi_ap,
    pi_c_ap,
    ps_primes_up_to,
    theta_ap,
    vartheta_c_ap,
)
from .sawtooth import VaalerKernel, discrepancy_lhs, erdos_turan_rhs, psi, vaaler_kernel

__version__ = "0.1.0"
