"""Exact calculator and verification harness for the motivic classes of a
smooth projective curve of genus g >= 2: symmetric powers, the Jacobian, the
motivic zeta function, bundle stacks, and the fixed-determinant moduli spaces
of rank-2 and rank-3 bundles, together with numeric realizations
(Poincare / Hodge / point counting) cross-checked against independent oracles.
"""

from .series import (
    CoeffPoly,
    Comparison,
    GenusContext,
    Mode,
    MotiveSeries,
    TruncationWindow,
    constant,
    equals,
    lambda_class,
    lefschetz_power,
    one,
    zero,
)
from .curves import (
    ZetaSeries,
    binomial_h1_series,
    check_functional_equation,
    check_symmetric_power_decomposition,
    check_zeta_rationality,
    dec_zeta_finite_part,
    dec_zeta_rhs,
    jacobian_class,
    sym_power_class,
    zeta_at_lefschetz,
    zeta_series,
)
from .moduli import (
    InversionSpec,
    behrend_dhillon_bun,
    bun_chi,
    compositions,
    cross_mode_agreement,
    frac_part,
    inversion_consistency,
    inversion_exponent,
    inversion_formula,
    j_linear_closed_form,
    j_squared_cancellation,
    m2_chi,
    m2_var,
    m3_chi,
    m3_var,
    rank2_decomposition,
    rank3_decomposition,
    template_blocks,
    unstable_rank2_chi,
    unstable_rank2_var_closed,
    unstable_rank2_var_sum,
    unstable_rank3_chi,
    x_identity_all,
    x_identity_delta,
)
from .realize import (
    HODGE,
    POINCARE,
    CountingData,
    count_cross_check,
    genus2_fixture_counts,
    newstead_oracle,
    realize,
    sym_count_oracle,
)
from .checks import (
    CheckReport,
    available_checks,
    check_statement,
    reports_to_json,
    run_check,
    run_suite,
)
from .polys import IntPoly, IntPoly2

__version__ = "0.1.0"
