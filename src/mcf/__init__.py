"""Exact multidimensional continued fractions (Jacobi and Jacobi-Perron):
expansion of rational/algebraic/oracle tuples, exact convergents, recovery
of cubic irrationals from periodic expansions with certified height bounds,
and constructive generation plus finite-depth verification of Liouville-type
and quasi-periodic transcendence criteria."""

import sys as _sys

# Liouville-type denominators reach millions of digits; the default CPython
# int<->str conversion cap (4300 digits) would break their serialization.
if hasattr(_sys, "set_int_max_str_digits"):
    if _sys.get_int_max_str_digits() != 0:
        _sys.set_int_max_str_digits(max(_sys.get_int_max_str_digits(), 50_000_000))

from .errors import (
    AdmissibilityConflict,
    AdmissibilityError,
    DegenerateCubic,
    DivisionByZero,
    FieldMismatch,
    HypothesisViolated,
    InputError,
    Interruption,
    MCFError,
    NonTerminating,
    OracleExhausted,
    PeriodMismatch,
    PreconditionViolated,
    PrefixMismatch,
    RecursionMismatch,
    RootSelectionAmbiguous,
    ScheduleOverlap,
    UndecidableForOracle,
)
from .intervals import RationalInterval
from .exact_reals import (
    AlgebraicValue,
    DecimalOracle,
    FieldElement,
    FunctionOracle,
    IntervalOracle,
    NumberField,
    OracleValue,
    RationalValue,
    RealValue,
    SimplexOracle,
    abs_diff_lt,
    abs_diff_pow_lt,
    as_real,
    element_interval,
    enclosure_at,
    field_arith,
    floor_exact,
    is_integer,
    refinement_budget,
)
from .engine import (
    AdmissibilityReport,
    ExpansionRecord,
    InterruptionEvent,
    PartialQuotients,
    Violation,
    check_admissible,
    expand,
    is_admissible,
    jacobi_step,
)
from .convergents import (
    AuxRow,
    BoundReport,
    CertifiedPowers,
    CheckItem,
    ConvergentLimitOracle,
    ConvergentRow,
    ConvergentState,
    GrowthReport,
    ProximityReport,
    approx_witnesses,
    aux_stream,
    bound_checks,
    conv_stream,
    det_int,
    eta_field,
    growth_check,
    k_interval,
    limit_values,
    matrix_form,
    matrix_products,
    proximity_check,
    psi_field,
    tilde_next,
    tilde_stream,
)
from .periodic import (
    CubicCertificate,
    PeriodicSpec,
    XMatrix,
    cubic_coeffs,
    same_field_check,
    solve_periodic,
    unroll,
    validate_spec,
    x_matrix,
)
from .transcendence import (
    CriterionReport,
    HypothesisCheck,
    LiouvilleSpec,
    QuasiPeriodicSpec,
    build_quasiperiodic,
    const_rule,
    construct_liouville,
    cycle_rule,
    main1_check,
    main2_check,
    main2_constant,
    roth_scan,
    seq_rule,
    verify_liouville,
    verify_quasiperiodic,
)

__version__ = "0.1.0"
