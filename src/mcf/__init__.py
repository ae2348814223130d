"""Exact multidimensional continued fractions (Jacobi and Jacobi-Perron):
expansion of rational/algebraic/oracle tuples, exact convergents, recovery
of cubic irrationals from periodic expansions with certified height bounds,
and constructive generation plus finite-depth verification of Liouville-type
and quasi-periodic transcendence criteria.

The package exports the README quick-tour API and the exception classes;
everything else is imported from its submodule (mcf.exact_reals, mcf.engine,
mcf.convergents, mcf.periodic, mcf.transcendence, mcf.serialization)."""

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
    RootSelectionAmbiguous,
    ScheduleOverlap,
    UndecidableForOracle,
)
from .intervals import RationalInterval
from .exact_reals import AlgebraicValue, NumberField
from .engine import expand
from .periodic import PeriodicSpec, solve_periodic
from .transcendence import LiouvilleSpec, const_rule, construct_liouville, verify_liouville

__version__ = "0.1.0"
