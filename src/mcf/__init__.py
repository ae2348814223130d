"""Exact multidimensional continued fractions (Jacobi and Jacobi-Perron):
expansion of rational/algebraic/oracle tuples, exact convergents, recovery
of cubic irrationals from periodic expansions with certified height bounds,
and constructive generation plus finite-depth verification of Liouville-type
and quasi-periodic transcendence criteria.

The package exports the README quick-tour API and the exception classes;
everything else is imported from its submodule (mcf.recurrence, mcf.liouville,
mcf.exact_reals, mcf.engine, mcf.convergents, mcf.periodic, mcf.transcendence,
mcf.serialization)."""

import importlib

from .errors import (
    AdmissibilityConflict,
    AdmissibilityError,
    DegenerateCubic,
    DivisionByZero,
    FieldMismatch,
    HypothesisViolated,
    InputError,
    MCFError,
    NonTerminating,
    OracleExhausted,
    PreconditionViolated,
    PrefixMismatch,
    RootSelectionAmbiguous,
    ScheduleOverlap,
)

__version__ = "0.1.0"

# the quick-tour names by submodule, imported on first access (PEP 562), so
# `import mcf` runs only mcf.errors
_EXPORTS = {
    "intervals": ("RationalInterval",),
    "exact_reals": ("AlgebraicValue", "NumberField"),
    "engine": ("expand",),
    "periodic": ("PeriodicSpec", "solve_periodic"),
    "liouville": ("LiouvilleSpec", "const_rule", "construct_liouville", "verify_liouville"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
