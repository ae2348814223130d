"""Exception taxonomy shared by the whole package.

The CLI maps these onto exit codes: InputError -> 2, NonTerminating -> 3,
criterion/hypothesis violations are reported data (exit 1), everything
else is a bug.

Messages quote the offending quotients, which can run to millions of
digits, so they format them with `mcf.radix` (`int_to_str`, `frac_to_str`),
which is not held to CPython's int -> str digit cap.
"""


class MCFError(Exception):
    """Base class for all package errors."""


class InputError(MCFError, ValueError):
    """Malformed or inconsistent user input (bad JSON, bad spec, bad flag values)."""


class FieldMismatch(MCFError):
    """Field operation applied to elements of two different number fields."""


class DivisionByZero(MCFError, ZeroDivisionError):
    """Inversion of zero, or of a zero divisor modulo a reducible modulus."""


class NonTerminating(MCFError):
    """Refinement budget exhausted before the query could be certified."""


class OracleExhausted(NonTerminating):
    """An oracle cannot refine its enclosure any further (e.g. fixed decimal digits)."""


class AdmissibilityError(InputError):
    """Partial-quotient sequences violate the admissibility conditions."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class AdmissibilityConflict(AdmissibilityError):
    """Free entries supplied to a construction are themselves inadmissible."""


class ScheduleOverlap(InputError):
    """Quasi-periodic repetition windows overlap or are out of order."""


class PrefixMismatch(InputError):
    """Two expansions were claimed to share a prefix but do not."""


class PreconditionViolated(InputError):
    """A check was invoked on data that does not satisfy its hypotheses."""


class HypothesisViolated(MCFError):
    """A growth/bound hypothesis fails; carries the first offending index."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (first offending index {index})")
        self.index = index


class DegenerateCubic(MCFError):
    """Recovered polynomial is not an irreducible cubic; carries the residual factor."""

    def __init__(self, message: str, residual: tuple[int, ...] | None = None):
        super().__init__(message)
        self.residual = residual


class RootSelectionAmbiguous(MCFError):
    """More than one real root reproduces the expansion prefix at the probed depth."""
