"""JSON wire formats.

Arbitrary-precision integers (quotients, convergents, heights, bounds) are
decimal strings so nothing is lost crossing 64-bit consumers; rationals are
"p/q" strings; polynomials are coefficient lists, constant term first.
Structural counters (m, n, depth) stay JSON numbers.  All document dumps are
key-sorted and compact, so identical inputs give byte-identical output.
Numbers cross the wire through `mcf.radix` (exactly `str`/`int` and
`Fraction(str)`, under any int digit cap and in subquadratic time for
multi-Mbit values); malformed numbers raise InputError.
"""

from __future__ import annotations

import decimal
import json
from fractions import Fraction
from typing import TYPE_CHECKING

from . import exact_reals  # through the module, so decoding a pq executes no field code
from .errors import InputError, NonTerminating
from .intervals import RationalInterval
from .radix import int_to_str, quote, str_to_decimal, str_to_frac, str_to_int, to_decimal
from .recurrence import PartialQuotients, QuotientRows

if TYPE_CHECKING:  # report types: only annotations name them, so encoding loads no checker
    from collections.abc import Iterator

    from .convergents import CheckReport
    from .engine import ExpansionRecord
    from .liouville import CriterionReport
    from .periodic import CubicCertificate, PeriodicSpec
    from .recurrence import AdmissibilityReport


def dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def frac_str(v) -> str:
    v = Fraction(v)
    return f"{int_to_str(v.numerator)}/{int_to_str(v.denominator)}"


class JSONFloat(float):
    """A JSON number with a fraction part or an exponent, and `.text`, as it was written."""

    def __new__(cls, text: str):
        number = super().__new__(cls, text)
        number.text = text
        return number


def _kind(v) -> str:
    """An unexpected value as an error names it: a JSON number as written, else its type."""
    return f"the number {quote(v.text)}" if isinstance(v, JSONFloat) else type(v).__name__


def parse_int(v) -> int:
    if isinstance(v, bool):
        raise InputError("expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return str_to_int(v)
    raise InputError(f"expected an integer (number or decimal string), got {_kind(v)}")


def parse_decimal(v) -> decimal.Decimal:
    """parse_int(v) as an integral Decimal; a decimal string is read without building the int."""
    return str_to_decimal(v) if isinstance(v, str) else to_decimal(parse_int(v))


def parse_frac(v) -> Fraction:
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str):
        return str_to_frac(v)
    raise InputError(f"expected a rational 'p/q' string, got {_kind(v)}")


def _field(obj: dict, key: str):
    if key not in obj:
        raise InputError(f"missing field {key!r}")
    return obj[key]


def _list(v, what: str) -> list:
    if not isinstance(v, list):
        raise InputError(f"{what} must be a list")
    return v


def interval_json(iv: RationalInterval) -> dict:
    return {"lo": frac_str(iv.lo), "hi": frac_str(iv.hi)}


# -- RealValue ---------------------------------------------------------------


def real_from_json(obj) -> exact_reals.RealValue:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("real value must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "rational":
        num, den = parse_int(_field(obj, "num")), parse_int(_field(obj, "den"))
        if den == 0:
            raise InputError("rational value with denominator 0")
        return exact_reals.RationalValue(Fraction(num, den))
    if kind == "algebraic":
        minpoly = [parse_int(c) for c in _list(_field(obj, "minpoly"), "minpoly")]
        lo, hi = parse_frac(_field(obj, "lo")), parse_frac(_field(obj, "hi"))
        field = exact_reals.NumberField(minpoly, RationalInterval(lo, hi))
        coords = [parse_frac(c) for c in _list(obj.get("coords", ["0/1", "1/1"]), "coords")]
        return exact_reals.AlgebraicValue(field.element(coords))
    if kind == "decimal":
        digits = _field(obj, "digits")
        if not isinstance(digits, (str, int, float)) or isinstance(digits, bool):
            raise InputError(f"decimal digits must be a string, got {type(digits).__name__}")
        if isinstance(digits, JSONFloat):
            digits = digits.text  # the digits as written, not the float's repr
        text = int_to_str(digits) if isinstance(digits, int) else str(digits)
        return exact_reals.OracleValue(exact_reals.DecimalOracle(text))
    raise InputError(f"unknown real value kind {kind!r}" if isinstance(kind, str) else
                     f"real value kind must be a string, got {type(kind).__name__}")


def real_to_json(rv: exact_reals.RealValue) -> dict:
    if isinstance(rv, exact_reals.RationalValue):
        return {
            "kind": "rational",
            "num": int_to_str(rv.value.numerator),
            "den": int_to_str(rv.value.denominator),
        }
    if isinstance(rv, exact_reals.AlgebraicValue):
        field = rv.element.field
        init = field._initial
        return {
            "kind": "algebraic",
            "minpoly": [int_to_str(c) for c in field.min_poly],
            "lo": frac_str(init.lo),
            "hi": frac_str(init.hi),
            "coords": [frac_str(c) for c in rv.element.coords],
        }
    if isinstance(rv, exact_reals.OracleValue) and isinstance(rv.oracle, exact_reals.DecimalOracle):
        return {"kind": "decimal", "digits": rv.oracle.digits}
    raise InputError("derived oracle values cannot be serialized")


def reals_from_file_payload(obj) -> list[exact_reals.RealValue]:
    """Accept a bare real-value object or a list of them."""
    if isinstance(obj, dict):
        return [real_from_json(obj)]
    if isinstance(obj, list):
        return [real_from_json(x) for x in obj]
    raise InputError("input file must hold a real value or a list of them")


# -- Partial quotients -------------------------------------------------------


def pq_from_json(obj, parse=parse_int, rows=PartialQuotients) -> QuotientRows:
    """The quotients of obj, each read by `parse` and held in `rows` (ints by default)."""
    if not isinstance(obj, dict) or "seqs" not in obj:
        raise InputError("partial quotients must be an object with 'seqs'")
    seqs = [[parse(v) for v in _list(s, "each sequence")] for s in _list(obj["seqs"], "seqs")]
    m = parse_int(obj.get("m", len(seqs)))
    return rows(m, tuple(tuple(s) for s in seqs))


def pq_to_json(pq: QuotientRows) -> dict:
    return {"m": pq.m, "seqs": [[int_to_str(v) for v in s] for s in pq.seqs]}


def write_pq(pq: QuotientRows, write) -> None:
    """Pass dumps_stable(pq_to_json(pq)) + "\n" to `write` piece by piece: each quotient's
    digits once, as int_to_str gives them, and no copy of the document is held."""
    write(f'{{"m":{pq.m},"seqs":[')
    for i, s in enumerate(pq.seqs):
        write(",[" if i else "[")
        for k, v in enumerate(s):
            write(',"' if k else '"')
            write(int_to_str(v))
            write('"')
        write("]")
    write("]}\n")


def expansion_jsonl(record: ExpansionRecord, trace: bool = False) -> Iterator[str]:
    """One line per index, yielded as it is encoded: {'n', 'a', 'event'} with the
    quotients emitted there."""
    interrupted_at = {ev.index for ev in record.interruptions}
    total = max((len(s) for s in record.pq.seqs), default=0)
    for n in range(total):
        emitted = [int_to_str(s[n]) for s in record.pq.seqs if n < len(s)]
        event = "interruption" if n in interrupted_at else "step"
        payload = {"n": n, "a": emitted, "event": event}
        if trace and record.trace is not None and n < len(record.trace):
            payload["trace"] = [_trace_value(v) for v in record.trace[n]]
        yield dumps_stable(payload)


def _trace_value(rv: exact_reals.RealValue) -> dict:
    if isinstance(rv, exact_reals.RationalValue):
        return real_to_json(rv)
    if isinstance(rv, exact_reals.AlgebraicValue):
        iv = rv.element.interval(Fraction(1, 10**30))
        return {"kind": "interval", "lo": frac_str(iv.lo), "hi": frac_str(iv.hi)}
    iv = None
    for level in (8, 4, 2, 1, 0):
        try:
            iv = rv.oracle.enclosure(level)
            break
        except NonTerminating:
            continue  # limited-precision oracle: fall back to a coarser level
    if iv is None:
        raise NonTerminating("no enclosure available for trace output")
    return {"kind": "interval", "lo": frac_str(iv.lo), "hi": frac_str(iv.hi)}


# -- Periodic specs and certificates ----------------------------------------


def periodic_spec_to_json(spec: PeriodicSpec) -> dict:
    return {
        "pre_a": [int_to_str(v) for v in spec.pre_a],
        "pre_b": [int_to_str(v) for v in spec.pre_b],
        "per_a": [int_to_str(v) for v in spec.per_a],
        "per_b": [int_to_str(v) for v in spec.per_b],
    }


def certificate_to_json(cert: CubicCertificate) -> dict:
    return {
        "spec": periodic_spec_to_json(cert.spec),
        "poly_alpha": [int_to_str(c) for c in cert.poly_alpha],
        "poly_beta": [int_to_str(c) for c in cert.poly_beta],
        "height_alpha": int_to_str(cert.height_alpha),
        "height_beta": int_to_str(cert.height_beta),
        "c_top": int_to_str(cert.c_top),
        "bound": int_to_str(cert.bound) if cert.bound is not None else None,
        "bound_applicable": cert.bound_applicable,
        "alpha_interval": interval_json(cert.alpha_interval),
        "beta_interval": interval_json(cert.beta_interval),
        "residual_ok": cert.residual_ok,
        "matched_steps": cert.matched_steps,
    }


# -- Reports ------------------------------------------------------------------


def admissibility_report_to_json(report: AdmissibilityReport) -> dict:
    return {
        "m": report.m,
        "ok": report.ok,
        "violations": [
            {"index": v.index, "dim": v.dim, "rule": v.rule, "message": v.message}
            for v in report.violations
        ],
    }


def _check_items_json(items) -> list[dict]:
    return [
        {
            "name": it.name,
            "ok": it.ok,
            "first_violation": it.first_violation,
            "boundary_indices": list(it.boundary_indices),
            "detail": it.detail,
        }
        for it in items
    ]


def check_report_to_json(report: CheckReport) -> dict:
    """The report of verify bounds or verify growth; its extra figures keep their keys,
    an int as a decimal string and named intervals as interval objects."""
    out = {"ok": report.ok, "items": _check_items_json(report.items)}
    for key, value in report.extra.items():
        out[key] = (int_to_str(value) if isinstance(value, int)
                    else {name: interval_json(iv) for name, iv in value.items()})
    return out


# the names perfbench/tracer.py times this encoding by
bound_report_to_json = growth_report_to_json = check_report_to_json


def criterion_report_to_json(report: CriterionReport) -> dict:
    return {
        "criterion": report.criterion,
        "depth": report.depth,
        "verdict": report.verdict,
        "ok": report.ok,
        "hypotheses": [
            {
                "name": h.name,
                "ok": h.ok,
                "first_violation": h.first_violation,
                "detail": h.detail,
            }
            for h in report.hypotheses
        ],
        "witnesses": [],
        "data": report.data,
    }


# -- Quasi-periodic scheduling files ------------------------------------------


def schedule_from_json(obj) -> tuple[tuple[int, int, int], ...]:
    if isinstance(obj, dict):
        obj = obj.get("schedule")
    if not isinstance(obj, list):
        raise InputError("schedule file must hold a list under 'schedule'")
    out = []
    for k, entry in enumerate(obj):
        if not isinstance(entry, list) or len(entry) != 3:
            raise InputError(f"schedule entry {k} must be [n, r, lambda]")
        out.append(tuple(parse_int(v) for v in entry))
    return tuple(out)
