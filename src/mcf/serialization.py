"""JSON wire formats.

Arbitrary-precision integers (quotients, convergents, heights, bounds) are
decimal strings so nothing is lost crossing 64-bit consumers; rationals are
"p/q" strings; polynomials are coefficient lists, constant term first.
Structural counters (m, n, depth) stay JSON numbers.  All document dumps are
key-sorted and compact, so identical inputs give byte-identical output.
Integers cross the wire through `mcf.radix` (exactly `str`/`int`, in
subquadratic time for multi-Mbit values); malformed numbers raise
InputError.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .engine import PartialQuotients
from .errors import InputError, NonTerminating, unlimited_int_digits
from .exact_reals import (
    AlgebraicValue,
    DecimalOracle,
    NumberField,
    OracleValue,
    RationalValue,
    RealValue,
)
from .intervals import RationalInterval
from .radix import int_to_str, quote, str_to_int

if TYPE_CHECKING:  # report types: only annotations name them, so encoding loads no checker
    from .convergents import BoundReport, GrowthReport
    from .engine import AdmissibilityReport, ExpansionRecord
    from .periodic import CubicCertificate, PeriodicSpec
    from .transcendence import CriterionReport


def dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def int_str(v: int) -> str:
    return int_to_str(int(v))


def frac_str(v) -> str:
    v = Fraction(v)
    return f"{int_to_str(v.numerator)}/{int_to_str(v.denominator)}"


def parse_int(v) -> int:
    if isinstance(v, bool):
        raise InputError("expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return str_to_int(v)
    raise InputError(f"expected an integer (number or decimal string), got {v!r}")


@unlimited_int_digits
def parse_frac(v) -> Fraction:
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v.strip())
        except (ValueError, ZeroDivisionError):
            raise InputError(f"malformed rational {quote(v)}; expected 'p/q' with q != 0") from None
    raise InputError(f"expected a rational 'p/q' string, got {v!r}")


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


def real_from_json(obj) -> RealValue:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("real value must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "rational":
        num, den = parse_int(_field(obj, "num")), parse_int(_field(obj, "den"))
        if den == 0:
            raise InputError("rational value with denominator 0")
        return RationalValue(Fraction(num, den))
    if kind == "algebraic":
        minpoly = [parse_int(c) for c in _list(_field(obj, "minpoly"), "minpoly")]
        lo, hi = parse_frac(_field(obj, "lo")), parse_frac(_field(obj, "hi"))
        field = NumberField(minpoly, RationalInterval(lo, hi))
        coords = [parse_frac(c) for c in _list(obj.get("coords", ["0/1", "1/1"]), "coords")]
        return AlgebraicValue(field.element(coords))
    if kind == "decimal":
        return OracleValue(DecimalOracle(str(_field(obj, "digits"))))
    raise InputError(f"unknown real value kind {kind!r}")


def real_to_json(rv: RealValue) -> dict:
    if isinstance(rv, RationalValue):
        return {
            "kind": "rational",
            "num": int_str(rv.value.numerator),
            "den": int_str(rv.value.denominator),
        }
    if isinstance(rv, AlgebraicValue):
        field = rv.element.field
        init = field._initial
        return {
            "kind": "algebraic",
            "minpoly": [int_str(c) for c in field.min_poly],
            "lo": frac_str(init.lo),
            "hi": frac_str(init.hi),
            "coords": [frac_str(c) for c in rv.element.coords],
        }
    if isinstance(rv, OracleValue) and isinstance(rv.oracle, DecimalOracle):
        return {"kind": "decimal", "digits": rv.oracle.digits}
    raise InputError("derived oracle values cannot be serialized")


def reals_from_file_payload(obj) -> list[RealValue]:
    """Accept a bare real-value object, a list of them, or {'inputs': [...]}."""
    if isinstance(obj, dict) and "inputs" in obj:
        obj = obj["inputs"]
    if isinstance(obj, dict):
        return [real_from_json(obj)]
    if isinstance(obj, list):
        return [real_from_json(x) for x in obj]
    raise InputError("input file must hold a real value or a list of them")


# -- Partial quotients -------------------------------------------------------


def pq_from_json(obj) -> PartialQuotients:
    if not isinstance(obj, dict) or "seqs" not in obj:
        raise InputError("partial quotients must be an object with 'seqs'")
    seqs = [[parse_int(v) for v in _list(s, "each sequence")] for s in _list(obj["seqs"], "seqs")]
    m = parse_int(obj.get("m", len(seqs)))
    return PartialQuotients(m, tuple(tuple(s) for s in seqs))


def pq_to_json(pq: PartialQuotients) -> dict:
    return {"m": pq.m, "seqs": [[int_str(v) for v in s] for s in pq.seqs]}


def expansion_jsonl(record: ExpansionRecord, trace: bool = False) -> list[str]:
    """One line per index: {'n', 'a', 'event'} with the quotients emitted there."""
    lines = []
    interrupted_at = {ev.index for ev in record.interruptions}
    total = max((len(s) for s in record.pq.seqs), default=0)
    for n in range(total):
        emitted = [int_str(s[n]) for s in record.pq.seqs if n < len(s)]
        event = "interruption" if n in interrupted_at else "step"
        payload = {"n": n, "a": emitted, "event": event}
        if trace and record.trace is not None and n < len(record.trace):
            payload["trace"] = [_trace_value(v) for v in record.trace[n]]
        lines.append(dumps_stable(payload))
    return lines


def _trace_value(rv: RealValue) -> dict:
    if isinstance(rv, RationalValue):
        return real_to_json(rv)
    if isinstance(rv, AlgebraicValue):
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
        "pre_a": [int_str(v) for v in spec.pre_a],
        "pre_b": [int_str(v) for v in spec.pre_b],
        "per_a": [int_str(v) for v in spec.per_a],
        "per_b": [int_str(v) for v in spec.per_b],
    }


def certificate_to_json(cert: CubicCertificate) -> dict:
    return {
        "spec": periodic_spec_to_json(cert.spec),
        "poly_alpha": [int_str(c) for c in cert.poly_alpha],
        "poly_beta": [int_str(c) for c in cert.poly_beta],
        "height_alpha": int_str(cert.height_alpha),
        "height_beta": int_str(cert.height_beta),
        "c_top": int_str(cert.c_top),
        "bound": int_str(cert.bound) if cert.bound is not None else None,
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


def bound_report_to_json(report: BoundReport) -> dict:
    return {
        "ok": report.ok,
        "items": _check_items_json(report.items),
        "empirical_K": int_str(report.empirical_K),
    }


def growth_report_to_json(report: GrowthReport) -> dict:
    constants = {}
    for name, value in report.constants.items():
        if isinstance(value, RationalInterval):
            constants[name] = interval_json(value)
        else:
            constants[name] = str(value)
    return {
        "ok": report.ok,
        "items": _check_items_json(report.items),
        "constants": constants,
    }


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
        "witnesses": list(report.witnesses),
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
        if isinstance(entry, dict):
            entry = [_field(entry, key) for key in ("n", "r", "lam")]
        if not isinstance(entry, list) or len(entry) != 3:
            raise InputError(f"schedule entry {k} must be [n, r, lambda]")
        out.append(tuple(parse_int(v) for v in entry))
    return tuple(out)
