"""Command-line interface.

Exit codes: 0 success; 1 a criterion/hypothesis/bound violation was found
(the report is still emitted on stdout); 2 malformed input; 3 refinement
budget exhausted.  Diagnostics go to stderr, data to stdout.  Output is
deterministic: identical invocations produce byte-identical output.

The environment variable MCF_PRECISION_BUDGET overrides the refinement
budget (default 64 rounds per certified query).
"""

from __future__ import annotations

import argparse
import importlib.util
import sys

from .errors import HypothesisViolated, InputError, MCFError, NonTerminating


def _lazy(name: str):
    """The layer mcf.<name>, registered now (unless imported already); its body
    runs on first attribute access, so a command executes only what it touches."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Every layer is registered, also those reached only through others, so a tracer
# wrapping them from outside (perfbench/tracer.py) finds each in sys.modules.
# LazyLoader is not thread-safe on first access (CPython 3.11); the CLI is one thread.
(intervals, polynomials, radix, recurrence, liouville, exact_reals, engine, convergents, periodic,
 transcendence, ser) = map(_lazy, ("intervals", "polynomials", "radix", "recurrence", "liouville",
                                   "exact_reals", "engine", "convergents", "periodic", "transcendence",
                                   "serialization"))

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class _Formatter(argparse.HelpFormatter):
    def __init__(self, prog):
        super().__init__(prog, width=96, max_help_position=28)


def _load_json(path: str):
    import json  # here, so that mcf --help imports no json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=radix.str_to_int, parse_float=ser.JSONFloat)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def integer(text: str) -> int:
    """The argparse type of the integer flags: int(text) for any length of text."""
    return radix.str_to_int(text)


def _print(line: str) -> None:
    sys.stdout.write(line + "\n")


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [ser.parse_int(tok) for tok in text.replace(",", " ").split()]


def _parse_rule(text: str):
    kind, _, payload = text.partition(":")
    if kind == "const":
        return liouville.const_rule(ser.parse_int(payload))
    if kind == "cycle":
        return liouville.cycle_rule(_parse_int_list(payload))
    if kind == "list":
        return liouville.seq_rule(_parse_int_list(payload))
    raise InputError(f"unknown rule {text!r}; use const:K, cycle:V1,V2,... or list:V1,V2,...")


# -- subcommand runners --------------------------------------------------------


def _cmd_expand(args) -> int:
    values = ser.reals_from_file_payload(_load_json(args.input))
    record = engine.expand(values, args.steps, keep_trace=args.trace)
    for line in ser.expansion_jsonl(record, trace=args.trace):
        _print(line)
    return EXIT_OK


# The m = 2 lag products emitted beside each column n: (name, i, j, lag) is
# x_i y_j - y_i x_j, x = column n and y = column n - lag over (A^(1), A^(2), C).
AUX_M2 = (
    ("ac1", 0, 2, 1), ("bc1", 1, 2, 1), ("ab1", 0, 1, 1),
    ("ac2", 0, 2, 2), ("bc2", 1, 2, 2), ("ab2", 0, 1, 2),
)


def _cmd_convergents(args) -> int:
    import decimal

    if args.depth < 0:
        raise InputError("--depth must be >= 0")
    # The quotients are read as Decimals and the table is computed in exact decimal (any
    # rounding raises) and printed with str(), linear in the digits; no big int is built.
    with decimal.localcontext(radix.EXACT):
        pq = ser.pq_from_json(_load_json(args.pq), ser.parse_decimal, recurrence.QuotientRows)
        aux = AUX_M2 if pq.m == 2 else ()
        if args.emit == "csv":
            _print(",".join(["n", *(f"A{i + 1}" for i in range(pq.m)), "C", *(row[0] for row in aux)]))
        state = recurrence.ConvergentState.initial(pq.m)
        lags = recurrence.LagProducts(pq.m, {(i, j) for _, i, j, _ in aux})
        for n in range(min(args.depth + 1, pq.rect_len)):
            a = tuple(s[n] for s in pq.seqs)
            *A, C = map(str, state.advance(a))
            products = lags.step(a)
            values = [str(products[i, j][lag - 1]) for _, i, j, lag in aux]
            if args.emit == "csv":
                _print(",".join([str(n), *A, C, *values]))
            else:
                payload = {"n": n, "A": A, "C": C}
                if aux:
                    payload["aux"] = {row[0]: v for row, v in zip(aux, values)}
                _print(ser.dumps_stable(payload))
    return EXIT_OK


def _cmd_periodic_solve(args) -> int:
    spec = periodic.PeriodicSpec(
        tuple(args.pre_a or ()), tuple(args.pre_b or ()),
        tuple(args.per_a), tuple(args.per_b),
    )
    cert = periodic.solve_periodic(spec)
    payload = ser.certificate_to_json(cert)
    if args.json:
        _print(ser.dumps_stable(payload))
    else:
        alpha_mid = cert.alpha_interval.midpoint()
        beta_mid = cert.beta_interval.midpoint()
        _print(f"alpha cubic (constant first): {payload['poly_alpha']}")
        _print(f"beta  cubic (constant first): {payload['poly_beta']}")
        _print(f"heights: H(alpha) = {payload['height_alpha']}, H(beta) = {payload['height_beta']}")
        bound = payload["bound"] if payload["bound_applicable"] else "not applicable"
        _print(f"height bound: {bound}")
        _print(f"alpha ~ {alpha_mid.numerator / alpha_mid.denominator:.12f}, "
               f"beta ~ {beta_mid.numerator / beta_mid.denominator:.12f}")
        _print(f"root selected by the convergent simplex at index {cert.matched_steps}; "
               f"residual_ok = {cert.residual_ok}")
    return EXIT_OK


def _cmd_construct_liouville(args) -> int:
    import decimal

    spec = liouville.LiouvilleSpec(
        m=args.m,
        delta=ser.parse_frac(args.delta),
        depth=args.depth,
        tail_rules=tuple(_parse_rule(text) for text in args.b_rule),
        head=args.a0,
    )
    with decimal.localcontext(radix.EXACT):  # as in _cmd_convergents: no big int is built
        ser.write_pq(liouville.liouville_rows(spec, radix.to_decimal), sys.stdout.write)
    return EXIT_OK


def _cmd_construct_quasiperiodic(args) -> int:
    ser.write_pq(transcendence.build_quasiperiodic(_quasi_spec(args), args.depth), sys.stdout.write)
    return EXIT_OK


def _cmd_verify_admissible(args) -> int:
    pq = ser.pq_from_json(_load_json(args.pq))
    report = recurrence.check_admissible(pq)
    _print(ser.dumps_stable(ser.admissibility_report_to_json(report)))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_verify_bounds(args) -> int:
    pq = ser.pq_from_json(_load_json(args.pq))
    box = None
    if args.box:
        parts = _parse_int_list(args.box)
        if len(parts) != 2:
            raise InputError("--box needs two integers N,M")
        box = (parts[0], parts[1])
    report = convergents.bound_checks(pq, upto=args.depth, box=box)
    _print(ser.dumps_stable(ser.check_report_to_json(report)))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_verify_growth(args) -> int:
    pq = ser.pq_from_json(_load_json(args.pq))
    report = convergents.growth_check(pq, upto=args.depth, d=args.d, M=args.M)
    _print(ser.dumps_stable(ser.check_report_to_json(report)))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_verify_liouville(args) -> int:
    import decimal

    # the heads' comparator, imported before the document is read: compiling mcf.logs takes
    # about 1 MB of heap for a moment, which at the first head set the run's peak RSS
    from . import logs  # noqa: F401

    with decimal.localcontext(radix.EXACT):  # as in construct: the digits are read as Decimals
        rows = ser.pq_from_json(_load_json(args.pq), ser.parse_decimal, recurrence.QuotientRows)
        report = liouville.liouville_report(rows, ser.parse_frac(args.delta), upto=args.depth)
    _print(ser.dumps_stable(ser.criterion_report_to_json(report)))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _quasi_spec(args) -> transcendence.QuasiPeriodicSpec:
    schedule = ser.schedule_from_json(_load_json(args.schedule))
    base_pq = ser.pq_from_json(_load_json(args.base))
    rules = tuple(liouville.seq_rule(s) for s in base_pq.seqs)
    return transcendence.QuasiPeriodicSpec(m=base_pq.m, schedule=schedule, base_rules=rules)


def _cmd_verify_main1(args) -> int:
    report = transcendence.main1_check(
        _quasi_spec(args), d=args.d, c=ser.parse_frac(args.c), depth=args.depth
    )
    _print(ser.dumps_stable(ser.criterion_report_to_json(report)))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_verify_main2(args) -> int:
    report = transcendence.main2_check(
        _quasi_spec(args), M=args.M, r_bound=args.N, variant=args.variant, depth=args.depth
    )
    _print(ser.dumps_stable(ser.criterion_report_to_json(report)))
    return EXIT_OK if report.ok else EXIT_VIOLATION


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcf",
        formatter_class=_Formatter,
        description="Exact Jacobi / Jacobi-Perron multidimensional continued fractions: "
        "expansion, convergents, periodic-to-cubic solving, and transcendence-criterion "
        "construction and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", formatter_class=_Formatter,
                       help="expand a tuple of exact reals into partial quotients (JSON lines)")
    p.add_argument("--input", required=True, help="JSON file with a real value or list of them")
    p.add_argument("--steps", type=integer, required=True, help="number of indices to expand")
    p.add_argument("--trace", action="store_true", help="include complete-quotient enclosures")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("convergents", formatter_class=_Formatter,
                       help="stream convergent numerators/denominator (and m=2 aux values)")
    p.add_argument("--pq", required=True, help="JSON file with partial quotients")
    p.add_argument("--depth", type=integer, required=True, help="last index to emit")
    p.add_argument("--emit", choices=("csv", "jsonl"), default="jsonl", help="output format")
    p.set_defaults(fn=_cmd_convergents)

    p = sub.add_parser("periodic", formatter_class=_Formatter,
                       help="operations on periodic m=2 expansions")
    psub = p.add_subparsers(dest="periodic_command", required=True)
    ps = psub.add_parser("solve", formatter_class=_Formatter,
                         help="recover the exact cubic pair of a periodic expansion")
    ps.add_argument("--pre-a", type=integer, nargs="*", default=[], help="pre-period a block")
    ps.add_argument("--pre-b", type=integer, nargs="*", default=[], help="pre-period b block")
    ps.add_argument("--per-a", type=integer, nargs="+", required=True, help="period a block")
    ps.add_argument("--per-b", type=integer, nargs="+", required=True, help="period b block")
    ps.add_argument("--json", action="store_true", help="emit the full certificate as JSON")
    ps.set_defaults(fn=_cmd_periodic_solve)

    p = sub.add_parser("construct", formatter_class=_Formatter,
                       help="build sequences satisfying a transcendence criterion")
    csub = p.add_subparsers(dest="construct_command", required=True)
    cl = csub.add_parser("liouville", formatter_class=_Formatter,
                         help="derive head quotients dominating the tilde values")
    cl.add_argument("--m", type=integer, default=2, help="dimension (default 2)")
    cl.add_argument("--delta", default="1", help="positive rational exponent delta (p/q)")
    cl.add_argument("--b-rule", action="append", required=True,
                    help="tail rule const:K | cycle:V1,V2 | list:V1,V2 (repeat for m > 2)")
    cl.add_argument("--a0", type=integer, default=0, help="index-0 head quotient")
    cl.add_argument("--depth", type=integer, required=True, help="last index to construct")
    cl.set_defaults(fn=_cmd_construct_liouville)
    cq = csub.add_parser("quasiperiodic", formatter_class=_Formatter,
                         help="copy scheduled repetition windows over a base sequence")
    cq.add_argument("--schedule", required=True, help="JSON file with [n, r, lambda] windows")
    cq.add_argument("--base", required=True, help="JSON file with base partial quotients")
    cq.add_argument("--depth", type=integer, required=True, help="number of indices to build")
    cq.set_defaults(fn=_cmd_construct_quasiperiodic)

    p = sub.add_parser("verify", formatter_class=_Formatter,
                       help="check admissibility, bounds, growth, or criterion hypotheses")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    va = vsub.add_parser("admissible", formatter_class=_Formatter,
                         help="validate the admissibility conditions")
    va.add_argument("--pq", required=True)
    va.set_defaults(fn=_cmd_verify_admissible)

    vb = vsub.add_parser("bounds", formatter_class=_Formatter,
                         help="numerator/denominator and tilde-quadratic bounds (m=2)")
    vb.add_argument("--pq", required=True)
    vb.add_argument("--box", help="N,M when the index-0 quotients are not zero")
    vb.add_argument("--depth", type=integer, default=None, help="last index to check")
    vb.set_defaults(fn=_cmd_verify_bounds)

    vg = vsub.add_parser("growth", formatter_class=_Formatter,
                         help="certified denominator growth bounds")
    vg.add_argument("--pq", required=True)
    vg.add_argument("--d", type=integer, default=None, help="check log log C_(n+1) < K(d,m) n")
    vg.add_argument("--M", type=integer, default=None, help="check C_n <= eta(M)^n under a_n <= M")
    vg.add_argument("--depth", type=integer, default=None, help="last index to check")
    vg.set_defaults(fn=_cmd_verify_growth)

    vl = vsub.add_parser("liouville", formatter_class=_Formatter,
                         help="check the head-dominates-tilde criterion inequality")
    vl.add_argument("--pq", required=True)
    vl.add_argument("--delta", required=True, help="positive rational exponent (p/q)")
    vl.add_argument("--depth", type=integer, default=None, help="last index to check")
    vl.set_defaults(fn=_cmd_verify_liouville)

    v1 = vsub.add_parser("main1", formatter_class=_Formatter,
                         help="quasi-periodic criterion with growing quotients")
    v1.add_argument("--schedule", required=True)
    v1.add_argument("--base", required=True)
    v1.add_argument("--d", type=integer, required=True)
    v1.add_argument("--c", required=True, help="rational constant in r_k < c n_k")
    v1.add_argument("--depth", type=integer, required=True)
    v1.set_defaults(fn=_cmd_verify_main1)

    v2 = vsub.add_parser("main2", formatter_class=_Formatter,
                         help="quasi-periodic criterion with bounded quotients")
    v2.add_argument("--schedule", required=True)
    v2.add_argument("--base", required=True)
    v2.add_argument("--M", type=integer, required=True, help="quotient bound")
    v2.add_argument("--N", type=integer, required=True, help="window length bound")
    v2.add_argument("--variant", choices=("statement", "lemma38", "proof18"),
                    default="statement", help="which threshold-constant convention to use")
    v2.add_argument("--depth", type=integer, default=64)
    v2.set_defaults(fn=_cmd_verify_main2)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NonTerminating as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except HypothesisViolated as exc:
        sys.stderr.write(f"hypothesis violated: {exc}\n")
        _print(ser.dumps_stable({"ok": False, "error": str(exc), "index": exc.index}))
        return EXIT_VIOLATION
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except MCFError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
