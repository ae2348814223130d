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
import json
import sys

from .errors import HypothesisViolated, InputError, MCFError, NonTerminating, unlimited_int_digits


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
intervals, polynomials, radix, exact_reals, engine, convergents, periodic, transcendence, ser = map(
    _lazy, ("intervals", "polynomials", "radix", "exact_reals", "engine", "convergents", "periodic",
            "transcendence", "serialization"))

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class _Formatter(argparse.HelpFormatter):
    def __init__(self, prog):
        super().__init__(prog, width=96, max_help_position=28)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


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
        return transcendence.const_rule(ser.parse_int(payload))
    if kind == "cycle":
        return transcendence.cycle_rule(_parse_int_list(payload))
    if kind == "list":
        return transcendence.seq_rule(_parse_int_list(payload))
    raise InputError(f"unknown rule {text!r}; use const:K, cycle:V1,V2,... or list:V1,V2,...")


# -- subcommand runners --------------------------------------------------------


def _cmd_expand(args) -> int:
    values = ser.reals_from_file_payload(_load_json(args.input))
    record = engine.expand(values, args.steps, keep_trace=args.trace)
    for line in ser.expansion_jsonl(record, trace=args.trace):
        _print(line)
    return EXIT_OK


# The m = 2 lag products emitted beside each column n: (name, i, j, lag) is
# lag_product(column n, column n - lag, i, j) over (A^(1), A^(2), C).
AUX_M2 = (
    ("ac1", 0, 2, 1), ("bc1", 1, 2, 1), ("ab1", 0, 1, 1),
    ("ac2", 0, 2, 2), ("bc2", 1, 2, 2), ("ab2", 0, 1, 2),
)


def _cmd_convergents(args) -> int:
    if args.depth < 0:
        raise InputError("--depth must be >= 0")
    pq = ser.pq_from_json(_load_json(args.pq))
    aux = AUX_M2 if pq.m == 2 else ()
    if args.emit == "csv":
        _print(",".join(["n", *(f"A{i + 1}" for i in range(pq.m)), "C", *(row[0] for row in aux)]))
    for col, lags in convergents.lag_stream(pq, {(i, j) for _, i, j, _ in aux}, args.depth):
        values = [ser.int_str(lags[i, j][lag - 1]) for _, i, j, lag in aux]
        if args.emit == "csv":
            _print(",".join([str(col.n), *map(ser.int_str, col.A), ser.int_str(col.C), *values]))
        else:
            payload = {"n": col.n, "A": [ser.int_str(v) for v in col.A], "C": ser.int_str(col.C)}
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
        _print(f"round-trip matched {cert.matched_steps} quotients; residual_ok = {cert.residual_ok}")
    return EXIT_OK


def _cmd_construct_liouville(args) -> int:
    rules = [_parse_rule(text) for text in args.b_rule]
    if len(rules) == 1 and args.m > 2:
        rules = rules * (args.m - 1)
    spec = transcendence.LiouvilleSpec(
        m=args.m,
        delta=ser.parse_frac(args.delta),
        depth=args.depth,
        tail_rules=tuple(rules),
        head=args.a0,
    )
    pq = transcendence.construct_liouville(spec)
    _print(ser.dumps_stable(ser.pq_to_json(pq)))
    return EXIT_OK


def _cmd_construct_quasiperiodic(args) -> int:
    pq = transcendence.build_quasiperiodic(_quasi_spec(args), args.depth)
    _print(ser.dumps_stable(ser.pq_to_json(pq)))
    return EXIT_OK


def _cmd_verify_admissible(args) -> int:
    pq = ser.pq_from_json(_load_json(args.pq))
    report = engine.check_admissible(pq)
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
    _print(ser.dumps_stable(ser.bound_report_to_json(report)))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_verify_growth(args) -> int:
    pq = ser.pq_from_json(_load_json(args.pq))
    report = convergents.growth_check(pq, upto=args.depth, d=args.d, M=args.M)
    _print(ser.dumps_stable(ser.growth_report_to_json(report)))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_verify_liouville(args) -> int:
    pq = ser.pq_from_json(_load_json(args.pq))
    report = transcendence.verify_liouville(pq, ser.parse_frac(args.delta), upto=args.depth)
    _print(ser.dumps_stable(ser.criterion_report_to_json(report)))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _quasi_spec(args) -> transcendence.QuasiPeriodicSpec:
    schedule = ser.schedule_from_json(_load_json(args.schedule))
    base_pq = ser.pq_from_json(_load_json(args.base))
    rules = tuple(transcendence.seq_rule(s) for s in base_pq.seqs)
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
    p.add_argument("--steps", type=int, required=True, help="number of indices to expand")
    p.add_argument("--trace", action="store_true", help="include complete-quotient enclosures")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("convergents", formatter_class=_Formatter,
                       help="stream convergent numerators/denominator (and m=2 aux values)")
    p.add_argument("--pq", required=True, help="JSON file with partial quotients")
    p.add_argument("--depth", type=int, required=True, help="last index to emit")
    p.add_argument("--emit", choices=("csv", "jsonl"), default="jsonl", help="output format")
    p.set_defaults(fn=_cmd_convergents)

    p = sub.add_parser("periodic", formatter_class=_Formatter,
                       help="operations on periodic m=2 expansions")
    psub = p.add_subparsers(dest="periodic_command", required=True)
    ps = psub.add_parser("solve", formatter_class=_Formatter,
                         help="recover the exact cubic pair of a periodic expansion")
    ps.add_argument("--pre-a", type=int, nargs="*", default=[], help="pre-period a block")
    ps.add_argument("--pre-b", type=int, nargs="*", default=[], help="pre-period b block")
    ps.add_argument("--per-a", type=int, nargs="+", required=True, help="period a block")
    ps.add_argument("--per-b", type=int, nargs="+", required=True, help="period b block")
    ps.add_argument("--json", action="store_true", help="emit the full certificate as JSON")
    ps.set_defaults(fn=_cmd_periodic_solve)

    p = sub.add_parser("construct", formatter_class=_Formatter,
                       help="build sequences satisfying a transcendence criterion")
    csub = p.add_subparsers(dest="construct_command", required=True)
    cl = csub.add_parser("liouville", formatter_class=_Formatter,
                         help="derive head quotients dominating the tilde values")
    cl.add_argument("--m", type=int, default=2, help="dimension (default 2)")
    cl.add_argument("--delta", default="1", help="positive rational exponent delta (p/q)")
    cl.add_argument("--b-rule", action="append", required=True,
                    help="tail rule const:K | cycle:V1,V2 | list:V1,V2 (repeat for m > 2)")
    cl.add_argument("--a0", type=int, default=0, help="index-0 head quotient")
    cl.add_argument("--depth", type=int, required=True, help="last index to construct")
    cl.set_defaults(fn=_cmd_construct_liouville)
    cq = csub.add_parser("quasiperiodic", formatter_class=_Formatter,
                         help="copy scheduled repetition windows over a base sequence")
    cq.add_argument("--schedule", required=True, help="JSON file with [n, r, lambda] windows")
    cq.add_argument("--base", required=True, help="JSON file with base partial quotients")
    cq.add_argument("--depth", type=int, required=True, help="number of indices to build")
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
    vb.add_argument("--depth", type=int, default=None, help="last index to check")
    vb.set_defaults(fn=_cmd_verify_bounds)

    vg = vsub.add_parser("growth", formatter_class=_Formatter,
                         help="certified denominator growth bounds")
    vg.add_argument("--pq", required=True)
    vg.add_argument("--d", type=int, default=None, help="check log log C_(n+1) < K(d,m) n")
    vg.add_argument("--M", type=int, default=None, help="check C_n <= eta(M)^n under a_n <= M")
    vg.add_argument("--depth", type=int, default=None, help="last index to check")
    vg.set_defaults(fn=_cmd_verify_growth)

    vl = vsub.add_parser("liouville", formatter_class=_Formatter,
                         help="check the head-dominates-tilde criterion inequality")
    vl.add_argument("--pq", required=True)
    vl.add_argument("--delta", required=True, help="positive rational exponent (p/q)")
    vl.add_argument("--depth", type=int, default=None, help="last index to check")
    vl.set_defaults(fn=_cmd_verify_liouville)

    v1 = vsub.add_parser("main1", formatter_class=_Formatter,
                         help="quasi-periodic criterion with growing quotients")
    v1.add_argument("--schedule", required=True)
    v1.add_argument("--base", required=True)
    v1.add_argument("--d", type=int, required=True)
    v1.add_argument("--c", required=True, help="rational constant in r_k < c n_k")
    v1.add_argument("--depth", type=int, required=True)
    v1.set_defaults(fn=_cmd_verify_main1)

    v2 = vsub.add_parser("main2", formatter_class=_Formatter,
                         help="quasi-periodic criterion with bounded quotients")
    v2.add_argument("--schedule", required=True)
    v2.add_argument("--base", required=True)
    v2.add_argument("--M", type=int, required=True, help="quotient bound")
    v2.add_argument("--N", type=int, required=True, help="window length bound")
    v2.add_argument("--variant", choices=("statement", "lemma38", "proof18"),
                    default="statement", help="which threshold-constant convention to use")
    v2.add_argument("--depth", type=int, default=64)
    v2.set_defaults(fn=_cmd_verify_main2)

    return parser


@unlimited_int_digits
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
