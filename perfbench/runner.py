"""Run one measured operation in this (fresh) interpreter.

    python3 perfbench/runner.py [--trace OUT --op NAME] cli ARGS...
    python3 perfbench/runner.py [--trace OUT --op NAME] roundtrip PQ STEPS
    python3 perfbench/runner.py [--trace OUT --op NAME] witnesses PQ UPTO
    python3 perfbench/runner.py [--trace OUT --op NAME] roth PQ EPSILON UPTO

`cli` is `mcf ARGS...` in-process; the others are library routes the CLI
does not expose, printing one JSON line.  Exit codes follow the CLI: 3 when
a refinement budget runs out, 2 for other mcf errors.  With --trace, every
layer's public functions are wrapped first (tracer.py) and the per-layer
totals are written to OUT when the operation ends, also when it is stopped
with SIGTERM at its time limit.
"""

from __future__ import annotations

import json
import signal
import sys


def _library_op(kind, args):
    from mcf.convergents import approx_witnesses, limit_values
    from mcf.engine import expand
    from mcf.serialization import pq_from_json
    from mcf.transcendence import roth_scan

    with open(args[0], encoding="utf-8") as fh:
        pq = pq_from_json(json.load(fh))
    oracles = list(limit_values(pq))
    if kind == "roundtrip":
        rec = expand(oracles, int(args[1]))
        return {"seqs": [list(s) for s in rec.pq.seqs]}
    if kind == "witnesses":
        return {"indices": approx_witnesses(oracles, pq, int(args[1]), coords=[1])}
    if kind == "roth":
        return {"indices": roth_scan(oracles, pq, args[1], int(args[2]))}
    raise SystemExit(f"unknown operation {kind!r}")


def run(kind, args) -> int:
    if kind == "cli":
        import mcf.cli

        return mcf.cli.run(args)
    from mcf.errors import MCFError, NonTerminating

    try:
        result = _library_op(kind, args)
    except NonTerminating as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except MCFError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")
    return 0


class Stopped(BaseException):
    """SIGTERM at the time limit: unwinds the traced frames, then the totals are written."""


def _stop(signum, frame):
    raise Stopped


def main(argv) -> int:
    trace_out = op = None
    if argv[:1] == ["--trace"]:
        trace_out, op, argv = argv[1], argv[3], argv[4:]
    kind, args = argv[0], argv[1:]
    if trace_out is None:
        return run(kind, args)

    import mcf.cli  # noqa: F401  (every mcf module, so that all bindings can be wrapped)
    import tracer

    t = tracer.Tracer(op)
    t.install()
    signal.signal(signal.SIGTERM, _stop)
    code = 124
    try:
        code = t.call("cli.run" if kind == "cli" else f"runner.{kind}", run, kind, args)
    except Stopped:
        pass
    finally:
        sys.stdout.flush()
        t.write(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
