"""Benchmark of the mcf CLI and library: four seeded certified-computation workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout (mcf is imported from ./src).  NAME is one
of algebraic, oracle, scan, liouville (workloads.py says why each exists).
Operations run one at a time, each in its own interpreter spawned by a lean
launcher process, closed loop, no parallelism: nothing is queued, so no
time-waited metric exists.

--trace 0 measures end to end.  The operation list is run in passes until
the next pass would end after S seconds (at least one pass).  The first pass
checks every output independently of mcf (checks.py); later passes require
byte-identical stdout.  Per workload it reports
  setup_s      median wall time of a no-work CLI run (`mcf --help`: interpreter
               start, import of mcf.cli with mpmath, parser build), 7 samples
  run_s        median over passes of the pass wall time
  cpu_s        median over passes of the user+sys time of its processes
  peak_rss_mb  median over passes of the largest peak RSS of any process
  pass_ratio   operations that passed / attempted (fail_ratio is 1 - this;
               it is printed with the failures, but it is 0 on some workloads)
An operation that fails, is wrong or exceeds its limit is charged the limit
in run_s and cpu_s.

--trace 1 runs one untraced pass and two traced passes, in which each
operation runs through runner.py with every layer wrapped (tracer.py), and
reports the per-layer metrics of tracer.METRICS plus trace.overhead_ratio.
Counts and bit sizes must agree exactly between the two traced passes.

The last stdout line is one JSON object {correct, attempted, failed, metrics};
the human-readable report goes to stderr.  `failed` counts operations that
failed other than in the recorded known-defect way (workloads.py); known
defects count only in fail_ratio / pass_ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
SETUP_SAMPLES = 7
TRACED_PASSES = 2
TRACED_LIMIT_FACTOR = 3.0
RSS_SLACK_KB = 4096
EXACT_UNITS = ("count", "bits", "bytes")


class Launcher:
    """The lean spawning process (launcher.py), started before any input is held."""

    def __init__(self, root: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv, out, err, limit):
        self.proc.stdin.write(json.dumps({"argv": argv, "out": out, "err": err, "limit": limit}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Outcome:
    __slots__ = ("status", "reason", "wall", "cpu", "rss_kb", "digest")

    def __init__(self, status, reason, reply, digest=None):
        self.status, self.reason, self.digest = status, reason, digest
        self.wall, self.cpu, self.rss_kb = reply["wall"], reply["cpu"], reply["rss_kb"]


def _tail(path, limit=300):
    with open(path, "rb") as fh:
        return fh.read()[-limit:].decode(errors="replace").strip()


class Bench:
    def __init__(self, launcher, ops, work):
        self.launcher, self.ops, self.work = launcher, ops, work
        self.problems = []

    def trace_file(self, op):
        return f"{self.work}/{op.name}.trace.json"

    def argv(self, op, traced):
        runner = os.path.join(HERE, "runner.py")
        if traced:
            head = [runner, "--trace", self.trace_file(op), "--op", op.name]
            return head + (["cli"] if op.kind == "cli" else []) + op.args
        return (["-m", "mcf.cli"] if op.kind == "cli" else [runner]) + op.args

    def run_op(self, op, reference, traced):
        out, err = op.out, f"{self.work}/{op.name}.err"
        limit = op.limit * (TRACED_LIMIT_FACTOR if traced else 1.0)
        if traced and os.path.exists(self.trace_file(op)):
            os.remove(self.trace_file(op))
        reply = self.launcher.run(self.argv(op, traced), out, err, limit)
        if reply["timed_out"]:
            return Outcome("failed", f"no result within its {limit:g} s limit", reply)
        if reply["exit"] != op.expect_exit:
            return Outcome("failed", f"exit {reply['exit']} (expected {op.expect_exit}): {_tail(err)}", reply)
        digest = checks.file_digest(out)
        ref = reference.get(op.name) if reference else None
        if ref is not None and ref.status == "ok":
            if digest != ref.digest:
                return Outcome("wrong", "stdout differs from the checked first pass", reply, digest)
            return Outcome("ok", "", reply, digest)
        try:
            op.check(out)
        except checks.CheckFailed as exc:
            return Outcome("wrong", f"check failed: {exc}", reply, digest)
        except Exception:  # a malformed output must not stop the benchmark
            return Outcome("wrong", "check raised: " + traceback.format_exc(limit=2), reply, digest)
        return Outcome("ok", "", reply, digest)

    def run_pass(self, reference=None, traced=False):
        return {op.name: self.run_op(op, reference, traced) for op in self.ops}

    def charged(self, outcomes, field):
        return sum(
            getattr(res, field) if res.status == "ok" else op.limit
            for op, res in ((op, outcomes[op.name]) for op in self.ops)
        )

    def rss_self_check(self):
        """A no-op child must report about what its own kernel status says, not our RSS."""
        out, err = f"{self.work}/rss-probe.out", f"{self.work}/rss-probe.err"
        reply = self.launcher.run(["-c", "import sys; sys.stdout.write(open('/proc/self/status').read())"],
                                  out, err, 10.0)
        with open(out, encoding="utf-8") as fh:
            hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        if abs(reply["rss_kb"] - hwm) > RSS_SLACK_KB:
            self.problems.append(f"launcher RSS self-check: ru_maxrss {reply['rss_kb']} kB vs VmHWM {hwm} kB")

    def setup_samples(self):
        out, err = f"{self.work}/setup.out", f"{self.work}/setup.err"
        walls = []
        for i in range(SETUP_SAMPLES + 1):  # the first run warms the bytecode and file caches
            reply = self.launcher.run(["-m", "mcf.cli", "--help"], out, err, 30.0)
            with open(out, "rb") as fh:
                if reply["exit"] != 0 or not fh.read().startswith(b"usage: mcf"):
                    self.problems.append(f"`mcf --help` failed: {_tail(err)}")
            if i:
                walls.append(reply["wall"])
        return walls


def _tally(bench, passes):
    attempted = len(bench.ops) * len(passes)
    ok = unexpected = 0
    failures = {}
    for outcomes in passes:
        for op in bench.ops:
            res = outcomes[op.name]
            if res.status == "ok":
                ok += 1
                continue
            if res.status == "wrong" or not op.known_defect:
                unexpected += 1
            failures.setdefault(op.name, (res.status, res.reason, op.known_defect))
    correct = not bench.problems and all(s != "wrong" for s, _, _ in failures.values())
    return attempted, ok, unexpected, failures, correct


def measure(workload, seed, seconds, trace, work, report):
    ops = workloads.build(workload, seed, work)
    launcher = Launcher(os.getcwd())
    try:
        bench = Bench(launcher, ops, work)
        bench.rss_self_check()
        if trace:
            return _traced(bench, report)
        setup = bench.setup_samples()
        passes = [bench.run_pass()]
        elapsed = [sum(r.wall for r in passes[0].values())]
        while sum(elapsed) + statistics.median(elapsed) <= seconds:
            passes.append(bench.run_pass(reference=passes[0]))
            elapsed.append(sum(r.wall for r in passes[-1].values()))
    finally:
        launcher.close()

    attempted, ok, unexpected, failures, correct = _tally(bench, passes)
    samples = {
        "setup_s": ("s", setup),
        "run_s": ("s", [bench.charged(p, "wall") for p in passes]),
        "cpu_s": ("s", [bench.charged(p, "cpu") for p in passes]),
        "peak_rss_mb": ("MB", [max(r.rss_kb for r in p.values()) / 1024 for p in passes]),
    }
    metrics = {name: {"value": statistics.median(vals), "unit": unit} for name, (unit, vals) in samples.items()}
    metrics["pass_ratio"] = {"value": ok / attempted, "unit": "ratio"}
    report(f"{workload} (seed {seed}): {len(ops)} operations x {len(passes)} passes")
    for name, (unit, vals) in samples.items():
        report(f"  {name:<12} {metrics[name]['value']:>12.6f} {unit:<5} median of {len(vals)}: "
               + " ".join(f"{v:.4f}" for v in vals))
    report(f"  {'fail_ratio':<12} {1 - ok / attempted:>12.6f} ratio of {attempted} attempted")
    _report_failures(bench, failures, report)
    return {"correct": correct, "attempted": attempted, "failed": unexpected, "metrics": metrics}


def _report_failures(bench, failures, report):
    for name, (status, reason, defect) in failures.items():
        tag = f"known defect: {defect}" if defect and status != "wrong" else status.upper()
        report(f"  {name}: {reason} [{tag}]")
    for problem in bench.problems:
        report(f"  SELF-CHECK: {problem}")


def _traced(bench, report):
    untraced = bench.run_pass()
    passes, values = [untraced], []
    for _ in range(TRACED_PASSES):
        outcomes = bench.run_pass(reference=untraced, traced=True)
        passes.append(outcomes)
        traces = []
        for op in bench.ops:
            if os.path.exists(bench.trace_file(op)):
                with open(bench.trace_file(op), encoding="utf-8") as fh:
                    traces.append(json.load(fh))
        agg = tracer.merge(traces)
        agg["counts"]["cli.stdout_bytes"] = sum(
            os.path.getsize(op.out) for op in bench.ops if op.kind == "cli"
        )
        both = [op.name for op in bench.ops if outcomes[op.name].status == untraced[op.name].status == "ok"]
        vals = {name: (unit, fn(agg)) for name, unit, fn in tracer.METRICS}
        vals["trace.overhead_ratio"] = (
            "ratio", sum(outcomes[n].wall for n in both) / sum(untraced[n].wall for n in both)
        )
        values.append(vals)
        for target in sorted(agg["missing"]):
            report(f"  not traced (absent from this mcf): {target}")
    for name, (unit, _) in values[0].items():
        if unit in EXACT_UNITS and len({v[name][1] for v in values}) != 1:
            bench.problems.append(f"{name} differs between traced passes: {[v[name][1] for v in values]}")
    metrics = {
        name: {"value": statistics.median(v[name][1] for v in values), "unit": unit}
        for name, (unit, _) in values[0].items()
    }
    attempted, ok, unexpected, failures, correct = _tally(bench, passes)
    report(f"traced: {len(bench.ops)} operations, 1 untraced + {TRACED_PASSES} traced passes")
    for name, m in metrics.items():
        report(f"  {name:<44} {m['value']:>16.6f} {m['unit']}")
    _report_failures(bench, failures, report)
    return {"correct": correct, "attempted": attempted, "failed": unexpected, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "mcf")):
        sys.stderr.write("run from the root of an mcf checkout: ./src/mcf not found\n")
        return 2

    def report(line):
        sys.stderr.write(line + "\n")

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        work = os.path.join(WORK_ROOT, f"{name}-{args.seed}-{os.getpid()}")
        os.makedirs(work)
        try:
            results[name] = measure(name, args.seed, args.seconds, args.trace, work, report)
        finally:
            shutil.rmtree(work)
    if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
        os.rmdir(WORK_ROOT)
    final = results[args.workload] if args.workload != "all" else results
    sys.stdout.write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
