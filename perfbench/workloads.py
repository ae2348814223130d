"""The four seeded workloads: input files, operation lists and their checks.

Every operation is one process: either the `mcf` CLI (`python -m mcf.cli`)
or, for library routes the CLI does not expose, `runner.py`.  Each has a
time limit and an expected exit code; a failure is charged the limit.
Inputs come only from the seed, and mcf sees only the generated files and
arguments.  Sizes are fixed per workload so that seeds vary the values but
not the amount of work.

Known defects of the measured code are kept in the operation lists and
named by `known_defect`: they fail today and count in fail_ratio, so a fix
reads as a drop in fail_ratio and run_s, never as a slowdown.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks

NAMES = ("algebraic", "oracle", "scan", "liouville")

# Known defects at the commit that introduced the benchmark (see ROADMAP item 2).
DEPTH_CAP = "oracle floors restart at level 0 and stop at the 64-level budget"
IROOT_HANG = "_iroot_floor walks +-1 from a float estimate and never ends at depth 6"


@dataclass
class Op:
    name: str
    kind: str  # "cli": arguments of `mcf`; "lib": arguments of runner.py
    args: list
    limit: float  # seconds; a failure is charged this
    check: Callable[[str], None]  # raises checks.CheckFailed on a wrong stdout
    expect_exit: int = 0
    known_defect: str | None = None
    out: str = ""  # stdout file, set by build()


class Inputs:
    """Writes generated input files under the run's work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def out(self, op_name: str) -> str:
        """Where the operation's stdout goes; liouville's verify reads construct's from here."""
        return f"{self.workdir}/{op_name}.out"

    def write(self, name: str, obj) -> str:
        path = f"{self.workdir}/{name}"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
        return path


def build(workload: str, seed: int, workdir: str) -> list:
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs(workdir)
    ops = {"algebraic": algebraic, "oracle": oracle, "scan": scan, "liouville": liouville}[workload](rng, inputs)
    for op in ops:
        op.out = inputs.out(op.name)
    return ops


def _pq_json(seqs):
    return {"m": len(seqs), "seqs": [[str(v) for v in s] for s in seqs]}


def _strict_pq(rng, m, length, top):
    """Admissible by construction: a_n^(1) > a_n^(j) >= 0 for n >= 1, so no tie ever propagates."""
    seqs = [[rng.randint(0, 3)] for _ in range(m)]
    for _ in range(1, length):
        head = rng.randint(2, top)
        seqs[0].append(head)
        for j in range(1, m):
            seqs[j].append(rng.randint(0, head - 1))
    return seqs


# -- algebraic ------------------------------------------------------------------------
# Field inverse (poly_xgcd over Fractions), root refinement and certified floors
# do almost all the work; convergents and serialization stay small.  Every pass
# expands one tuple in each field of the pools; the seed picks each tuple's
# coordinates (theta^e + u) / p among the shapes vet_pairs.py kept for that
# field (vetted.json): not eventually periodic, and of near-median cost.

# (degree, powers of theta in the coordinates, steps) -> k of the fields x^d - k, roots in (1, 2)
SHAPES = {
    (3, (1, 2), 560): (2, 3, 5, 6, 7),
    (4, (1, 2), 330): (2, 3, 5),
    (4, (1, 2, 3), 200): (2, 3, 5),
}


def _radical(k, d, coords):
    """JSON for the coordinates (theta**e + u) / p in Q(theta), theta = k**(1/d)."""
    out = []
    for e, u, p in coords:
        c = ["0/1"] * d
        c[0] = f"{u}/{p}"
        c[e] = f"1/{p}"
        out.append({"kind": "algebraic", "minpoly": [str(-k)] + ["0"] * (d - 1) + ["1"],
                    "lo": "1/1", "hi": "2/1", "coords": c})
    return out


def algebraic(rng, inputs):
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "vetted.json"), encoding="utf-8") as fh:
        vetted = json.load(fh)
    tuples = []
    for (d, powers, steps), pool in SHAPES.items():
        ks = [rng.choice(pool)] if len(powers) == 3 else pool  # one m = 3 triple per pass
        tuples += [(k, d, powers, steps) for k in ks]
    rng.shuffle(tuples)
    ops = []
    for i, (k, d, powers, steps) in enumerate(tuples):
        shape = rng.choice(vetted[f"{d}-{len(powers)}-{k}"])
        coords = [(e, u, p) for e, (u, p) in zip(powers, shape)]
        path = inputs.write(f"alg{i}.json", _radical(k, d, coords))
        ops.append(Op(f"expand-deg{d}-k{k}-m{len(powers)}", "cli",
                      ["expand", "--input", path, "--steps", str(steps)],
                      limit=6.0, check=checks.algebraic_expansion(k, d, coords, steps)))
    for i in range(3):
        pre, per = rng.randint(0, 2), rng.randint(1, 3)
        blocks = []
        for length in (pre, per):
            a = [rng.randint(1, 6) for _ in range(length)]
            blocks += [a, [rng.randint(0, v - 1) for v in a]]
        args = ["periodic", "solve", "--json"]
        for flag, block in zip(("--pre-a", "--pre-b", "--per-a", "--per-b"), blocks):
            if block:
                args += [flag] + [str(v) for v in block]
        ops.append(Op(f"periodic-solve-{i}", "cli", args, limit=2.0,
                      check=checks.periodic_certificate(*blocks)))
    return ops


# -- oracle -----------------------------------------------------------------------------
# The same engine in interval mode: limit_values of an admissible pq is a window
# oracle, and expanding it must give the pq back.  The long round trips and the
# scans over long oracles hit the 64-level cap today.

# The window oracle of a finite pq cannot certify its last few floors: seeded
# pqs of this generator needed up to 12 (m = 2) and 17 (m = 3) trailing indices.
SHORT, LONG, MARGIN_PER_DIM = 48, 200, 8


def oracle(rng, inputs):
    ops = []
    for m in (2, 3):
        for length in (SHORT, LONG):
            seqs = _strict_pq(rng, m, length, 9)
            path = inputs.write(f"pq-m{m}-{length}.json", _pq_json(seqs))
            long = length == LONG
            tag = f"m{m}-{length}"
            upto = length - MARGIN_PER_DIM * m
            ops.append(Op(f"roundtrip-{tag}", "lib", ["roundtrip", path, str(upto)],
                          limit=2.5 if long else 1.5, check=checks.same_prefix(seqs, upto),
                          known_defect=DEPTH_CAP if long else None))
            ops.append(Op(f"witnesses-{tag}", "lib", ["witnesses", path, str(upto)],
                          limit=1.5, check=checks.witnesses(seqs, upto, [0]),
                          known_defect=DEPTH_CAP if long else None))
            if not long:
                ops.append(Op(f"roth-{tag}", "lib", ["roth", path, "1", str(upto)],
                              limit=1.5, check=checks.roth(seqs, upto, Fraction(1))))
    for i in range(2):
        xs = [Fraction(rng.getrandbits(4000) | 1 << 3999, rng.getrandbits(4000) | 1 << 3999)
              for _ in range(2)]
        path = inputs.write(f"rational{i}.json", [
            {"kind": "rational", "num": str(x.numerator), "den": str(x.denominator)} for x in xs
        ])
        ops.append(Op(f"expand-rational-4000bit-{i}", "cli",
                      ["expand", "--input", path, "--steps", "100000"],
                      limit=3.0, check=checks.rational_expansion(xs, 100000)))
    digits = [f"{rng.randint(1, 9)}.{rng.getrandbits(40) % 10**12:012d}" for _ in range(2)]
    path = inputs.write("decimal.json", [{"kind": "decimal", "digits": d} for d in digits])
    ops.append(Op("expand-decimal-exhausted", "cli", ["expand", "--input", path, "--steps", "60"],
                  limit=1.5, check=checks.empty_stdout, expect_exit=3))
    return ops


# -- scan ---------------------------------------------------------------------------------
# One long m = 2 pq with a_0 = b_0 = 0 and quotients <= 5: many medium integers,
# aux_stream's lag products, CertifiedPowers chains and mpmath iv.  No field
# arithmetic.

SCAN_LEN, SCAN_M = 4000, 5


def scan(rng, inputs):
    a, b = [0, SCAN_M], [0, rng.randint(0, SCAN_M - 1)]
    for n in range(2, SCAN_LEN):
        # a_2 < C_1 = a_1 keeps --d 1 applicable from n = 1
        head = rng.randint(2, SCAN_M - 1 if n == 2 else SCAN_M)
        a.append(head)
        b.append(rng.randint(0, head - 1))
    seqs = [a, b]
    pq = inputs.write("scan-pq.json", _pq_json(seqs))
    schedule, n_k = [], rng.randint(10, 20)
    while True:
        r_k, lam_k = rng.randint(2, 8), rng.randint(2, 12)
        if n_k + r_k * lam_k >= SCAN_LEN - 200:
            break
        schedule.append((n_k, r_k, lam_k))
        n_k += r_k * lam_k + rng.randint(1, 3 * n_k)
    sched = inputs.write("schedule.json", {"schedule": [list(w) for w in schedule]})
    depth = SCAN_LEN - 200
    last = SCAN_LEN - 1
    return [
        Op("convergents-csv", "cli", ["convergents", "--pq", pq, "--depth", str(last), "--emit", "csv"],
           limit=9.0, check=checks.convergents_csv(seqs, last)),
        Op("verify-bounds", "cli", ["verify", "bounds", "--pq", pq], limit=6.0,
           check=checks.bounds(seqs)),
        Op("verify-growth-M5", "cli", ["verify", "growth", "--pq", pq, "--M", str(SCAN_M)], limit=4.0,
           check=checks.growth(seqs, M=SCAN_M)),
        Op("verify-growth-d1", "cli", ["verify", "growth", "--pq", pq, "--d", "1"], limit=4.0,
           check=checks.growth(seqs, d=1)),
        Op("verify-admissible", "cli", ["verify", "admissible", "--pq", pq], limit=1.5,
           check=checks.admissible(seqs)),
        Op("verify-main1", "cli", ["verify", "main1", "--schedule", sched, "--base", pq, "--d", "1",
                                   "--c", "1", "--depth", str(depth)], limit=2.0,
           check=checks.main1(seqs, schedule, 1, 1, depth)),
        Op("verify-main2", "cli", ["verify", "main2", "--schedule", sched, "--base", pq, "--M",
                                   str(SCAN_M), "--N", "8", "--depth", str(depth)], limit=2.0,
           check=checks.main2(seqs, schedule, SCAN_M, 8, depth)),
    ]


# -- liouville ------------------------------------------------------------------------------
# Few indices, multi-Mbit integers: construct writes a pq file and verify reads it
# back, so serialization is measured both ways on the same format.


def _rule(text):
    kind, _, payload = text.partition(":")
    vals = [int(v) for v in payload.split(",")]
    return lambda n: vals[0] if kind == "const" else vals[n % len(vals)]


def liouville(rng, inputs):
    cycle = ",".join(str(rng.randint(0, 2)) for _ in range(3))
    specs = [
        # name, m, delta, depth, tail rule (all tail coordinates), a0, limit, known defect
        ("m2-b0-d15", 2, "1", 15, "const:0", rng.randint(0, 5), 9.0, None),
        ("m2-cycle-d13", 2, "1", 13, f"cycle:{cycle}", rng.randint(0, 3), 2.0, None),
        ("m3-d12", 3, "1", 12, f"const:{rng.randint(0, 2)}", rng.randint(0, 3), 2.0, None),
        ("m2-delta3_2-d6", 2, "3/2", 6, "const:0", rng.randint(0, 3), 1.0, IROOT_HANG),
    ]
    ops = []
    for name, m, delta, depth, rule, a0, limit, defect in specs:
        construct = f"construct-{name}"
        ops.append(Op(construct, "cli", ["construct", "liouville", "--m", str(m), "--delta", delta,
                                         "--depth", str(depth), "--a0", str(a0), "--b-rule", rule],
                      limit=limit, known_defect=defect,
                      check=checks.liouville_construct(m, Fraction(delta), depth, [_rule(rule)] * (m - 1), a0)))
        ops.append(Op(f"verify-{name}", "cli", ["verify", "liouville", "--pq", inputs.out(construct),
                                                 "--delta", delta],
                      limit=limit, check=checks.liouville_verify(inputs.out(construct), Fraction(delta), depth),
                      known_defect=defect and "reads the output of the hanging construction"))
    return ops
