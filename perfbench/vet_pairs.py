"""Rebuild vetted.json, the coordinate shapes the algebraic workload draws from.

    PYTHONPATH=src python3 perfbench/vet_pairs.py

For every field x^d - k of the pools and every shape (theta^e + u) / p of
the grid below, expand the tuple with mcf and add up the power-basis bit
sizes of the complete quotients at each floor, a proxy for the work the
expansion does.  Shapes within 6% of their field's median proxy are kept.
That drops the eventually periodic pairs a cubic field can produce (their
quotients stop growing, so the proxy collapses) and keeps the seeded
workload's cost nearly the same from seed to seed.  The benchmark itself
only reads the result; this tool is the one place that imports mcf for
input generation.
"""

import itertools
import json
import os
import statistics
from fractions import Fraction

from mcf import AlgebraicValue, NumberField, RationalInterval, exact_reals, expand

import workloads

BAND = 0.06
SHIFTS, DENOMINATORS = (0, 1), (2, 3, 5, 7)


def proxy(k, d, coords, steps):
    total = 0
    floor = exact_reals.FieldElement.floor

    def counting(self):
        nonlocal total
        total += sum(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in self.coords)
        return floor(self)

    field = NumberField([-k] + [0] * (d - 1) + [1], RationalInterval(1, 2))
    values = []
    for e, u, p in coords:
        c = [Fraction(0)] * d
        c[0], c[e] = Fraction(u, p), Fraction(1, p)
        values.append(AlgebraicValue(field.element(c)))
    exact_reals.FieldElement.floor = counting
    try:
        expand(values, steps)
    finally:
        exact_reals.FieldElement.floor = floor
    return total


def main():
    out = {}
    for (d, powers, steps), pool in workloads.SHAPES.items():
        pairs = list(itertools.product(SHIFTS, DENOMINATORS))
        grid = list(itertools.product(pairs, repeat=len(powers)))
        if len(powers) == 3:  # 512 triples would take long; (3, 5) denominators keep 64
            grid = [g for g in grid if all(p in (3, 5) for _, p in g)]
        for k in pool:
            scored = [(proxy(k, d, [(e, u, p) for e, (u, p) in zip(powers, g)], steps), g) for g in grid]
            med = statistics.median(s for s, _ in scored)
            kept = [[list(pair) for pair in g] for s, g in scored if abs(s - med) <= BAND * med]
            out[f"{d}-{len(powers)}-{k}"] = kept
            print(f"x^{d} - {k}, m = {len(powers)}: kept {len(kept)} of {len(scored)}", flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "vetted.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
