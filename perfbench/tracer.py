"""Per-layer tracing of mcf from outside the package.

`Tracer.install()` wraps the public functions of each `mcf.*` layer and
rebinds every module attribute that refers to them: `from .engine import
expand` copies the name into `mcf.periodic`, `mcf.convergents` and
`mcf.cli`, so patching `mcf.engine.expand` alone would miss those callers.
Methods are rebound on their class, aliases such as `__rmul__` included.
Generators (conv_stream, aux_stream, tilde_stream) get one span per step of
their iteration, so time spent inside them is theirs and not the consumer's.

Each call is a frame on a stack: its self time is its duration minus the
durations of the frames it opened.  Calls of all but the hottest methods
are also kept as span records (operation, label, parent record, start,
end); the parent relation gives `periodic.root_select.s`, the time of
`expand` calls made directly by `solve_periodic`.  Counts and bit sizes are
taken from arguments and results and repeat exactly from run to run.

`METRICS` maps the per-layer totals of one pass to the benchmark's named
per-layer metrics; this module imports mcf only inside `install()`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

ENCODE = ["dumps_stable", "pq_to_json", "expansion_jsonl", "real_to_json", "periodic_spec_to_json",
          "certificate_to_json", "admissibility_report_to_json", "bound_report_to_json",
          "growth_report_to_json", "proximity_report_to_json", "criterion_report_to_json"]
DECODE = ["pq_from_json", "reals_from_file_payload", "schedule_from_json"]

# label -> (module, attributes); a label that names several functions sums them
TARGETS = {
    "serialization.encode": ("mcf.serialization", ENCODE),
    "serialization.decode": ("mcf.serialization", DECODE),
    "engine.expand": ("mcf.engine", ["expand"]),
    "engine.check_admissible": ("mcf.engine", ["check_admissible"]),
    "exact_reals.inverse": ("mcf.exact_reals", ["FieldElement.inverse"]),
    "exact_reals.mul": ("mcf.exact_reals", ["FieldElement.__mul__"]),
    "exact_reals.floor": ("mcf.exact_reals", ["FieldElement.floor"]),
    "exact_reals.refine_root": ("mcf.exact_reals", ["NumberField.refine_root"]),
    "exact_reals.enclosure": ("mcf.exact_reals", ["IntervalOracle.enclosure"]),
    "intervals.floor_certified": ("mcf.intervals", ["RationalInterval.floor_certified"]),
    "intervals.mul": ("mcf.intervals", ["RationalInterval.__mul__"]),
    "intervals.outward": ("mcf.intervals", ["RationalInterval.outward"]),
    "polynomials.poly_xgcd": ("mcf.polynomials", ["poly_xgcd"]),
    "polynomials.poly_divmod": ("mcf.polynomials", ["poly_divmod"]),
    "polynomials.refine_root": ("mcf.polynomials", ["refine_root"]),
    "polynomials.poly_eval_interval": ("mcf.polynomials", ["poly_eval_interval"]),
    "polynomials.isolate_real_roots": ("mcf.polynomials", ["isolate_real_roots"]),
    "convergents.conv_stream": ("mcf.convergents", ["conv_stream"]),
    "convergents.aux_stream": ("mcf.convergents", ["aux_stream"]),
    "convergents.tilde_stream": ("mcf.convergents", ["tilde_stream"]),
    "convergents.CertifiedPowers.cmp_int": ("mcf.convergents", ["CertifiedPowers.cmp_int"]),
    "convergents.CertifiedPowers.tighten": ("mcf.convergents", ["CertifiedPowers.tighten"]),
    "convergents.growth_check": ("mcf.convergents", ["growth_check"]),
    "convergents.bound_checks": ("mcf.convergents", ["bound_checks"]),
    "convergents.loglog_interval": ("mcf.convergents", ["loglog_interval"]),
    "convergents.k_interval": ("mcf.convergents", ["k_interval"]),
    "convergents.ConvergentState.step": ("mcf.convergents", ["ConvergentState.step"]),
    "convergents.tilde_next": ("mcf.convergents", ["tilde_next"]),
    "periodic.solve_periodic": ("mcf.periodic", ["solve_periodic"]),
    "periodic.x_matrix": ("mcf.periodic", ["x_matrix"]),
    "periodic.cubic_coeffs": ("mcf.periodic", ["cubic_coeffs"]),
    "transcendence.construct_liouville": ("mcf.transcendence", ["construct_liouville"]),
    "transcendence.verify_liouville": ("mcf.transcendence", ["verify_liouville"]),
    "transcendence.main1_check": ("mcf.transcendence", ["main1_check"]),
    "transcendence.main2_check": ("mcf.transcendence", ["main2_check"]),
    "transcendence.main2_constant": ("mcf.transcendence", ["main2_constant"]),
}
GENERATORS = {"convergents.conv_stream", "convergents.aux_stream", "convergents.tilde_stream"}
# called up to millions of times per operation: frames and counters only, no span records
HOT = {"intervals.mul", "intervals.outward", "intervals.floor_certified", "exact_reals.mul",
       "polynomials.poly_divmod", "convergents.ConvergentState.step"}


def _frac_bits(*fracs):
    return max(max(f.numerator.bit_length(), f.denominator.bit_length()) for f in fracs)


def _interval_bits(t, iv):
    t.bits("intervals.endpoint_bits_max", _frac_bits(iv.lo, iv.hi))


# label -> (pre(tracer, args), post(tracer, result)); both run outside the timed frame
HOOKS = {
    "engine.expand": (None, lambda t, r: t.add("engine.quotients", sum(len(s) for s in r.pq.seqs))),
    "exact_reals.floor": (lambda t, a: t.bits("exact_reals.coord_bits_max", _frac_bits(*a[0].coords)), None),
    "exact_reals.refine_root": (None, lambda t, r: t.bits("exact_reals.root_bits_max", _frac_bits(r.lo, r.hi))),
    "exact_reals.enclosure": (lambda t, a: t.bits("exact_reals.enclosure.level_max", a[1]), None),
    "intervals.floor_certified": (None, lambda t, r: t.add("intervals.floor_certified.hits", r is not None)),
    "intervals.mul": (None, _interval_bits),
    "intervals.outward": (None, _interval_bits),
    "convergents.ConvergentState.step": (None, lambda t, r: t.bits("convergents.C_bits_max", r.C.bit_length())),
    "transcendence.construct_liouville": (
        None, lambda t, r: t.bits("transcendence.head_bits_max", max(v.bit_length() for v in r.seqs[0]))),
    "transcendence.verify_liouville": (
        lambda t, a: t.bits("transcendence.head_bits_max", max(v.bit_length() for v in a[0].seqs[0])), None),
}


class Tracer:
    def __init__(self, op: str):
        self.op = op
        self.stack = []  # frames: [time of child frames, index of nearest span record]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # label -> [calls, self s, inclusive s]
        self.counts = defaultdict(int)
        self.maxes = defaultdict(int)
        self.spans = []  # (operation, label, parent record or -1, start, end)
        self.missing = []  # wrap targets not found in this version of mcf

    def add(self, name, n):
        self.counts[name] += n

    def bits(self, name, n):
        if n > self.maxes[name]:
            self.maxes[name] = n

    def _frame(self, label, fn):
        """`fn` wrapped in a timed frame (and a span record unless the label is hot)."""
        stack, spans, op = self.stack, self.spans, self.op
        totals = self.totals[label]
        record = label not in HOT
        pre, post = HOOKS.get(label, (None, None))

        def framed(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            parent = stack[-1] if stack else None
            up = parent[1] if parent else -1
            if record:
                idx = len(spans)
                spans.append(None)
            else:
                idx = up
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                totals[0] += 1
                totals[1] += dur - frame[0]
                totals[2] += dur
                if parent is not None:
                    parent[0] += dur
                if record:
                    spans[idx] = (op, label, up, t0, t1)
            if post is not None:
                post(self, result)
            return result

        return framed

    def _generator(self, label, fn):
        step = self._frame(label, next)
        counting = label == "convergents.conv_stream"

        def iterate(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                if counting:
                    self.counts["convergents.rows"] += 1
                yield item

        return iterate

    def call(self, label, fn, *args):
        return self._frame(label, fn)(*args)

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "mcf" or name.startswith("mcf.")]
        for label, (modname, attrs) in TARGETS.items():
            owner = sys.modules[modname]
            for attr in attrs:
                cls_name, _, meth = attr.rpartition(".")
                scope = vars(getattr(owner, cls_name, object)) if cls_name else vars(owner)
                orig = scope.get(meth)
                if orig is None:  # renamed or removed by a later change: its metrics read 0
                    self.missing.append(f"{modname}.{attr}")
                    continue
                wrap = (self._generator if label in GENERATORS else self._frame)(label, orig)
                targets = [getattr(owner, cls_name)] if cls_name else modules
                for target in targets:
                    for name, value in list(vars(target).items()):
                        if value is orig:
                            setattr(target, name, wrap)

    def write(self, path):
        edges = defaultdict(lambda: [0, 0.0])
        for rec in self.spans:
            if rec is not None and rec[2] >= 0:
                e = edges[f"{self.spans[rec[2]][1]}>{rec[1]}"]
                e[0] += 1
                e[1] += rec[4] - rec[3]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": self.op, "spans": len(self.spans), "totals": self.totals, "counts": self.counts,
                       "maxes": self.maxes, "edges": edges, "missing": self.missing}, fh)


# -- per-layer metrics ------------------------------------------------------------------


def merge(traces):
    """Sum the totals, counts and edges of several operations; keep the largest maxima."""
    out = {"totals": defaultdict(lambda: [0, 0.0, 0.0]), "counts": defaultdict(int),
           "maxes": defaultdict(int), "edges": defaultdict(lambda: [0, 0.0]), "missing": set()}
    for tr in traces:
        out["missing"].update(tr["missing"])
        for key in ("totals", "edges"):
            for label, vals in tr[key].items():
                out[key][label] = [a + b for a, b in zip(out[key][label], vals)]
        for label, v in tr["counts"].items():
            out["counts"][label] += v
        for label, v in tr["maxes"].items():
            out["maxes"][label] = max(out["maxes"][label], v)
    return out


def _self(label):
    return lambda agg: agg["totals"][label][1]


def _calls(label):
    return lambda agg: agg["totals"][label][0]


def _count(name):
    return lambda agg: agg["counts"][name]


def _max(name):
    return lambda agg: agg["maxes"][name]


def _hit_ratio(agg):
    calls = agg["totals"]["intervals.floor_certified"][0]
    return agg["counts"]["intervals.floor_certified.hits"] / calls if calls else 0.0


def _layer(label, *kinds):
    """Metrics `label.s`, `label.calls`, `label.self_s` for the kinds asked."""
    make = {"s": ("s", _self), "self_s": ("s", _self), "calls": ("count", _calls)}
    return [(f"{label}.{kind}", make[kind][0], make[kind][1](label)) for kind in kinds]


# name, unit, value from the merged totals of one pass; `.s` and `.self_s` are self time
METRICS = [
    ("cli.run.s", "s", lambda agg: agg["totals"]["cli.run"][2]),
    ("cli.self.s", "s", _self("cli.run")),
    ("cli.stdout_bytes", "bytes", _count("cli.stdout_bytes")),
    *_layer("serialization.encode", "s"),
    *_layer("serialization.decode", "s"),
    *_layer("engine.expand", "self_s", "calls"),
    ("engine.quotients", "count", _count("engine.quotients")),
    *_layer("engine.check_admissible", "s"),
    *_layer("exact_reals.inverse", "s", "calls"),
    *_layer("exact_reals.mul", "s", "calls"),
    *_layer("exact_reals.floor", "s", "calls"),
    *_layer("exact_reals.refine_root", "s", "calls"),
    ("exact_reals.coord_bits_max", "bits", _max("exact_reals.coord_bits_max")),
    ("exact_reals.root_bits_max", "bits", _max("exact_reals.root_bits_max")),
    *_layer("exact_reals.enclosure", "s", "calls"),
    ("exact_reals.enclosure.level_max", "count", _max("exact_reals.enclosure.level_max")),
    *_layer("intervals.floor_certified", "calls"),
    ("intervals.floor_certified.hit_ratio", "ratio", _hit_ratio),
    *_layer("intervals.mul", "s", "calls"),
    *_layer("intervals.outward", "s", "calls"),
    ("intervals.endpoint_bits_max", "bits", _max("intervals.endpoint_bits_max")),
    *_layer("polynomials.poly_xgcd", "s", "calls"),
    *_layer("polynomials.poly_divmod", "s"),
    *_layer("polynomials.refine_root", "s", "calls"),
    *_layer("polynomials.poly_eval_interval", "s", "calls"),
    *_layer("polynomials.isolate_real_roots", "s"),
    *_layer("convergents.conv_stream", "s"),
    ("convergents.rows", "count", _count("convergents.rows")),
    *_layer("convergents.aux_stream", "s"),
    *_layer("convergents.CertifiedPowers.cmp_int", "s", "calls"),
    *_layer("convergents.CertifiedPowers.tighten", "calls"),
    *_layer("convergents.growth_check", "self_s"),
    *_layer("convergents.bound_checks", "self_s"),
    *_layer("convergents.loglog_interval", "s", "calls"),
    *_layer("convergents.k_interval", "s"),
    *_layer("convergents.tilde_stream", "s"),
    *_layer("convergents.ConvergentState.step", "s", "calls"),
    *_layer("convergents.tilde_next", "s"),
    ("convergents.C_bits_max", "bits", _max("convergents.C_bits_max")),
    *_layer("periodic.solve_periodic", "self_s"),
    *_layer("periodic.x_matrix", "s"),
    *_layer("periodic.cubic_coeffs", "s"),
    ("periodic.root_select.s", "s", lambda agg: agg["edges"]["periodic.solve_periodic>engine.expand"][1]),
    *_layer("transcendence.construct_liouville", "self_s"),
    *_layer("transcendence.verify_liouville", "self_s"),
    ("transcendence.head_bits_max", "bits", _max("transcendence.head_bits_max")),
    *_layer("transcendence.main1_check", "self_s"),
    *_layer("transcendence.main2_check", "self_s"),
    *_layer("transcendence.main2_constant", "s"),
]
# trace.overhead_ratio is computed in run.py from the traced and untraced passes
