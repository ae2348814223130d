"""Independent checks of mcf outputs.

Each check reads one operation's stdout and raises CheckFailed when the
output disagrees with what the benchmark recomputes itself (jp.py, sympy,
or the generated input).  No check imports mcf.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction

import jp

# Liouville heads and scan convergents have far more than 4300 digits.
sys.set_int_max_str_digits(0)


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_json(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not one JSON document: {exc}") from None


def read_json_lines(path):
    with open(path, "rb") as fh:
        try:
            return [json.loads(line) for line in fh if line.strip()]
        except ValueError as exc:
            raise CheckFailed(f"stdout is not JSON lines: {exc}") from None


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hypotheses_ok(report, expected: dict):
    """Compare a criterion report's hypothesis flags with our own verdicts."""
    got = {h["name"]: h["ok"] for h in report["hypotheses"]}
    require(got == expected, f"hypotheses {got} != recomputed {expected}")
    ok = all(expected.values())
    require(report["ok"] is ok, "report ok flag disagrees with its hypotheses")
    if ok:
        require(report["verdict"] == "hypotheses-hold-to-depth", f"verdict {report['verdict']}")


# -- enclosures ------------------------------------------------------------------


def radical_coords(k: int, d: int, coords):
    """Enclosure function for coordinates (theta**e + u) / p, theta = k**(1/d).

    `coords` is a list of (e, u, p) with p > 0; the maps are increasing in
    theta > 0, so endpoint images bound each coordinate.
    """

    def enclose(bits):
        t = jp.iroot(k << (d * bits), d)  # theta * 2**bits in [t, t + 1]
        out = []
        for e, u, p in coords:
            lo = (t ** e >> ((e - 1) * bits)) + (u << bits)
            hi = -(-((t + 1) ** e) >> ((e - 1) * bits)) + (u << bits)
            out.append((lo // p, -(-hi // p)))
        return out

    return enclose


def rational_intervals(intervals):
    """Enclosure function for fixed rational intervals [(lo, hi), ...]."""

    def enclose(bits):
        return [(math.floor(lo * (1 << bits)), math.ceil(hi * (1 << bits))) for lo, hi in intervals]

    return enclose


# -- expand ----------------------------------------------------------------------


def expansion_lines(path):
    """Parse `mcf expand` JSON lines into (seqs, interruption indices)."""
    lines = read_json_lines(path)
    width = len(lines[0]["a"]) if lines else 0
    seqs = [[] for _ in range(width)]
    interrupted = set()
    for n, line in enumerate(lines):
        require(line["n"] == n, f"line {n} carries index {line['n']}")
        for j, v in enumerate(line["a"]):
            seqs[j].append(int(v))
        if line["event"] == "interruption":
            interrupted.add(n)
        else:
            require(line["event"] == "step", f"unknown event {line['event']!r}")
    return seqs, interrupted


def algebraic_expansion(k, d, coords, steps):
    def check(path):
        seqs, interrupted = expansion_lines(path)
        require(not interrupted, "irrational input reported an interruption")
        require([len(s) for s in seqs] == [steps] * len(coords), "wrong number of quotients")
        verdict = jp.floors_certified(seqs, radical_coords(k, d, coords), steps)
        require(verdict is True, f"quotients are not the floors of the complete quotients ({verdict})")

    return check


def rational_expansion(xs, steps):
    def check(path):
        want, interrupted = jp.expand_rational(xs, steps)
        expect = [
            {"n": n, "a": [str(s[n]) for s in want if n < len(s)],
             "event": "interruption" if n in interrupted else "step"}
            for n in range(max(len(s) for s in want))
        ]
        require(read_json_lines(path) == expect, "rational expansion differs from the exact recomputation")

    return check


def empty_stdout(path):
    with open(path, "rb") as fh:
        require(fh.read() == b"", "an exhausted oracle must not print partial output")


# -- periodic --------------------------------------------------------------------


def periodic_certificate(pre_a, pre_b, per_a, per_b):
    k, h = len(pre_a), len(per_a)

    def unrolled(length):
        a = [pre_a[n] if n < k else per_a[(n - k) % h] for n in range(length)]
        b = [pre_b[n] if n < k else per_b[(n - k) % h] for n in range(length)]
        return [a, b]

    def check(path):
        import sympy

        cert = read_json(path)
        x = sympy.Symbol("x")
        seqs = unrolled(k + h)
        c_top = jp.columns(seqs)[-1][1]
        a0, b0 = seqs[0][0], seqs[1][0]
        bound = 3024 * c_top ** 9 * ((a0 + 1) ** 5 * (b0 + 1) ** 5 if (a0, b0) != (0, 0) else 1)
        require(int(cert["c_top"]) == c_top, "c_top differs from our C_(k+h-1)")
        require(cert["bound_applicable"] is True and int(cert["bound"]) == bound, "height bound")
        roots = []
        for key in ("alpha", "beta"):
            coeffs = [int(c) for c in cert[f"poly_{key}"]]
            poly = sympy.Poly(list(reversed(coeffs)), x)
            require(poly.degree() == 3 and poly.is_irreducible, f"{key} polynomial is not an irreducible cubic")
            require(coeffs[-1] > 0 and math.gcd(*coeffs) == 1, f"{key} polynomial is not primitive")
            require(int(cert[f"height_{key}"]) == max(abs(c) for c in coeffs), f"{key} height")
            iv = cert[f"{key}_interval"]
            lo, hi = Fraction(iv["lo"]), Fraction(iv["hi"])
            require(poly.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                     sympy.Rational(hi.numerator, hi.denominator)) == 1,
                    f"{key} interval does not isolate one root")
            tight = [
                (Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
                for (a, b), _ in poly.intervals(eps=sympy.Rational(1, 2 ** 600))
            ]
            hits = [iv2 for iv2 in tight if iv2[0] <= hi and iv2[1] >= lo]
            require(len(hits) == 1, f"{key} interval meets {len(hits)} roots")
            roots.append(hits[0])
        steps = 3 * (k + h)
        verdict = jp.floors_certified(unrolled(steps), rational_intervals(roots), steps)
        require(verdict is True, f"the recovered pair does not expand to the spec ({verdict})")

    return check


# -- oracle workload -------------------------------------------------------------


def same_prefix(seqs, steps):
    def check(path):
        got = read_json(path)["seqs"]
        require(got == [s[:steps] for s in seqs], "round trip did not recover the prefix")

    return check


def limit_box(seqs):
    """Rational box around the limit: the hull of the last m+1 convergents."""
    m = len(seqs)
    cols = jp.columns(seqs)[-(m + 1):]
    return [
        (min(Fraction(A[i], C) for A, C in cols), max(Fraction(A[i], C) for A, C in cols))
        for i in range(m)
    ]


def _less(dist_lo, dist_hi, bound):
    if dist_hi < bound:
        return True
    if dist_lo >= bound:
        return False
    raise CheckFailed("the convergent box is too wide to decide the comparison")


def _distance(box, target):
    lo, hi = box
    dlo = max(lo - target, target - hi, Fraction(0))
    dhi = max(abs(lo - target), abs(hi - target))
    return dlo, dhi


def witnesses(seqs, upto, coords):
    """approx_witnesses: |x_i - A_n/C_n| < |ac1_(n+1)| / (C_(n+1) C_n)."""

    def want():
        box = limit_box(seqs)
        cols = jp.columns(seqs)
        tl = jp.tildes(cols, len(seqs))
        out = []
        for n in range(upto + 1):
            (A, C), C1 = cols[n], cols[n + 1][1]
            if all(
                tl[n + 1][i] != 0
                and _less(*_distance(box[i], Fraction(A[i], C)), Fraction(abs(tl[n + 1][i]), C1 * C))
                for i in coords
            ):
                out.append(n)
        return out

    return _indices(want)


def roth(seqs, upto, eps):
    """roth_scan: |x_i - A_n/C_n|**q < 1 / C_n**(2q + p) for eps = p/q, every i."""

    def want():
        box = limit_box(seqs)
        cols = jp.columns(seqs)
        p, q = eps.numerator, eps.denominator
        out = []
        for n in range(upto + 1):
            A, C = cols[n]
            bound = Fraction(1, C ** (2 * q + p))
            if all(
                _less(*(v ** q for v in _distance(box[i], Fraction(A[i], C))), bound)
                for i in range(len(seqs))
            ):
                out.append(n)
        return out

    return _indices(want)


def _indices(want):
    def check(path):
        require(read_json(path)["indices"] == want(), "scan indices differ from the recomputation")

    return check


# -- scan workload ----------------------------------------------------------------


def convergents_csv(seqs, depth):
    """Byte-exact `convergents --emit csv` for m = 2, rebuilt from our own recurrence."""

    def check(path):
        cols = jp.columns(seqs, depth)
        full = jp.with_history(cols, 2)
        h = hashlib.sha256(b"n,A1,A2,C,ac1,bc1,ab1,ac2,bc2,ab2\n")
        for n, ((A, B), C) in enumerate(cols):
            (A1, B1), C1 = full[n + 2]
            (A2, B2), C2 = full[n + 1]
            cells = (n, A, B, C, A * C1 - A1 * C, B * C1 - B1 * C, A * B1 - A1 * B,
                     A * C2 - A2 * C, B * C2 - B2 * C, A * B2 - A2 * B)
            h.update((",".join(map(str, cells)) + "\n").encode())
        require(file_digest(path) == h.hexdigest(), "CSV differs from the recomputed table")

    return check


def _items(report):
    return {it["name"]: it["ok"] for it in report["items"]}


def bounds(seqs):
    def check(path):
        report = read_json(path)
        cols = jp.columns(seqs)
        tl = jp.tildes(cols, 2)  # (ac1_n, bc1_n)
        le = all(A <= C and B <= C for (A, B), C in cols)
        quad = all(
            max(tl[n + 1]) < 3 * cols[n][1] ** 2
            for n in range(len(cols) - 1)
            if seqs[0][n + 1] < cols[n][1]
        )
        k_emp = max(-(-v // C) for (A, B), C in cols for v in (A, B))
        require(_items(report) == {"num-le-den": le, "tilde-quadratic": quad}, f"items {_items(report)}")
        require(report["ok"] is (le and quad) and int(report["empirical_K"]) == k_emp, "bound report")

    return check


def _real_root(coeffs, lo, hi):
    """A float root of the increasing-through-zero polynomial on [lo, hi] (bisection)."""
    f = lambda t: sum(c * t ** i for i, c in enumerate(coeffs))
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo


def _decided_less(lhs: float, rhs: float) -> bool:
    """lhs < rhs for logarithms computed in floating point, with a guard margin."""
    margin = 1e-9 * (1 + abs(lhs) + abs(rhs))
    if lhs < rhs - margin:
        return True
    if lhs > rhs + margin:
        return False
    raise CheckFailed("logarithm comparison too close to decide in floating point")


def growth(seqs, d=None, M=None):
    log2psi = math.log2(_real_root((-1, 0, -1, 1), 1.4, 1.5))

    def check(path):
        report = read_json(path)
        cols = jp.columns(seqs)
        cs = [C for _, C in cols]
        want = {"psi-lower": all(
            C >= 1 if n <= 2 else _decided_less((n - 2) * log2psi, math.log2(C)) for n, C in enumerate(cs)
        )}
        if M is not None:
            require(all(a <= M for a in seqs[0][1:]), "generated quotients exceed M")
            log2eta = math.log2(_real_root((-1, -M, -M, 1), M, M + 1))
            want["eta-upper"] = cs[0] == 1 and all(
                _decided_less(math.log2(C), n * log2eta) for n, C in enumerate(cs) if n
            )
        if d is not None:
            require(all(seqs[0][n + 1] < cs[n] ** d for n in range(1, len(cs) - 1)), "a_(n+1) >= C_n^d")
            K = math.log(d + 1) + math.log(1 + 1 / d) + math.log(math.log(3))
            want["loglog"] = all(
                _decided_less(math.log(math.log(cs[n + 1])), K * n) for n in range(1, len(cs) - 1)
            )
        require(_items(report) == want, f"items {_items(report)} != recomputed {want}")
        require(report["ok"] is all(want.values()), "growth report ok flag")

    return check


def admissible(seqs):
    def check(path):
        # strictly a_n > b_n >= 0 for n >= 1 leaves no tie to propagate
        ok = all(a > b >= 0 for a, b in zip(seqs[0][1:], seqs[1][1:]))
        require(read_json(path) == {"m": 2, "ok": ok, "violations": []} and ok, "admissibility report")

    return check


def quasiperiodic(seqs, schedule, depth):
    """build_quasiperiodic recomputed: copy each window's block lambda_k - 1 times."""
    vals = [list(s[:depth]) for s in seqs]
    for n_k, r_k, lam_k in schedule:
        for rep in range(1, lam_k):
            for pos in range(n_k, n_k + r_k):
                if pos + rep * r_k < depth:
                    for v in vals:
                        v[pos + rep * r_k] = v[pos]
    return vals


def main1(seqs, schedule, d, c, depth):
    def check(path):
        report = read_json(path)
        q = quasiperiodic(seqs, schedule, depth + 1)
        cs = [C for _, C in jp.columns(q)]
        hypotheses_ok(report, {
            "head-below-denominator-power": all(q[0][i + 1] < cs[i] ** d for i in range(1, depth)),
            "window-length-linear": all(r < c * n for n, r, _ in schedule),
        })

    return check


def main2(seqs, schedule, M, N, depth):
    trib = _real_root((-1, -1, -1, 1), 1.8, 1.9)
    B = 2 * math.log(_real_root((-1, -M, -M, 1), M, M + 1)) / math.log(trib) - 1

    def check(path):
        report = read_json(path)
        q = quasiperiodic(seqs, schedule, depth + 1)
        hypotheses_ok(report, {
            "quotients-bounded": all(max(a, b) <= M for a, b in zip(q[0], q[1])),
            "window-length-bounded": all(r <= N for _, r, _ in schedule),
        })
        data = report["data"]
        ratios = [Fraction(lam, n) for n, _, lam in schedule]
        require(data["ratios"] == [str(r) for r in ratios] and data["max_ratio"] == str(max(ratios)), "ratios")
        require(float(Fraction(data["B_lo"])) <= B + 1e-9 and float(Fraction(data["B_hi"])) >= B - 1e-9,
                "threshold enclosure misses B")
        exceeds = any(float(r) > B for r in ratios)
        require(data["proxy_exceeds_B"] == ("true" if exceeds else "false"), "proxy_exceeds_B")

    return check


# -- liouville workload -------------------------------------------------------------

_parsed: dict = {}


def _pq_file(path):
    """Parse a pq file once per content digest (multi-Mbit decimals are slow to parse)."""
    key = file_digest(path)
    if key not in _parsed:
        doc = read_json(path)
        _parsed[key] = [[int(v) for v in s] for s in doc["seqs"]]
    return _parsed[key]


def liouville_construct(m, delta, depth, tails, head0):
    def check(path):
        want = jp.liouville_seqs(m, delta, depth, tails, head0)
        require(_pq_file(path) == want, "constructed quotients differ from the recomputed construction")

    return check


def liouville_verify(pq_path, delta, depth):
    def check(path):
        report = read_json(path)
        require(report["criterion"] == "liouville" and report["depth"] == depth, "report header")
        hypotheses_ok(report, {"head-dominates-tilde": jp.liouville_holds(_pq_file(pq_path), delta)})

    return check
