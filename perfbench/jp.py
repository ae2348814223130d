"""The benchmark's own Jacobi-Perron arithmetic, used to check mcf's outputs.

Nothing here imports mcf: every result the benchmark accepts is recomputed
from the definitions with plain Python integers and Fractions.

Conventions follow the paper: the convergent columns satisfy the
(m+1)-term recurrence

    A_n^(i) = sum_j a_n^(j) A_{n-j}^(i) + A_{n-m-1}^(i)
    C_n     = sum_j a_n^(j) C_{n-j}     + C_{n-m-1}

with A_{-j}^(i) = [i == j] for j = 1..m, A_{-m-1} = 0, C_{-1..-m} = 0 and
C_{-m-1} = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor


def columns(seqs, upto=None):
    """Convergent columns (A_n^(1..m), C_n) for n = 0..upto, as a list."""
    m = len(seqs)
    length = min(len(s) for s in seqs) if upto is None else upto + 1
    # window[j-1] holds the column at index n-j
    window = [(tuple(int(i == j) for i in range(1, m + 1)), 0) for j in range(1, m + 1)]
    window.append(((0,) * m, 1))
    out = []
    for n in range(length):
        a = [seqs[j][n] for j in range(m)]
        A = tuple(
            window[m][0][i] + sum(a[j] * window[j][0][i] for j in range(m)) for i in range(m)
        )
        C = window[m][1] + sum(a[j] * window[j][1] for j in range(m))
        window = [(A, C)] + window[:m]
        out.append((A, C))
    return out


def with_history(cols, m):
    """Prepend the m+1 initial columns so that index n sits at position n+m+1."""
    init = [(tuple(int(i == j) for i in range(1, m + 1)), 0) for j in range(m, 0, -1)]
    return [((0,) * m, 1)] + init + list(cols)


def tildes(cols, m):
    """Lag-1 products A_n^(i) C_{n-1} - A_{n-1}^(i) C_n for every n >= 0."""
    full = with_history(cols, m)
    off = m + 1
    return [
        tuple(full[n + off][0][i] * full[n - 1 + off][1] - full[n - 1 + off][0][i] * full[n + off][1]
              for i in range(m))
        for n in range(len(cols))
    ]


def iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0 by integer Newton iteration."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)  # an upper bound
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def ceil_power(base: int, expo: Fraction) -> int:
    """ceil(base ** expo) for base >= 1 and a positive rational exponent."""
    num = base ** expo.numerator
    r = iroot(num, expo.denominator)
    return r if r ** expo.denominator == num else r + 1


def liouville_seqs(m, delta, depth, tails, head0):
    """The Liouville-type construction, recomputed: tails[j](n) gives a_n^(j+2)."""
    seqs = [[head0]] + [[t(0)] for t in tails]
    full = with_history(columns(seqs), m)  # index n at position n+m+1
    for n in range(1, depth + 1):
        tail = [t(n) for t in tails]
        # the column at n with a_n^(1) = 0: the lag product does not involve a_n^(1)
        a = [0] + tail
        A0 = tuple(full[n][0][i] + sum(a[j] * full[n + m - j][0][i] for j in range(m))
                   for i in range(m))
        C0 = full[n][1] + sum(a[j] * full[n + m - j][1] for j in range(m))
        A1, C1 = full[n + m]
        t_max = max(abs(A0[i] * C1 - A1[i] * C0) for i in range(m))
        head = max(t_max * ceil_power(C1, delta), max([0] + tail)) + 1
        seqs[0].append(head)
        for j, v in enumerate(tail):
            seqs[j + 1].append(v)
        full.append((tuple(A0[i] + head * A1[i] for i in range(m)), C0 + head * C1))
    return seqs


def liouville_holds(seqs, delta) -> bool:
    """a_n^(1) > max_i |tilde_i(n)| C_{n-1}^delta for every n >= 1, exactly."""
    m = len(seqs)
    cols = columns(seqs)
    tl = tildes(cols, m)
    p, q = delta.numerator, delta.denominator
    for n in range(1, len(cols)):
        t_max = max(abs(t) for t in tl[n])
        if not seqs[0][n] ** q > t_max ** q * cols[n - 1][1] ** p:
            return False
    return True


def floors_certified(seqs, enclose, steps) -> bool | None:
    """Whether a_n = floor of the n-th complete quotient for n < steps.

    `enclose(bits)` returns integer intervals (lo, hi) with x_i in
    [lo/2**bits, hi/2**bits].  The complete quotients are tracked as
    integer linear forms in (x_1, ..., x_m, 1): one homogeneous step sends
    (L_1, ..., L_m, L_den) to (L_den, L_1 - a_1 L_den, ..., L_m - a_m L_den),
    and a_n is the floor exactly when 0 <= L_i - a_i L_den < L_den, with
    the trailing difference strictly positive.  Returns True or False when
    every comparison is decided at some precision, None when not.
    """
    m = len(seqs)
    bits = 256
    for _ in range(6):
        xs = enclose(bits)
        verdict = _floors_at(seqs, xs, bits, steps, m)
        if verdict is not None:
            return verdict
        bits *= 4
    return None


def _form_range(form, xs, scale):
    """Integer interval of sum form[i] * x_i + form[m] * scale (x scaled by scale)."""
    lo = hi = form[-1] * scale
    for c, (xlo, xhi) in zip(form, xs):
        if c >= 0:
            lo += c * xlo
            hi += c * xhi
        else:
            lo += c * xhi
            hi += c * xlo
    return lo, hi


def _floors_at(seqs, xs, bits, steps, m):
    scale = 1 << bits
    forms = [tuple(int(i == j) for j in range(m + 1)) for i in range(m + 1)]
    for n in range(steps):
        den = forms[m]
        diffs = []
        for i in range(m):
            diff = tuple(f - seqs[i][n] * d for f, d in zip(forms[i], den))
            lo, hi = _form_range(diff, xs, scale)
            glo, ghi = _form_range(tuple(d - f for f, d in zip(diff, den)), xs, scale)
            # the trailing fractional part becomes the next denominator: it must be > 0
            strict = i == m - 1
            if hi < 0 or (strict and hi <= 0) or ghi <= 0:
                return False
            if lo < 0 or (strict and lo <= 0) or glo <= 0:
                return None
            diffs.append(diff)
        forms = [den] + diffs
    return True


def expand_rational(xs, steps):
    """Jacobi-Perron expansion of exact rationals with interruptions.

    Returns (seqs, interruption indices) with the engine's semantics: an integral trailing coordinate is emitted as the final
    entry of its sequence and the run continues on the leading
    coordinates at the same index.
    """
    m = len(xs)
    state = list(xs)
    seqs = [[] for _ in range(m)]
    interrupted = set()
    dim, n = m, 0
    while n < steps and dim >= 1:
        while dim >= 1 and state[dim - 1].denominator == 1:
            seqs[dim - 1].append(int(state[dim - 1]))
            if dim > 1:
                interrupted.add(n)
            dim -= 1
        if dim == 0:
            break
        fl = [floor(v) for v in state[:dim]]
        for j in range(dim):
            seqs[j].append(fl[j])
        inv = 1 / (state[dim - 1] - fl[dim - 1])
        state = [inv] + [(state[j - 1] - fl[j - 1]) * inv for j in range(1, dim)]
        n += 1
    return seqs, interrupted
