"""Seeded multinomial draws in plain Python, the same counts as numpy's.

``multinomial(shots, rows, seed)`` returns, bit for bit, the counts of
``numpy.random.default_rng(seed).multinomial(shots, rows)``, so that
``simulate --shots`` can draw without importing numpy.  It replicates four
pieces of numpy's random module: ``SeedSequence``'s hash mix (pool of four
32-bit words), the PCG64 generator (a 128-bit LCG with the XSL-RR output)
and its ``next_double``, ``random_binomial`` (inversion when
n * min(p, 1 - p) <= 30, else BTPE: Kachitvichyanukul & Schmeiser, CACM 31,
216, 1988) and ``random_multinomial``, a chain of conditional binomials.
Each float step is the C code's step in the same order (IEEE doubles, libm
``log``, ``log1p`` and ``exp``), and each C int64 expression is computed on
Python ints, wrapped where C wraps; ``tests/test_sampling.py`` checks the
counts against numpy 2.4 and, in CI, 1.24.  ``quantum.sample_behaviour``
draws with numpy itself, which is faster per call once numpy is loaded.
"""

from __future__ import annotations

import math

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash and mix constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_pool(seed: int) -> list[int]:
    # SeedSequence(seed).pool: the seed as little-endian 32-bit words ([0]
    # for 0), hashed into four words, mixed pairwise, then any words past
    # the fourth mixed into every pool word.
    entropy = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class _PCG64:
    """numpy's PCG64 bit generator, seeded as ``PCG64(seed)`` seeds it."""

    def __init__(self, seed: int) -> None:
        # generate_state(4, uint64): eight 32-bit words cycled from the pool,
        # paired little-endian into (seed high, seed low, inc high, inc low).
        pool = _seed_pool(seed)
        hash_const = _INIT_B
        words = []
        for i in range(8):
            value = pool[i % _POOL_SIZE] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = (value * hash_const) & _MASK32
            words.append(value ^ (value >> 16))
        s0, s1, i0, i1 = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
        # pcg64_set_seed: inc = 2 * initseq + 1; from state 0, one step, add
        # the initial state, one more step.
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self.state = ((self.inc + (s0 << 64 | s1)) * _PCG_MULTIPLIER + self.inc) & _MASK128

    def next_double(self) -> float:
        # One LCG step, then the XSL-RR output (the xor of the state's two
        # halves rotated right by its top six bits), of which the top 53
        # bits make the double.
        self.state = state = (self.state * _PCG_MULTIPLIER + self.inc) & _MASK128
        value = ((state >> 64) ^ state) & _MASK64
        rotation = state >> 122
        output = ((value >> rotation) | (value << (64 - rotation))) & _MASK64
        return (output >> 11) * 2.0**-53


def _int64(value: int) -> int:
    # A C int64 result, wrapped modulo 2**64 into [-2**63, 2**63).
    return (value + (1 << 63)) % (1 << 64) - (1 << 63)


def _stirling(x: float) -> float:
    # The Stirling-series correction term of BTPE's final bound, at x.
    x2 = x * x
    return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0


def _binomial_inversion(rng: _PCG64, n: int, p: float) -> int:
    if p < 0.0:
        # A conditional p that rounding took past 1 leaves 1 - p below 0.
        # C's q**n is then at least 1, above any u, so one draw gives 0
        # (where its sqrt and exp would be NaN or past the float range).
        rng.next_double()
        return 0
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    np_ = n * p
    bound = int(min(float(n), np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x = 0
    px = qn
    u = rng.next_double()
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = rng.next_double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _binomial_btpe(rng: _PCG64, n: int, p: float) -> int:
    # p <= 0.5 here, so r = min(p, 1 - p) = p.  Float conversions of ints
    # happen where C converts them: n * r is float(n) * r, and so on.
    r = p
    q = 1.0 - r
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q
    while True:  # Step 10: one pass per candidate y
        u = rng.next_double() * p4
        v = rng.next_double()
        if u <= p1:  # the triangle: accepted outright
            return math.floor(xm - p1 * v + u)
        if u <= p2:  # the parallelograms
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:  # the left exponential tail
            if v == 0.0:
                continue
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:  # the right exponential tail
            if v == 0.0:
                continue
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        # Step 50
        k = abs(y - m)
        if k <= 20 or k >= nrq / 2.0 - 1:
            # Explicit evaluation of f(y) / f(m) by the recurrence.
            s = r / q
            a = s * _int64(n + 1)
            f = 1.0
            if m < y:
                for i in range(m + 1, y + 1):
                    f *= a / i - s
            elif m > y:
                for i in range(y + 1, m + 1):
                    f /= a / i - s
            if v <= f:
                return y
            continue
        # Step 52: squeeze on log(v), then the Stirling bound.
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = _int64(-k * k) / (2 * nrq)  # C's int64 product wraps for k past 2**31.5
        # C's log(0) is -inf, and the NaN of a v below 0 accepts y as -inf does.
        big_a = math.log(v) if v > 0.0 else -math.inf
        if big_a < t - rho:
            return y
        if big_a > t + rho:
            continue
        x1 = float(y + 1)
        f1 = float(m + 1)
        z = float(n) + 1.0 - m  # float sums, where int sums would round once
        w = float(n) - y + 1.0
        bound = (
            xm * math.log(f1 / x1)
            + (n - m + 0.5) * math.log(z / w)
            + (y - m) * math.log(w * r / (x1 * q))
            + _stirling(f1)
            + _stirling(z)
            + _stirling(x1)
            + _stirling(w)
        )
        if not big_a > bound:
            return y


def _binomial(rng: _PCG64, p: float, n: int) -> int:
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        draw = _binomial_inversion if p * n <= 30.0 else _binomial_btpe
        return draw(rng, n, p)
    q = 1.0 - p
    draw = _binomial_inversion if q * n <= 30.0 else _binomial_btpe
    return n - draw(rng, n, q)


def multinomial(shots: int, rows, seed: int) -> list[list[int]]:
    """Counts of ``shots`` draws from each probability row, one generator.

    ``rows`` are sequences of floats, each nonnegative with a sum of 1 up
    to rounding (numpy refuses a row whose sum, last entry left out,
    passes 1 + 1e-12; this does not check); ``shots`` is an int in
    0..2**63 - 1 and ``seed`` a nonnegative int.  The rows are drawn in
    order, and row j's counts equal row j of
    ``numpy.random.default_rng(seed).multinomial(shots, rows)``.
    """
    rng = _PCG64(seed)
    counts = []
    for row in rows:
        row_counts = [0] * len(row)
        remaining_p = 1.0
        left = shots
        for j, p in enumerate(row[:-1]):
            row_counts[j] = _binomial(rng, p / remaining_p, left)
            left -= row_counts[j]
            if left <= 0:
                break
            remaining_p -= p
        if left > 0:
            row_counts[-1] = left
        counts.append(row_counts)
    return counts
