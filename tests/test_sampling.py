"""The plain-Python multinomial draw of ``simulate --shots`` against numpy.

Core claims pinned here, each bit for bit against
``numpy.random.default_rng(seed)``:
  * The seeding (``SeedSequence`` with entropy of one to five 32-bit words)
    and the PCG64 stream give numpy's raw doubles.
  * ``multinomial`` gives numpy's counts for shots from 1 to 2**63 - 1, over
    both binomial branches (inversion and BTPE), the p > 0.5 branch of each,
    zero and trailing-zero rows, and rows whose rounded conditional
    probability passes 1.  At 2**63 - 1 shots this rests on two int64
    wraps that the C code makes, in BTPE's -k * k and n + 1, and on its
    float sums n + 1 - m and n - y + 1.
"""

import numpy as np
import pytest

from p3poly import sampling as sa

SEEDS = [0, 2**32, 2**64 - 1, 2**128 + 7]
INT64_MAX = 2**63 - 1

# The protocol's printed rows at noise 0.1 on the honest line, and probability
# rows with zero, trailing-zero and tiny entries, in groups of one width.
ROW_GROUPS = [
    [
        [0.475, 0.025, 0.025, 0.475],
        [0.25, 0.25, 0.25, 0.25],
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.1, 0.2, 0.3, 0.4],
        [0.9, 0.05, 0.05, 0.0],
    ],
    # 0.9000000000000001 / (1 - 0.1) rounds past 1, and numpy still draws.
    [[1e-17, 0.999999999999999, 0.0], [0.1, 0.9000000000000001, 0.0]],
    [[1.0]],
]

SHOTS = [1, 2, 7, 30, 31, 61, 100, 5000, 10**6, 10**9, 10**12, 2**53 + 1, 10**16, 10**18, 2**62, INT64_MAX]


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_numpys(seed):
    rng = sa._PCG64(seed)
    assert [rng.next_double() for _ in range(1000)] == np.random.default_rng(seed).random(1000).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shots", SHOTS)
def test_counts_are_numpys(seed, shots):
    # The rows of a group share one generator, as numpy's 2-D pvals do.
    for rows in ROW_GROUPS:
        assert sa.multinomial(shots, rows, seed) == np.random.default_rng(seed).multinomial(shots, rows).tolist()


def test_every_binomial_branch_is_drawn(monkeypatch):
    # The cases above reach inversion and BTPE each at p <= 0.5 and at
    # p > 0.5, where it draws at 1 - p, and inversion at a rounded p past 1,
    # where it draws at 1 - p < 0.  Seen: (method, p > 0.5, drawn p < 0).
    seen = set()
    flipped = []
    binomial = sa._binomial
    monkeypatch.setattr(sa, "_binomial", lambda rng, p, n: flipped.append(p > 0.5) or binomial(rng, p, n))
    for name in ("_binomial_inversion", "_binomial_btpe"):

        def counted(rng, n, p, _name=name, _inner=getattr(sa, name)):
            seen.add((_name, flipped[-1], p < 0.0))
            return _inner(rng, n, p)

        monkeypatch.setattr(sa, name, counted)
    for shots in SHOTS:
        for rows in ROW_GROUPS:
            sa.multinomial(shots, rows, 0)
    assert seen == {
        ("_binomial_inversion", False, False),
        ("_binomial_inversion", True, False),
        ("_binomial_inversion", True, True),
        ("_binomial_btpe", False, False),
        ("_binomial_btpe", True, False),
    }


@pytest.mark.parametrize(
    "row",
    [[0.475, 0.025, 0.025, 0.475], [0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.0, 0.5], [3e-17, 1.0 - 3e-17]],
    ids=["honest", "intercepted", "noiseless", "tiny"],
)
def test_counts_at_the_int64_limit_are_numpys(row):
    # BTPE at n = 2**63 - 1: -k * k wraps once k passes 2**31.5, and a small
    # n * p takes the explicit ratio path, whose n + 1 wraps to -2**63.
    for seed in range(100):
        assert sa.multinomial(INT64_MAX, [row], seed) == np.random.default_rng(seed).multinomial(
            INT64_MAX, [row]
        ).tolist(), seed


def test_counts_past_the_exact_floats_are_numpys():
    # At n = 1e16 the squeeze's bound sums n + 1 - m and n - y + 1 in floats,
    # which round differently from the int sums.
    row = [2.220446049250313e-14, 1.0 - 2.220446049250313e-14]
    for seed in range(100):
        assert sa.multinomial(10**16, [row], seed) == np.random.default_rng(seed).multinomial(
            10**16, [row]
        ).tolist(), seed
