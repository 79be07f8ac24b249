"""Small dense linear algebra on Python floats, and the ``bound`` verb's
two-qubit state checks and report built on it.

numpy costs a command ~80 ms to import, more than the rest of ``bound``, so
this module works on lists of floats with one solver: the cyclic Jacobi
method for real symmetric eigenproblems (Golub & Van Loan, *Matrix
Computations*, section 8.5).  A Hermitian matrix H = A + iB is handled
through its real embedding [[A, -B], [B, A]], which has each eigenvalue of H
twice, and a real square matrix M through the Jordan-Wielandt matrix
[[0, M], [M^T, 0]], whose eigenvalues are +/- each singular value of M.

It also holds what ``quantum`` shares with it: the density-matrix
tolerances, the JSON table parser behind ``DensityMatrix.from_json_dict``,
the exact Z/X effects (``_ZX_OUTCOME_0`` and the eight two-qubit
``_ZX_EFFECTS``), the closed form of the two one-qubit marginal trace norms
(``_marginal_trace_norms``), ``BoundReport`` and the fidelity bounds check.
``quantum`` computes the joint trace norm and the fidelity with numpy
kernels, which the tests take as the reference.
"""

from __future__ import annotations

import math
from itertools import product

from .strategies import _Record, _check_int

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
_BOUND_TOL = 1e-9

_EPS = 2.0**-52


def _rotation(theta: float) -> tuple[float, float, float]:
    # The Jacobi rotation that zeroes the off-diagonal entry b of a symmetric
    # [[a, b], [b, d]], given theta = (d - a) / (2 b): the tangent t of its
    # angle, the smaller root of t**2 + 2 theta t - 1 = 0 (theta past ~1e154
    # gives t = 0), then its cosine and sine.
    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
    if theta < 0.0:
        t = -t
    c = 1.0 / math.sqrt(t * t + 1.0)
    return t, c, t * c


def _symmetric_eigen(matrix: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvectors (the columns of the second result) of a
    real symmetric matrix, by the cyclic Jacobi method.

    Each rotation zeroes one off-diagonal pair.  Sweeps over all pairs run
    until the entries above the diagonal have at most 2**-52 of the
    matrix's Frobenius norm, which bounds each eigenvalue's error by about
    that fraction of the norm.  The solve runs on the matrix scaled by the
    power of two that brings its largest entry into [1/2, 1): the scaling is
    exact and turns no rotation, and the sums of squares cannot overflow.
    """
    size = len(matrix)
    _, exponent = math.frexp(max([abs(x) for row in matrix for x in row], default=0.0))
    a = [[math.ldexp(x, -exponent) for x in row] for row in matrix]
    v = [[float(i == j) for j in range(size)] for i in range(size)]
    norm = math.fsum(x * x for row in a for x in row)
    for _ in range(64):
        off = math.fsum(a[p][q] * a[p][q] for p in range(size) for q in range(p + 1, size))
        if off <= 2.0**-104 * norm:
            return [math.ldexp(a[k][k], exponent) for k in range(size)], v
        for p in range(size - 1):
            for q in range(p + 1, size):
                app, aqq, apq = a[p][p], a[q][q], a[p][q]
                if apq == 0.0:
                    continue
                t, c, s = _rotation((aqq - app) / (2.0 * apq))
                # Rows and columns p and q turn; the 2 x 2 block is set after.
                row_p, row_q = a[p], a[q]
                for k, row in enumerate(a):
                    akp, akq = row[p], row[q]
                    row[p] = row_p[k] = c * akp - s * akq
                    row[q] = row_q[k] = s * akp + c * akq
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                for row in v:
                    vkp, vkq = row[p], row[q]
                    row[p] = c * vkp - s * vkq
                    row[q] = s * vkp + c * vkq
    raise ArithmeticError("Jacobi eigen-solve did not converge")


def _singular_values(matrix: list[list[float]]) -> list[float]:
    """Singular values of a real square matrix M: the n largest eigenvalues
    of the symmetric [[0, M], [M^T, 0]], whose eigenvalues are +/- each
    singular value of M (Golub & Van Loan, section 8.6).  Each is accurate
    to about 2**-52 of the largest.
    """
    zero = [0.0] * len(matrix)
    augmented = [zero + list(row) for row in matrix] + [list(column) + zero for column in zip(*matrix)]
    values, _ = _symmetric_eigen(augmented)
    return sorted(values, reverse=True)[: len(matrix)]


def _embedding(re: list[list[float]], im: list[list[float]]) -> list[list[float]]:
    # The real symmetric [[A, -B], [B, A]] of the Hermitian matrix whose lower
    # triangle re + i im holds, as numpy's eigvalsh reads it: the upper
    # triangle and the imaginary part of the diagonal are not read.
    n = len(re)
    a = [[re[i][j] if i >= j else re[j][i] for j in range(n)] for i in range(n)]
    b = [[im[i][j] if i > j else -im[j][i] if i < j else 0.0 for j in range(n)] for i in range(n)]
    return [a[i] + [-x for x in b[i]] for i in range(n)] + [b[i] + a[i] for i in range(n)]


def _qubit_trace_norm(a: float, d: float, b: float) -> float:
    # Half the trace norm of the Hermitian [[a, b*], [b, d]], given |b| as b.
    # Its eigenvalues are (a + d) / 2 +/- sqrt((a - d)**2 + 4 |b|**2) / 2,
    # whose absolute values sum to the larger of |a + d| and that root; hypot
    # neither overflows nor underflows.
    return 0.5 * max(abs(a + d), math.hypot(a - d, 2.0 * b))


def _trace_norm(re: list[list[float]], im: list[list[float]]) -> float:
    # Half the trace norm of a Hermitian matrix, read from its lower
    # triangle: a quarter of the absolute eigenvalues of its embedding, which
    # has each one twice.
    values, _ = _symmetric_eigen(_embedding(re, im))
    return 0.25 * math.fsum(map(abs, values))


def _dimension_error(dim: int, space: int) -> ValueError:
    return ValueError(f"state dimension {dim} does not match measurement space {space}")


def _parse_state(data: dict) -> tuple[list[list[float]], list[list[float]]]:
    """The real and imaginary tables of a density-matrix JSON document, as
    float rows of a ``dim`` x ``dim`` square; raise ValueError naming the
    first problem.  Only lists of rows of ints and floats are tables:
    booleans and numeric strings are not numbers here."""
    try:
        dim = data["dim"]
        tables = {name: data[name] for name in ("re", "im")}
    except (KeyError, TypeError):
        raise ValueError("density matrix JSON needs 'dim' and the 're' and 'im' entry tables")
    shapes = {}
    for name, rows in tables.items():
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(x) in (int, float) for x in row) for row in rows
        ):
            raise ValueError(f"density matrix {name!r} must be a list of rows of numbers")
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise ValueError(f"density matrix {name!r} has rows of different lengths")
        # The shape numpy gives the table: (0,) for no rows.
        shapes[name] = (len(rows), *widths)
        try:
            tables[name] = [[float(x) for x in row] for row in rows]
        except OverflowError:
            raise ValueError(f"density matrix {name!r} holds an entry too large for a float")
    if shapes["re"] != shapes["im"]:
        raise ValueError("real and imaginary parts differ in shape")
    _check_int("density matrix 'dim'", dim, 1)
    if shapes["re"] != (dim, dim):
        raise ValueError(f"density matrix 'dim' must equal the side of 're' {shapes['re']}, got {dim}")
    return tables["re"], tables["im"]


def _read_state(data: dict) -> tuple:
    """A checked state from its JSON document: (re, im, values, vectors),
    the two tables and the eigenpairs of its embedding.

    The checks are ``DensityMatrix``'s, in its order, with its tolerances
    and messages: finite entries, Hermiticity, unit trace, no eigenvalue
    below -1e-10.  A state on more than 4 dimensions, which
    ``_bound_report`` refuses, is refused with its message before the
    eigen-solve, whose cost grows as the cube of the side.
    """
    re, im = _parse_state(data)
    n = len(re)
    if not all(math.isfinite(x) for table in (re, im) for row in table for x in row):
        raise ValueError("density matrix has non-finite entries")
    herm = max(
        math.hypot(re[i][j] - re[j][i], im[i][j] + im[j][i]) for i in range(n) for j in range(n)
    )
    if herm > HERMITICITY_TOL:
        raise ValueError(f"density matrix is not Hermitian (residual {herm:.3e})")
    trace = sum(re[k][k] for k in range(n))
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace is not 1 (got {trace:.12g})")
    if n > 4:
        raise _dimension_error(n, 4)
    values, vectors = _symmetric_eigen(_embedding(re, im))
    smallest = min(values)
    if smallest < -POSITIVITY_TOL:
        raise ValueError(f"density matrix has a negative eigenvalue ({smallest:.3e})")
    return re, im, values, vectors


class BoundReport(_Record):
    """Norms of a behaviour difference against the trace-distance bound.

    The chain l2 <= l1 <= 2 * (delta_A + delta_B + delta_AB) must hold for
    behaviour points generated from two states by the same measurements.
    """

    l2: float
    l1: float
    delta_a: float
    delta_b: float
    delta_ab: float

    def __init__(self, l2: float, l1: float, delta_a: float, delta_b: float, delta_ab: float) -> None:
        self._store(l2, l1, delta_a, delta_b, delta_ab)

    @property
    def rhs(self) -> float:
        return 2.0 * (self.delta_a + self.delta_b + self.delta_ab)

    @property
    def holds(self) -> bool:
        return self.l2 <= self.l1 + _BOUND_TOL and self.l1 <= self.rhs + _BOUND_TOL

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "rhs": self.rhs, "holds": self.holds}


def _fidelity_bounds_hold(f: float, delta: float) -> bool:
    # 1 - sqrt(F) <= D <= sqrt(1 - F) for fidelity F and trace distance D,
    # each to within _BOUND_TOL.  The upper bound is checked squared, as
    # D**2 <= 1 - F: near F = 1 a square root would multiply the rounding of
    # F by 1 / (2 sqrt(1 - F)).
    return bool(1.0 - math.sqrt(f) <= delta + _BOUND_TOL and delta * delta <= 1.0 - f + _BOUND_TOL)


def _kron(p: list[list[float]], q: list[list[float]]) -> list[list[float]]:
    return [[x * y for x in row_p for y in row_q] for row_p in p for row_q in q]


# The eight Z/X effects whose expectations are the reduced behaviour
# coordinates a0, a1, c0, c1, a0c0, a0c1, a1c0, a1c1: the projectors on
# outcome 0 of the Z and the X basis, on either qubit and on both.  Their
# entries are 0, 1/4, 1/2 and 1, so they are exact.
_ID = [[1.0, 0.0], [0.0, 1.0]]
_ZX_OUTCOME_0 = ([[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]])
_ZX_EFFECTS = (
    [_kron(p, _ID) for p in _ZX_OUTCOME_0]
    + [_kron(_ID, p) for p in _ZX_OUTCOME_0]
    + [_kron(p, q) for p, q in product(_ZX_OUTCOME_0, repeat=2)]
)


def _bound_report(rho: tuple, sigma: tuple) -> BoundReport:
    """``quantum.behaviour_bound_check`` on two states from ``_read_state``.

    Every quantity is linear in the state, so each is taken once, on
    delta = rho - sigma: the eight coordinates Tr(delta E) of the effects,
    the closed forms of ``_marginal_trace_norms`` and one eigen-solve for
    the joint trace distance.
    """
    for state in (rho, sigma):
        if len(state[0]) != 4:
            raise _dimension_error(len(state[0]), 4)
    (re_r, im_r, *_), (re_s, im_s, *_) = rho, sigma
    re = [[x - y for x, y in zip(r, s)] for r, s in zip(re_r, re_s)]
    im = [[x - y for x, y in zip(r, s)] for r, s in zip(im_r, im_s)]
    # A real symmetric effect reads only the real part of a Hermitian delta.
    diff = [math.fsum(x * e for r, row in zip(re, effect) for x, e in zip(r, row)) for effect in _ZX_EFFECTS]
    return BoundReport(
        math.hypot(*diff), math.fsum(map(abs, diff)), *_marginal_trace_norms(re, im), _trace_norm(re, im)
    )


def _marginal_trace_norms(re, im) -> tuple[float, float]:
    # Half the trace norms of the two one-qubit marginals of the two-qubit
    # Hermitian matrix whose lower triangle re + i im holds, each in closed
    # form.  Qubit A is the high bit of a row or column index, qubit B the
    # low bit; a marginal entry sums the entries that agree on the other qubit.
    return (
        _qubit_trace_norm(
            re[0][0] + re[1][1], re[2][2] + re[3][3], math.hypot(re[2][0] + re[3][1], im[2][0] + im[3][1])
        ),
        _qubit_trace_norm(
            re[0][0] + re[2][2], re[1][1] + re[3][3], math.hypot(re[1][0] + re[3][2], im[1][0] + im[3][2])
        ),
    )


def _fidelity(rho: tuple, sigma: tuple) -> float:
    """Uhlmann fidelity of two states from ``_read_state``, as
    ``quantum.fidelity`` takes it: ||sqrt(rho) sqrt(sigma)||_1 squared.

    With the embeddings' eigenpairs rho_e = U diag(r) U^T and sigma_e =
    V diag(s) V^T, the product of the embedded roots has the singular
    values of the core C = diag(sqrt r) U^T V diag(sqrt s), each of
    sqrt(rho) sqrt(sigma) twice, so the roots are never formed.  Those
    singular values come from one more eigen-solve, of [[0, C], [C^T, 0]],
    so their sum has the trace norms' absolute error, about 2**-52 of the
    largest.  An eigenvalue at most dim * eps of the largest is zero, as in
    ``quantum.fidelity``.
    """
    dim = len(rho[0])
    roots = []
    for _, _, values, _ in (rho, sigma):
        floor = dim * _EPS * max(values)
        roots.append([math.sqrt(x) if x > floor else 0.0 for x in values])
    (sqrt_r, sqrt_s), u, v = roots, rho[3], sigma[3]
    core = [
        [sqrt_r[i] * math.fsum(row_u[i] * row_v[j] for row_u, row_v in zip(u, v)) * sqrt_s[j] for j in range(2 * dim)]
        for i in range(2 * dim)
    ]
    value = (0.5 * math.fsum(_singular_values(core))) ** 2
    return min(max(value, 0.0), 1.0)
