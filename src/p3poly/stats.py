"""Noise models and statistical distinguishability tests for behaviour points.

Implements the experiment-noise model (independent Gaussian perturbation per
coordinate, relative by default), the propagated distance uncertainty, a
z-score separability report for a point pair, and self-contained two-sample
Welch t and Kolmogorov-Smirnov tests returning asymptotic two-sided
p-values.  Each tail comes from one routine that picks its own expansion:
the normal tail from ``math.erfc``, the Student-t tail from the incomplete
beta given x and its exact complement, and the Kolmogorov tail from one of
two four-term series.  The two-sample tests and ``norms`` take any flat
sequence of real numbers and work on lists of Python floats; numpy is
loaded only by ``perturb``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .strategies import BehaviourPoint, _Record, _check_int, _check_real, _is_real


class NoiseSpec(_Record):
    """Per-coordinate Gaussian noise: sigma_k = sigma * x_k, or a flat sigma
    when ``absolute`` is set."""

    sigma: float
    seed: int
    absolute: bool

    def __init__(self, sigma: float, seed: int = 42, absolute: bool = False) -> None:
        _check_real("noise sigma", sigma, 0)
        _check_int("seed", seed, 0)
        if type(absolute) is not bool:
            raise ValueError(f"absolute must be a bool, got {absolute!r}")
        self._store(sigma, seed, absolute)


def _scales(coords: tuple[float, ...], noise: NoiseSpec) -> tuple[float, ...]:
    # Per-coordinate standard deviation of the noise at ``coords``.
    if noise.absolute:
        return (noise.sigma,) * len(coords)
    return tuple(noise.sigma * abs(x) for x in coords)


def perturb(point: BehaviourPoint, noise: NoiseSpec) -> BehaviourPoint:
    """Seeded noisy copy of a behaviour point, clamped back into [0, 1]."""
    import numpy as np

    coords = point.as_array()
    scales = np.array(_scales(point.coords, noise), dtype=float)
    rng = np.random.default_rng(noise.seed)
    noisy = np.clip(coords + rng.normal(0.0, 1.0, size=coords.size) * scales, 0.0, 1.0)
    # Python floats take the BehaviourPoint screen; numpy floats would not.
    return BehaviourPoint(tuple(noisy.tolist()), point.representation)


def distance_sigma(point: BehaviourPoint, sigma: float, absolute: bool = False) -> float:
    """First-order standard deviation of the Euclidean distance under noise.

    For independent per-coordinate perturbations the distance to the
    unperturbed point has sigma_d = ||sigma_k||_2 to first order.  Raises
    ValueError when that norm overflows the float range.
    """
    sigma_d = math.hypot(*_scales(point.coords, NoiseSpec(sigma, absolute=absolute)))
    if sigma_d == math.inf:
        raise ValueError(f"noise sigma {sigma} is too large: the distance sigma overflows")
    return sigma_d


class TestReport(_Record):
    """Separability verdict for a pair of behaviour points under noise."""

    distance: float
    sigma_d: float
    z: float
    p_value: float
    overlap: float
    alpha: float
    reject: bool

    def __init__(
        self, distance: float, sigma_d: float, z: float, p_value: float, overlap: float,
        alpha: float, reject: bool,
    ) -> None:
        self._store(distance, sigma_d, z, p_value, overlap, alpha, reject)

    def to_json_dict(self) -> dict:
        return self._asdict()


def gaussian_separability(
    p: BehaviourPoint, q: BehaviourPoint, sigma_d: float, alpha: float = 0.01
) -> TestReport:
    """Gaussian z-test on the distance between two behaviour points.

    Treats the observed distance as Gaussian with scale ``sigma_d`` under the
    hypothesis that the points coincide; reports the two-sided p-value, the
    overlap 2 * Phi(-z / 2) of two unit-variance Gaussians that far apart,
    and whether the hypothesis is rejected at level ``alpha``.  Raises
    ValueError when ``sigma_d`` is so small that z overflows the float range.
    """
    if p.representation != q.representation:
        raise ValueError("cannot compare points in different representations")
    _check_real("sigma_d", sigma_d, 0, strict=True)
    _check_real("alpha", alpha, 0, 1, strict=True)
    distance = math.dist(p.coords, q.coords)
    z = distance / sigma_d
    if not math.isfinite(z):
        raise ValueError(f"sigma_d {sigma_d!r} is too small for the distance {distance!r}: z overflows")
    # 2 * Phi(-z) straight from erfc: 2 * (1 - Phi(z)) cancels to 0 from z ~ 8.3.
    p_value = math.erfc(z * math.sqrt(0.5))
    overlap = math.erfc(z * math.sqrt(0.125))
    return TestReport(distance, sigma_d, z, p_value, overlap, alpha, bool(p_value < alpha))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Lentz's algorithm for the continued fraction of the incomplete beta.
    max_iterations = 300
    eps = 3e-16
    tiny = 1e-300

    def nonzero(v: float) -> float:
        return tiny if abs(v) < tiny else v

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        # Step m applies the even partial numerator, then the odd one.
        for numerator in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 / nonzero(1.0 + numerator * d)
            c = nonzero(1.0 + numerator / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _stirling_tail(x: float) -> float:
    # The remainder of Stirling's series, ln Gamma(x) - ((x - 1/2) ln x - x
    # + ln(2 pi) / 2); the terms kept leave an error below 1e-17 for x >= 20.
    t = 1.0 / (x * x)
    return (1 / 12 - t * (1 / 360 - t * (1 / 1260 - t * (1 / 1680 - t / 1188)))) / x


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b).

    With the larger argument at 20 or more, ln Gamma(big + small) - ln
    Gamma(big) comes from Stirling's series, as (big + small - 1/2)
    log1p(small / big) + small (ln big - 1) plus the difference of the series
    remainders, whose terms are all of the size of the result: the two lgamma
    values, ~big ln big, would cancel and leave their rounding, ~1e-11 at
    big ~ 2000 (DiDonato & Morris, ACM TOMS 18, 360, 1992).
    """
    small, big = sorted((a, b))
    if big < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    ratio = (big + small - 0.5) * math.log1p(small / big) + small * (math.log(big) - 1.0)
    return math.lgamma(small) - (ratio + _stirling_tail(big + small) - _stirling_tail(big))


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    _check_real("a", a, 0, strict=True)
    _check_real("b", b, 0, strict=True)
    _check_real("x", x, 0, 1)
    return _incomplete_beta(a, b, float(x), 1.0 - x)


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    # I_x(a, b) from x and its exact complement y = 1 - x: each logarithm reads
    # the smaller of the two, and the far-side expansion takes y as given.
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    log_x = math.log1p(-y) if x >= 0.5 else math.log(x)
    log_y = math.log1p(-x) if y >= 0.5 else math.log(y)
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b))
    # Use the expansion on whichever side converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


# What a flat sequence of reals fails with: not one, or not finite.
_SAMPLE_ERRORS = (
    "two-sample tests need one-dimensional samples of real numbers",
    "two-sample tests need finite samples",
)
_VECTOR_ERRORS = ("norms need a one-dimensional vector of real numbers", "norms need a finite vector")


def _finite_floats(sequence, errors: tuple[str, str]) -> list[float]:
    # A flat sequence of finite reals as Python floats.  Float entries pass
    # as they are; only a sequence holding another type pays for the
    # real-number screen.
    not_real, not_finite = errors
    try:
        values = list(sequence)
    except TypeError:  # a scalar, or numpy's 0-d array
        raise ValueError(not_real) from None
    if not {float}.issuperset(map(type, values)):
        if not all(map(_is_real, values)):
            raise ValueError(not_real)
        try:
            values = [float(x) for x in values]
        except OverflowError:  # an int or a fraction beyond the float range
            raise ValueError(not_finite) from None
    if not all(map(math.isfinite, values)):
        raise ValueError(not_finite)
    return values


def _mean_and_variance(xs: list[float]) -> tuple[float, float]:
    # Correctly rounded sums, and the unbiased (n - 1) variance.
    mean = math.fsum(xs) / len(xs)
    return mean, math.fsum([(x - mean) * (x - mean) for x in xs]) / (len(xs) - 1)


def two_sample_t(xs, ys) -> float:
    """Two-sided Welch t-test p-value for equal means of two samples.

    Variances are not pooled; degrees of freedom follow the
    Welch-Satterthwaite approximation and the p-value comes from the exact
    Student-t tail via the regularized incomplete beta.
    """
    xs, ys = _finite_floats(xs, _SAMPLE_ERRORS), _finite_floats(ys, _SAMPLE_ERRORS)
    if len(xs) < 2 or len(ys) < 2:
        raise ValueError("both samples need at least two observations")
    # One common power-of-two scale brings the largest magnitude into [0.5, 1),
    # so the sums and variances stay in the float range at any sample scale;
    # only deviations below ~1e-161 of that magnitude are lost.  Dividing by a
    # power of two is exact short of subnormals, so the statistic is the one
    # the unscaled samples give wherever those stay in range.  The degrees of
    # freedom are written in ratio form for the same reason.
    _, exponent = math.frexp(max(map(abs, xs + ys)))
    if exponent:
        xs = [math.ldexp(x, -exponent) for x in xs]
        ys = [math.ldexp(y, -exponent) for y in ys]
    mean_x, var_x = _mean_and_variance(xs)
    mean_y, var_y = _mean_and_variance(ys)
    if var_x == 0.0 and var_y == 0.0:
        raise ValueError("both samples have zero variance")
    sem_x = var_x / len(xs)
    sem_y = var_y / len(ys)
    sem = sem_x + sem_y
    if sem == 0.0:
        # A variance within a few subnormals of zero: its standard error rounds to 0.
        raise ValueError("Welch t-test is undefined: the standard error underflows to zero")
    t = (mean_x - mean_y) / math.sqrt(sem)
    df = 1.0 / ((sem_x / sem) ** 2 / (len(xs) - 1) + (sem_y / sem) ** 2 / (len(ys) - 1))
    # p = I_x(df / 2, 1/2) at x = df / (df + t^2), with its complement formed
    # from t^2 too: near t = 0, x rounds near 1 but y keeps every digit.  A
    # finite t past ~1e154 squares to inf, so x = 0 and p takes its limit 0.
    tt = t * t
    p = _incomplete_beta(df / 2.0, 0.5, df / (df + tt), tt / (df + tt))
    return min(max(p, 0.0), 1.0)


def _kolmogorov_sf(lam: float) -> float:
    # The Kolmogorov tail from whichever series converges fast, four terms
    # leaving ~1e-30 at the switch (Marsaglia, Tsang & Wang, J. Stat. Softw.
    # 8(18), 2003): 1 - sqrt(2 pi) / lambda * sum_j exp(-(2j - 1)^2 pi^2 /
    # (8 lambda^2)) below 1.18, 2 sum_j (-1)^(j - 1) exp(-2 j^2 lambda^2) above.
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        # Divided, not squared: a tiny lambda gives w = -inf and 0 / lambda.
        w = -math.pi * math.pi / 8.0 / lam / lam
        theta = math.exp(w) + math.exp(9.0 * w) + math.exp(25.0 * w) + math.exp(49.0 * w)
        return 1.0 - theta * math.sqrt(2.0 * math.pi) / lam
    w = -2.0 * lam * lam
    return 2.0 * (math.exp(w) - math.exp(4.0 * w) + math.exp(9.0 * w) - math.exp(16.0 * w))


def _ks_statistic(xs, ys) -> float:
    # Maximum gap between the empirical CDFs of two sorted samples, from one
    # merge pass.  With i of the n xs and j of the m ys passed, the gap is
    # |i/n - j/m| = |i*m - j*n| / (n*m), exact in integers.  A value in both
    # samples is passed in both at once, since a state between its copies
    # is no point of either CDF; within a run of ties in one sample the gap
    # is linear in the step, so it peaks at the run's ends, which are such
    # points.  Once one sample is used up the gap only shrinks.
    n, m = len(xs), len(ys)
    i = j = widest = 0
    while i < n and j < m:
        x, y = xs[i], ys[j]
        if x < y:
            i += 1
        elif y < x:
            j += 1
        else:
            i, j = bisect_right(xs, x, i), bisect_right(ys, x, j)
        gap = i * m - j * n
        if gap > widest:
            widest = gap
        elif -gap > widest:
            widest = -gap
    return widest / (n * m)


def two_sample_ks(xs, ys) -> float:
    """Two-sample Kolmogorov-Smirnov p-value (asymptotic, two-sided).

    Computes the maximum gap D between the empirical CDFs and evaluates the
    Kolmogorov distribution at (sqrt(ne) + 0.12 + 0.11 / sqrt(ne)) * D with
    ne = n*m / (n + m), the small-sample-corrected effective size.
    """
    xs, ys = sorted(_finite_floats(xs, _SAMPLE_ERRORS)), sorted(_finite_floats(ys, _SAMPLE_ERRORS))
    if not xs or not ys:
        raise ValueError("both samples must be non-empty")
    d = _ks_statistic(xs, ys)
    root_ne = math.sqrt(len(xs) * len(ys) / (len(xs) + len(ys)))
    return _kolmogorov_sf((root_ne + 0.12 + 0.11 / root_ne) * d)


class Norms(NamedTuple):
    l1: float
    l2: float


def norms(vector) -> Norms:
    """l1 and l2 norms of a finite difference vector, a flat sequence of real
    numbers (so that l2 <= l1).  Raises ValueError when the l1 norm overflows
    the float range."""
    values = _finite_floats(vector, _VECTOR_ERRORS)
    try:
        l1 = math.fsum(map(abs, values))  # correctly rounded; raises past the float range
    except OverflowError:
        raise ValueError("norms overflow the float range") from None
    return Norms(l1=l1, l2=math.hypot(*values))
