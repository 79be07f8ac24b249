"""Noise models and statistical distinguishability tests for behaviour points.

Implements the experiment-noise model (independent Gaussian perturbation per
coordinate, relative by default), the propagated distance uncertainty, a
z-score separability report for a point pair, and self-contained two-sample
Welch t and Kolmogorov-Smirnov tests returning asymptotic two-sided
p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .strategies import BehaviourPoint


@dataclass(frozen=True)
class NoiseSpec:
    """Per-coordinate Gaussian noise: sigma_k = sigma * x_k, or a flat sigma
    when ``absolute`` is set."""

    sigma: float
    seed: int = 42
    absolute: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"noise sigma must be finite and non-negative, got {self.sigma}")


def _scales(coords: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    # Per-coordinate standard deviation of the noise at ``coords``.
    return np.full_like(coords, noise.sigma) if noise.absolute else noise.sigma * np.abs(coords)


def perturb(point: BehaviourPoint, noise: NoiseSpec) -> BehaviourPoint:
    """Seeded noisy copy of a behaviour point, clamped back into [0, 1]."""
    coords = point.as_array()
    scales = _scales(coords, noise)
    rng = np.random.default_rng(noise.seed)
    noisy = np.clip(coords + rng.normal(0.0, 1.0, size=coords.size) * scales, 0.0, 1.0)
    return BehaviourPoint(tuple(noisy), point.shape, point.representation)


def distance_sigma(point: BehaviourPoint, sigma: float, absolute: bool = False) -> float:
    """First-order standard deviation of the Euclidean distance under noise.

    For independent per-coordinate perturbations the distance to the
    unperturbed point has sigma_d = ||sigma_k||_2 to first order.
    """
    return float(np.linalg.norm(_scales(point.as_array(), NoiseSpec(sigma, absolute=absolute))))


@dataclass(frozen=True)
class TestReport:
    """Separability verdict for a pair of behaviour points under noise."""

    distance: float
    sigma_d: float
    z: float
    p_value: float
    overlap: float
    alpha: float
    reject: bool

    def to_json_dict(self) -> dict:
        return {
            "distance": self.distance,
            "sigma_d": self.sigma_d,
            "z": self.z,
            "p_value": self.p_value,
            "overlap": self.overlap,
            "alpha": self.alpha,
            "reject": self.reject,
        }


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_separability(
    p: BehaviourPoint, q: BehaviourPoint, sigma_d: float, alpha: float = 0.01
) -> TestReport:
    """Gaussian z-test on the distance between two behaviour points.

    Treats the observed distance as Gaussian with scale ``sigma_d`` under the
    hypothesis that the points coincide; reports the two-sided p-value, the
    overlap 2 * Phi(-z / 2) of two unit-variance Gaussians that far apart,
    and whether the hypothesis is rejected at level ``alpha``.
    """
    if p.representation != q.representation:
        raise ValueError("cannot compare points in different representations")
    if sigma_d <= 0.0:
        raise ValueError("sigma_d must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    distance = float(np.linalg.norm(p.as_array() - q.as_array()))
    z = distance / sigma_d
    p_value = 2.0 * (1.0 - _normal_cdf(z))
    overlap = 2.0 * _normal_cdf(-z / 2.0)
    return TestReport(
        distance=distance,
        sigma_d=sigma_d,
        z=z,
        p_value=p_value,
        overlap=overlap,
        alpha=alpha,
        reject=bool(p_value < alpha),
    )


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Lentz's algorithm for the continued fraction of the incomplete beta.
    max_iterations = 300
    eps = 3e-16
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x < 0.0 or x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return float(x)
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # Use the expansion on whichever side converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _finite_samples(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("two-sample tests need finite samples")
    return xs, ys


def two_sample_t(xs, ys) -> float:
    """Two-sided Welch t-test p-value for equal means of two samples.

    Variances are not pooled; degrees of freedom follow the
    Welch-Satterthwaite approximation and the p-value comes from the exact
    Student-t tail via the regularized incomplete beta.
    """
    xs, ys = _finite_samples(xs, ys)
    if xs.size < 2 or ys.size < 2:
        raise ValueError("both samples need at least two observations")
    # Samples beyond ~1e154 overflow in the variances; that is checked below,
    # in place of numpy's warnings.  The degrees of freedom are written in
    # ratio form, which neither overflows nor underflows.
    with np.errstate(all="ignore"):
        var_x = xs.var(ddof=1)
        var_y = ys.var(ddof=1)
        if var_x == 0.0 and var_y == 0.0:
            raise ValueError("both samples have zero variance")
        sem_x = var_x / xs.size
        sem_y = var_y / ys.size
        sem = sem_x + sem_y
        t = (xs.mean() - ys.mean()) / math.sqrt(sem)
        df = 1.0 / ((sem_x / sem) ** 2 / (xs.size - 1) + (sem_y / sem) ** 2 / (ys.size - 1))
        # A finite t past ~1e154 squares to inf, which gives the right limit 0.
        x = df / (df + t * t)
    if not np.isfinite([var_x, var_y, t, df]).all():
        raise ValueError(
            "Welch t-test overflows: the sample variances, t statistic or degrees of freedom"
            " are not finite"
        )
    if t == 0.0:
        return 1.0
    p = regularized_incomplete_beta(df / 2.0, 0.5, x)
    return float(min(max(p, 0.0), 1.0))


def _kolmogorov_sf(lam: float) -> float:
    # Q(lambda) = 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2)
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 101):
        term = sign * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
        sign = -sign
    return float(min(max(2.0 * total, 0.0), 1.0))


def _ks_statistic(xs: np.ndarray, ys: np.ndarray) -> float:
    # Maximum gap between the two empirical CDFs, evaluated at every sample.
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / xs.size
    cdf_y = np.searchsorted(ys, pooled, side="right") / ys.size
    return float(np.abs(cdf_x - cdf_y).max())


def two_sample_ks(xs, ys) -> float:
    """Two-sample Kolmogorov-Smirnov p-value (asymptotic, two-sided).

    Computes the maximum gap D between the empirical CDFs and evaluates the
    Kolmogorov distribution at (sqrt(ne) + 0.12 + 0.11 / sqrt(ne)) * D with
    ne = n*m / (n + m), the small-sample-corrected effective size.
    """
    xs, ys = map(np.sort, _finite_samples(xs, ys))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be non-empty")
    d = _ks_statistic(xs, ys)
    ne = math.sqrt(xs.size * ys.size / (xs.size + ys.size))
    return _kolmogorov_sf((ne + 0.12 + 0.11 / ne) * d)


class Norms(NamedTuple):
    l1: float
    l2: float


def norms(vector) -> Norms:
    """l1 and l2 norms of a finite difference vector (so that l2 <= l1)."""
    v = np.asarray(vector, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("norms need a finite vector")
    return Norms(l1=float(np.abs(v).sum()), l2=float(np.linalg.norm(v)))
