"""Noise model and statistical test checks.

Core claims pinned here:
  * perturb is seed-deterministic, clamped to [0, 1], and identity at zero
    sigma.
  * distance_sigma(P_B, 5%) equals the frozen oracle 0.0637...
  * gaussian_separability separates P_U from P_B at z ~ 5.5 and is monotone
    in distance; its sigma_d must be positive and finite, and large enough
    that z is finite; its p-value and overlap match scipy's normal tail to
    1e-13 relative for z up to 37.
  * Welch t and KS implementations agree with scipy oracles, the incomplete
    beta to 2e-13 at a in the thousands and the Welch t to 1e-12 on
    2000-row samples; the Welch t p-value is the same at every sample scale
    from 1e-300 to 1e300; the Kolmogorov tail matches scipy to 1e-14 from
    lambda = 1e-3; the KS statistic equals the exact fraction D, ties
    included; both tests take any flat sequence of reals and reject anything
    else.
  * norms obeys l2 <= l1 and reproduces (0.5, sqrt(0.125)) on V.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats

from p3poly import stats as sta
from p3poly import strategies as st

from reference_tables import P_B, P_U, SIGMA_D_PB_5PCT, V_L1, V_L2, Z_PU_PB


def pb():
    return st.BehaviourPoint.reduced(P_B)


def pu():
    return st.BehaviourPoint.reduced(P_U)


def test_perturb_determinism_and_range():
    noise = sta.NoiseSpec(sigma=0.05, seed=11)
    a = sta.perturb(pb(), noise)
    b = sta.perturb(pb(), noise)
    assert a == b
    c = sta.perturb(pb(), sta.NoiseSpec(sigma=0.05, seed=12))
    assert c != a
    assert all(0.0 <= x <= 1.0 for x in a.coords)
    assert a != pb()


def test_perturb_zero_sigma_is_identity():
    assert sta.perturb(pb(), sta.NoiseSpec(sigma=0.0, seed=1)) == pb()


def test_perturb_relative_fixes_zero_coordinates():
    point = st.BehaviourPoint.reduced([0.0, 0.5, 0.0, 0.5, 0.0, 0.25, 0.0, 0.25])
    noisy = sta.perturb(point, sta.NoiseSpec(sigma=0.3, seed=2))
    assert noisy.coords[0] == 0.0
    assert noisy.coords[2] == 0.0
    # Absolute mode moves them.
    absolute = sta.perturb(point, sta.NoiseSpec(sigma=0.3, seed=2, absolute=True))
    assert absolute.coords[0] != 0.0


def test_perturb_clamps_into_unit_interval():
    point = st.BehaviourPoint.reduced([1.0] * 8)
    noisy = sta.perturb(point, sta.NoiseSpec(sigma=0.8, seed=3))
    assert all(0.0 <= x <= 1.0 for x in noisy.coords)


def test_perturb_takes_the_screen_and_keeps_every_bit(monkeypatch):
    # The c07 points and seeds.  The noisy coordinates are Python floats in
    # [0, 1], so the BehaviourPoint screen accepts them and the per-coordinate
    # checks never run; the stored bits are those of the old numpy-float path.
    cases = [(pb(), seed) for seed in range(1000, 1100)] + [(pu(), seed) for seed in range(2000, 2100)]
    expected = []
    for point, seed in cases:
        coords = point.as_array()
        scales = np.array(sta._scales(point.coords, sta.NoiseSpec(0.05)), dtype=float)
        rng = np.random.default_rng(seed)
        noisy = np.clip(coords + rng.normal(0.0, 1.0, size=coords.size) * scales, 0.0, 1.0)
        expected.append([float(x).hex() for x in noisy])
        assert [x.hex() for x in st.BehaviourPoint(tuple(noisy), point.representation).coords] == expected[-1]

    def no_checks(coords):
        raise AssertionError("perturb missed the BehaviourPoint screen")

    monkeypatch.setattr(st, "_checked_coords", no_checks)
    for (point, seed), hexes in zip(cases, expected):
        got = sta.perturb(point, sta.NoiseSpec(0.05, seed=seed))
        assert [x.hex() for x in got.coords] == hexes


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        sta.NoiseSpec(sigma=-0.1)
    # A flag, not a truthy value: 'no' would have switched absolute noise on.
    for bad in ("no", 1, None):
        with pytest.raises(ValueError, match=f"^absolute must be a bool, got {bad!r}$"):
            sta.NoiseSpec(sigma=0.1, absolute=bad)
    assert sta.NoiseSpec(sigma=0.1, absolute=True).absolute is True


def test_distance_sigma_oracle_value():
    assert sta.distance_sigma(pb(), 0.05) == pytest.approx(SIGMA_D_PB_5PCT, abs=1e-12)
    assert sta.distance_sigma(pb(), 0.0) == 0.0
    # Homogeneity in the noise level.
    assert sta.distance_sigma(pb(), 0.10) == pytest.approx(2 * SIGMA_D_PB_5PCT)
    # Absolute mode ignores the coordinates.
    assert sta.distance_sigma(pb(), 0.05, absolute=True) == pytest.approx(
        0.05 * math.sqrt(8)
    )
    with pytest.raises(ValueError):
        sta.distance_sigma(pb(), -0.01)


def test_gaussian_separability_rejects_distinct_points():
    report = sta.gaussian_separability(pu(), pb(), SIGMA_D_PB_5PCT, alpha=0.01)
    assert report.z == pytest.approx(Z_PU_PB, abs=1e-9)
    assert report.reject
    assert report.p_value < 1e-7
    assert 0.0 <= report.overlap <= 1.0


def test_gaussian_separability_identical_points():
    report = sta.gaussian_separability(pb(), pb(), SIGMA_D_PB_5PCT)
    assert report.z == 0.0
    assert report.p_value == pytest.approx(1.0)
    assert report.overlap == pytest.approx(1.0)
    assert not report.reject


def test_gaussian_separability_monotone_in_distance():
    sigma = SIGMA_D_PB_5PCT
    previous = 1.1
    for offset in (0.0, 0.02, 0.05, 0.1, 0.2):
        other = st.BehaviourPoint.reduced([min(1.0, x + offset) for x in P_B])
        report = sta.gaussian_separability(pb(), other, sigma)
        assert report.p_value <= previous + 1e-15
        previous = report.p_value


@pytest.mark.parametrize("sigma_d", [0.0, -0.05, math.nan, math.inf, -math.inf])
def test_gaussian_separability_rejects_sigma_d_that_is_not_positive_and_finite(sigma_d):
    with pytest.raises(ValueError) as error:
        sta.gaussian_separability(pb(), pu(), sigma_d)
    assert str(error.value) == f"sigma_d must be a finite real number > 0, got {sigma_d!r}"


@pytest.mark.parametrize("sigma_d", [1e-309, 1e-320, 5e-324])
def test_gaussian_separability_rejects_sigma_d_that_overflows_z(sigma_d):
    zero = st.BehaviourPoint.reduced([0.0] * 8)
    distance = math.dist(P_B, zero.coords)
    assert distance / sigma_d == math.inf
    with pytest.raises(ValueError) as error:
        sta.gaussian_separability(pb(), zero, sigma_d)
    assert str(error.value) == f"sigma_d {sigma_d!r} is too small for the distance {distance!r}: z overflows"
    # Coincident points are at z = 0 for every positive sigma_d.
    assert sta.gaussian_separability(zero, zero, sigma_d).z == 0.0


def test_gaussian_separability_tails_against_scipy():
    # Both tails keep their relative precision out to z = 37, where
    # 2 * (1 - Phi(z)) had cancelled to 0 since z ~ 8.3.
    zero = st.BehaviourPoint.reduced([0.0] * 8)
    assert sta.gaussian_separability(zero, zero, 1.0).p_value == 1.0
    for z in np.linspace(0.1, 37.0, 371):
        report = sta.gaussian_separability(zero, pb(), math.dist(P_B, zero.coords) / z)
        # abs=0: approx would otherwise add a 1e-12 floor that hides any tiny tail.
        expected = 2.0 * scipy.stats.norm.sf([report.z, report.z / 2.0])
        assert report.p_value == pytest.approx(expected[0], rel=1e-13, abs=0.0)
        assert report.overlap == pytest.approx(expected[1], rel=1e-13, abs=0.0)


def test_gaussian_separability_validation():
    with pytest.raises(ValueError):
        sta.gaussian_separability(pb(), pu(), 0.05, alpha=1.5)
    with pytest.raises(ValueError):
        sta.gaussian_separability(pb(), st.BehaviourPoint.full([0.5] * 26), 0.05)


def test_two_sample_t_against_scipy():
    rng = np.random.default_rng(41)
    for _ in range(50):
        xs = rng.normal(0.0, 1.0, size=int(rng.integers(5, 60)))
        ys = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=int(rng.integers(5, 60)))
        ours = sta.two_sample_t(xs, ys)
        expected = scipy.stats.ttest_ind(xs, ys, equal_var=False).pvalue
        assert ours == pytest.approx(expected, abs=1e-10)


def test_two_sample_t_detects_shift():
    rng = np.random.default_rng(43)
    xs = rng.normal(0.0, 1.0, size=200)
    ys = rng.normal(1.0, 1.0, size=200)
    assert sta.two_sample_t(xs, ys) < 1e-6
    same = rng.normal(0.0, 1.0, size=200)
    assert sta.two_sample_t(xs, same) > 0.01


def test_two_sample_t_validation():
    with pytest.raises(ValueError):
        sta.two_sample_t([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        sta.two_sample_t([1.0, 1.0], [2.0, 2.0])


def test_two_sample_t_identical_means():
    assert sta.two_sample_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(47)
    for _ in range(200):
        a = float(rng.uniform(0.2, 30.0))
        b = float(rng.uniform(0.2, 30.0))
        x = float(rng.uniform(0.0, 1.0))
        assert sta.regularized_incomplete_beta(a, b, x) == pytest.approx(
            scipy.special.betainc(a, b, x), abs=1e-12
        )
    assert sta.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert sta.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        sta.regularized_incomplete_beta(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        sta.regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_incomplete_beta_at_large_a_against_scipy():
    # Welch t at a = df / 2 in the thousands, with x mostly near 1: the
    # lgamma values of ~1e4 that ln B(a, b) would cancel used to leave ~1e-11.
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(3000):
        a = float(rng.uniform(45.0, 11000.0))
        b = float(rng.choice([0.5, 1.5, 3.0]))
        x = float(rng.uniform(0.98, 1.0) if rng.random() < 0.8 else rng.uniform(0.0, 1.0))
        worst = max(worst, abs(sta.regularized_incomplete_beta(a, b, x) - scipy.special.betainc(a, b, x)))
    assert worst <= 2e-13


def test_two_sample_t_matches_scipy_on_long_samples():
    # 2000-row samples give df ~ 4000; near-equal means give x = df / (df + t^2)
    # near 1, where p now comes from the exact complement.
    rng = np.random.default_rng(67)
    for _ in range(40):
        xs = rng.normal(0.5, 0.1, size=2000)
        ys = rng.normal(0.5 + rng.normal(0.0, 0.005), 0.1 * rng.uniform(0.8, 1.25), size=2000)
        expected = scipy.stats.ttest_ind(xs, ys, equal_var=False).pvalue
        assert sta.two_sample_t(xs, ys) == pytest.approx(expected, abs=1e-12)
    # Clearly shifted means (t from ~6 to ~28) put p far below 1e-16, where
    # only a relative comparison (abs=0, so approx adds no 1e-12 floor)
    # shows whether its digits survive.
    for shift in (0.02, 0.04, 0.06, 0.08):
        for _ in range(5):
            xs = rng.normal(0.5, 0.1, size=2000)
            ys = rng.normal(0.5 + shift, 0.1 * rng.uniform(0.8, 1.25), size=2000)
            expected = scipy.stats.ttest_ind(xs, ys, equal_var=False).pvalue
            assert sta.two_sample_t(xs, ys) == pytest.approx(expected, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["a", "b", "x"])
def test_incomplete_beta_rejects_non_finite(name, bad):
    # Each used to reach the continued fraction and fail as non-convergence.
    args = {"a": 1.0, "b": 1.0, "x": 0.5, name: bad}
    bounds = "in [0, 1]" if name == "x" else "> 0"
    with pytest.raises(ValueError) as error:
        sta.regularized_incomplete_beta(**args)
    assert str(error.value) == f"{name} must be a finite real number {bounds}, got {bad!r}"


def test_kolmogorov_sf_against_scipy():
    for lam in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0):
        assert sta._kolmogorov_sf(lam) == pytest.approx(
            scipy.special.kolmogorov(lam), abs=1e-10
        )
    # Small lambda, where a truncated alternating series had not converged
    # (0.397 at 0.005), both sides of the series switch at 1.18, and the far tail.
    for lam in (1e-3, 0.005, 0.01, 0.02, 0.05, 0.1, 1.17, 1.18, 1.19, 5.0, 8.0):
        assert sta._kolmogorov_sf(lam) == pytest.approx(
            scipy.special.kolmogorov(lam), abs=1e-14
        )
    assert sta._kolmogorov_sf(0.0) == 1.0


def test_two_sample_ks_statistic_matches_scipy():
    rng = np.random.default_rng(53)
    for _ in range(20):
        xs = np.sort(rng.normal(0.0, 1.0, size=int(rng.integers(10, 200))))
        ys = np.sort(rng.normal(0.3, 1.2, size=int(rng.integers(10, 200))))
        expected = scipy.stats.ks_2samp(xs, ys).statistic
        assert sta._ks_statistic(xs, ys) == pytest.approx(expected, abs=1e-13)
        # The reported p-value is exactly the corrected-lambda series value.
        ne = math.sqrt(len(xs) * len(ys) / (len(xs) + len(ys)))
        lam = (ne + 0.12 + 0.11 / ne) * sta._ks_statistic(xs, ys)
        assert sta.two_sample_ks(xs, ys) == pytest.approx(sta._kolmogorov_sf(lam), abs=1e-15)


def test_two_sample_ks_large_sample_close_to_scipy():
    rng = np.random.default_rng(59)
    xs = rng.normal(0.0, 1.0, size=1000)
    ys = rng.normal(0.1, 1.0, size=1000)
    ours = sta.two_sample_ks(xs, ys)
    reference = scipy.stats.ks_2samp(xs, ys, method="asymp").pvalue
    assert ours == pytest.approx(reference, rel=0.15)


def test_two_sample_ks_extremes():
    same = np.arange(50, dtype=float)
    assert sta.two_sample_ks(same, same) == pytest.approx(1.0, abs=1e-6)
    low = np.arange(50, dtype=float)
    high = low + 1000.0
    assert sta.two_sample_ks(low, high) < 1e-10
    # Interleaved samples: D = 1 / 20000 and lambda ~ 0.005, asymptotic p = 1.
    interleaved = np.arange(20000, dtype=float)
    assert sta.two_sample_ks(interleaved, interleaved + 0.5) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        sta.two_sample_ks([], [1.0])


def test_norms_examples():
    assert sta.norms(np.zeros(8)) == (0.0, 0.0)
    v = np.array(P_B) - np.array(P_U)
    result = sta.norms(v)
    assert result.l1 == pytest.approx(V_L1)
    assert result.l2 == pytest.approx(V_L2)
    unit = np.zeros(5)
    unit[2] = 1.0
    assert sta.norms(unit) == (1.0, 1.0)


def test_norms_ordering_fuzz():
    rng = np.random.default_rng(61)
    for _ in range(300):
        v = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 30)))
        result = sta.norms(v)
        assert result.l2 <= result.l1 + 1e-12
        assert result.l2 == pytest.approx(np.linalg.norm(v))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_norms_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        sta.norms([0.5, bad])


@pytest.mark.parametrize("two_sample", [sta.two_sample_t, sta.two_sample_ks])
def test_two_sample_tests_reject_matrices(two_sample):
    # The t-test used to pool the entries into one sample; KS failed in numpy.
    with pytest.raises(ValueError, match="one-dimensional"):
        two_sample([[1, 2], [3, 4]], [[1, 2], [5, 6]])
    with pytest.raises(ValueError, match="one-dimensional"):
        two_sample([1, 2, 3], [[1, 2], [5, 6]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("two_sample", [sta.two_sample_t, sta.two_sample_ks])
def test_two_sample_tests_reject_non_finite(two_sample, bad):
    with pytest.raises(ValueError, match="finite"):
        two_sample([0.1, 0.2, 0.3], [0.1, bad, 0.3])
    with pytest.raises(ValueError, match="finite"):
        two_sample([0.1, bad, 0.3], [0.1, 0.2, 0.3])
    # A finite sample whose variance is past the float range: both tests give
    # a p-value, and neither warns.  For the t-test the small entries are
    # negligible, so t = 1 on 2 degrees of freedom.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = two_sample([0.1, 1e308, 0.3], [0.1, 0.2, 0.4])
        if two_sample is sta.two_sample_t:
            assert p == pytest.approx(scipy.stats.t.sf(1.0, 2) * 2, rel=1e-12)
        else:
            assert 0.0 <= p <= 1.0
        # Far from unit scale, but with finite variances: the p-value is the
        # unit-scale one.
        unit = two_sample([1.0, 2.0, 4.0], [1.0, 3.0, 5.0])
        for scale in (1e-100, 1e80):
            xs = [scale * v for v in (1.0, 2.0, 4.0)]
            ys = [scale * v for v in (1.0, 3.0, 5.0)]
            assert two_sample(xs, ys) == pytest.approx(unit, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e160, 1e300])
def test_two_sample_t_is_scale_invariant(scale):
    # Samples are divided by one common power of two before their variances
    # are taken, so neither a tiny nor a huge scale loses the statistic.
    expected = scipy.stats.ttest_ind([1.0, 2.0, 4.0], [1.0, 3.0, 5.0], equal_var=False).pvalue
    assert expected == pytest.approx(0.6717372553305926, abs=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = sta.two_sample_t([scale * v for v in (1, 2, 4)], [scale * v for v in (1, 3, 5)])
    assert p == pytest.approx(expected, abs=1e-12)


def test_two_sample_t_standard_error_underflow_is_an_error():
    # The variance of xs is one subnormal step above zero, and ys has none, so
    # the standard error rounds to zero.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="standard error underflows"):
            sta.two_sample_t([0.0, 0.0, 4.5e-162], [0.5, 0.5, 0.5])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_distance_sigma_rejects_non_finite(bad):
    with pytest.raises(ValueError) as error:
        sta.distance_sigma(pb(), bad)
    assert str(error.value) == f"noise sigma must be a finite real number >= 0, got {bad!r}"


def test_calibration_t_test_small():
    # Smoke-level calibration; the full 1000-trial version lives in the
    # acceptance suite.
    rng = np.random.default_rng(67)
    rejections = 0
    trials = 200
    for _ in range(trials):
        xs = rng.normal(0.0, 1.0, size=40)
        ys = rng.normal(0.0, 1.0, size=40)
        if sta.two_sample_t(xs, ys) < 0.05:
            rejections += 1
    assert 0.02 <= rejections / trials <= 0.09


def _exact_ks_statistic(xs, ys):
    # D as a fraction: the largest gap between the two empirical CDFs at any
    # pooled value.
    return max(
        abs(Fraction(sum(x <= v for x in xs), len(xs)) - Fraction(sum(y <= v for y in ys), len(ys)))
        for v in [*xs, *ys]
    )


@pytest.mark.parametrize("seed", range(6))
def test_ks_statistic_is_exact_on_tied_samples_of_unequal_size(seed):
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(1, 120, size=2))
    # Few distinct values, so nearly every value is tied within and across samples.
    xs = np.sort(rng.integers(0, 6, size=n)).astype(float)
    ys = np.sort(rng.integers(1, 8, size=m)).astype(float)
    d = sta._ks_statistic(xs.tolist(), ys.tolist())
    assert d == float(_exact_ks_statistic(xs.tolist(), ys.tolist()))
    assert d == pytest.approx(scipy.stats.ks_2samp(xs, ys).statistic, abs=1e-15)


def test_ks_statistic_of_identical_and_disjoint_samples():
    assert sta._ks_statistic([1.0, 1.0, 2.0], [1.0, 1.0, 2.0]) == 0.0
    assert sta._ks_statistic([1.0, 1.0], [1.0]) == 0.0
    assert sta._ks_statistic([0.0, 1.0], [2.0, 3.0, 4.0]) == 1.0
    assert sta._ks_statistic([2.0, 3.0, 4.0], [0.0, 1.0]) == 1.0
    assert sta._ks_statistic([0.0, 2.0], [1.0]) == 0.5


@pytest.mark.parametrize("two_sample", [sta.two_sample_t, sta.two_sample_ks])
def test_two_sample_tests_take_any_flat_sequence_of_reals(two_sample):
    xs, ys = [1, 2, 4, 7, 7], [1, 3, 5, 9]
    expected = two_sample([float(x) for x in xs], [float(y) for y in ys])
    for convert in (
        tuple,
        lambda v: np.array(v, dtype=np.float64),
        lambda v: np.array(v, dtype=np.int64),
        lambda v: [Fraction(x) for x in v],
        lambda v: v,
    ):
        assert two_sample(convert(xs), convert(ys)) == expected


@pytest.mark.parametrize("two_sample", [sta.two_sample_t, sta.two_sample_ks])
@pytest.mark.parametrize(
    "bad",
    [np.float64(1.0), np.array(1.0), 3.0, [[1.0, 2.0]], ["0.5", "0.7"], [True, False, True], [1.0, 1j]],
    ids=["numpy-scalar", "0-d", "float", "nested", "strings", "bools", "complex"],
)
def test_two_sample_tests_reject_what_is_not_a_sample(two_sample, bad):
    with pytest.raises(ValueError) as error:
        two_sample(bad, [0.1, 0.2, 0.3])
    assert str(error.value) == "two-sample tests need one-dimensional samples of real numbers"


@pytest.mark.parametrize("two_sample", [sta.two_sample_t, sta.two_sample_ks])
def test_two_sample_tests_reject_an_int_beyond_the_float_range(two_sample):
    with pytest.raises(ValueError) as error:
        two_sample([1, 2, 10**400], [0.1, 0.2, 0.3])
    assert str(error.value) == "two-sample tests need finite samples"
