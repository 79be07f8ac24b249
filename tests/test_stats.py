"""Noise model and statistical test checks.

Core claims pinned here:
  * perturb is seed-deterministic, clamped to [0, 1], and identity at zero
    sigma.
  * distance_sigma(P_B, 5%) equals the frozen oracle 0.0637...
  * gaussian_separability separates P_U from P_B at z ~ 5.5 and is monotone
    in distance.
  * Welch t and KS implementations agree with scipy oracles.
  * norms obeys l2 <= l1 and reproduces (0.5, sqrt(0.125)) on V.
"""

import math
import warnings

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


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        sta.NoiseSpec(sigma=-0.1)


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


def test_gaussian_separability_validation():
    with pytest.raises(ValueError):
        sta.gaussian_separability(pb(), pu(), 0.0)
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


def test_kolmogorov_sf_against_scipy():
    for lam in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0):
        assert sta._kolmogorov_sf(lam) == pytest.approx(
            scipy.special.kolmogorov(lam), abs=1e-10
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("two_sample", [sta.two_sample_t, sta.two_sample_ks])
def test_two_sample_tests_reject_non_finite(two_sample, bad):
    with pytest.raises(ValueError, match="finite"):
        two_sample([0.1, 0.2, 0.3], [0.1, bad, 0.3])
    with pytest.raises(ValueError, match="finite"):
        two_sample([0.1, bad, 0.3], [0.1, 0.2, 0.3])
    # A finite sample whose variance overflows: the t-test says so, the
    # rank-based KS test has nothing to overflow, and neither warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if two_sample is sta.two_sample_t:
            with pytest.raises(ValueError, match="overflows"):
                two_sample([0.1, 1e308, 0.3], [0.1, 0.2, 0.4])
        else:
            assert 0.0 <= two_sample([0.1, 1e308, 0.3], [0.1, 0.2, 0.4]) <= 1.0
        # Far from unit scale, but with finite variances: the p-value is the
        # unit-scale one, with no overflow reported.
        unit = two_sample([1.0, 2.0, 4.0], [1.0, 3.0, 5.0])
        for scale in (1e-100, 1e80):
            xs = [scale * v for v in (1.0, 2.0, 4.0)]
            ys = [scale * v for v in (1.0, 3.0, 5.0)]
            assert two_sample(xs, ys) == pytest.approx(unit, rel=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_distance_sigma_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=f"finite and non-negative, got {bad}"):
        sta.distance_sigma(pb(), bad)


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
