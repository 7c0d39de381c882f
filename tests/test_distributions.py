import math

import numpy as np
import pytest

from causalcps import distributions
from causalcps.distributions import (
    ANOMALOUS,
    Degenerate,
    Normal,
    Uniform,
    cdf,
    gof_block,
    gof_test,
    match_state,
    select_state,
    sample,
    state_p_values,
    two_sample_test,
)


class TestDistributionTypes:
    def test_equality_same_variant_same_parameters(self):
        assert Normal(20, 2) == Normal(20.0, 2.0)
        assert Uniform(0, 1) != Uniform(0, 2)
        assert Normal(0, 1) != Uniform(0, 1)
        assert Degenerate(3.0) == Degenerate(3)

    def test_normal_requires_positive_stddev(self):
        with pytest.raises(ValueError, match="stddev"):
            Normal(0, 0)
        with pytest.raises(ValueError, match="stddev"):
            Normal(0, -1)

    def test_uniform_requires_lo_below_hi(self):
        with pytest.raises(ValueError, match="lo < hi"):
            Uniform(2, 2)
        with pytest.raises(ValueError, match="lo < hi"):
            Uniform(3, 1)

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: Normal(math.nan, 2), "mean"),
            (lambda: Normal(-math.inf, 2), "mean"),
            (lambda: Normal(20, math.inf), "stddev"),
            (lambda: Normal(20, math.nan), "stddev"),
            (lambda: Uniform(-math.inf, 30), "lo"),
            (lambda: Uniform(0, math.nan), "hi"),
            (lambda: Uniform(-1e308, 1e308), "width"),
            (lambda: Degenerate(math.inf), "value"),
            (lambda: Degenerate(math.nan), "value"),
        ],
    )
    def test_parameters_and_width_must_be_finite(self, make, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make()


class TestSampling:
    def test_degenerate_returns_copies(self):
        assert list(sample(Degenerate(7.0), 123, 3)) == [7.0, 7.0, 7.0]

    def test_deterministic_for_fixed_seed(self):
        a = sample(Normal(0, 1), 42, 100)
        b = sample(Normal(0, 1), 42, 100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(sample(Normal(0, 1), 1, 100), sample(Normal(0, 1), 2, 100))

    def test_exact_count(self):
        for n in (1, 2, 17):
            assert sample(Uniform(0, 1), 5, n).size == n

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(Normal(0, 1), 1, 0)

    def test_uniform_mean_law_of_large_numbers(self):
        values = sample(Uniform(0, 1), 1, 10**5)
        assert abs(values.mean() - 0.5) < 0.01

    def test_normal_stddev_monte_carlo(self):
        values = sample(Normal(20, 2), 1, 10**5)
        assert abs(values.std() - 2.0) < 0.05

    def test_uniform_stays_in_support(self):
        values = sample(Uniform(3, 5), 9, 10**4)
        assert values.min() >= 3 and values.max() <= 5


class TestCdf:
    def test_normal_symmetry_point(self):
        assert cdf(Normal(0, 1), 0) == pytest.approx(0.5)

    def test_uniform_linear(self):
        assert cdf(Uniform(0, 10), 2.5) == pytest.approx(0.25)

    def test_degenerate_step(self):
        assert cdf(Degenerate(3), 2.9) == 0.0
        assert cdf(Degenerate(3), 3.0) == 1.0
        assert cdf(Degenerate(3), 3.1) == 1.0

    @pytest.mark.parametrize(
        "dist", [Normal(5, 3), Uniform(-2, 7), Degenerate(1.5)]
    )
    def test_monotone_with_limits(self, dist):
        grid = np.linspace(-50, 50, 501)
        values = [cdf(dist, x) for x in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[-1] == pytest.approx(1.0, abs=1e-12)


class TestGofTest:
    def test_perfect_fit_quantiles(self):
        # Mid-quantiles of Uniform(0,1) leave a gap of exactly 0.5/n.
        n = 100
        values = [(i - 0.5) / n for i in range(1, n + 1)]
        result = gof_test(values, Uniform(0, 1))
        assert result.statistic == pytest.approx(0.5 / n, abs=1e-12)
        assert result.p_value > 0.99
        assert result.sample_size == n

    def test_five_sigma_separation_rejected(self):
        values = sample(Normal(0, 1), 7, 200)
        assert gof_test(values, Normal(5, 1)).p_value < 1e-6

    def test_calibration_under_null(self):
        # Rejection rate at level 0.05 must be 0.05 +/- 0.02 over 1000 trials.
        rng = np.random.default_rng(0)
        rejected = sum(
            gof_test(rng.normal(0, 1, 200), Normal(0, 1)).p_value < 0.05 for _ in range(1000)
        )
        assert 0.03 <= rejected / 1000 <= 0.07

    def test_degenerate_exact_match(self):
        result = gof_test([2.0, 2.0, 2.0], Degenerate(2.0))
        assert result.p_value == 1.0 and result.statistic == 0.0
        result = gof_test([2.0, 2.0, 2.5], Degenerate(2.0))
        assert result.p_value == 0.0 and result.statistic == pytest.approx(0.5)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            gof_test([], Normal(0, 1))

    def test_statistic_and_p_value_ranges(self):
        rng = np.random.default_rng(3)
        for dist in (Normal(1, 2), Uniform(0, 4), Degenerate(1.0)):
            result = gof_test(rng.normal(1, 2, 50), dist)
            assert result.statistic >= 0
            assert 0.0 <= result.p_value <= 1.0


def scalar_cdf(dist, x):
    """Oracle: each law's CDF at one point, in plain Python arithmetic."""
    if isinstance(dist, Normal):
        return 0.5 * (1.0 + math.erf((x - dist.mean) / (dist.stddev * math.sqrt(2.0))))
    if x <= dist.lo:
        return 0.0
    if x >= dist.hi:
        return 1.0
    return (x - dist.lo) / (dist.hi - dist.lo)


def oracle_gof(values, dist):
    """KS statistic and p-value from the per-element scalar CDF."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    f = np.array([scalar_cdf(dist, x) for x in ordered])
    grid = np.arange(1, n + 1) / n
    d = max(float(np.max(grid - f)), float(np.max(f - (grid - 1.0 / n))), 0.0)
    return d, distributions._ks_p_value(d, n)


class TestGofOracle:
    def random_cases(self, seed, count):
        """Normal and uniform laws with samples that mix draws from the law,
        repeated values, the uniform bounds themselves and points outside."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, 80))
            if rng.random() < 0.5:
                dist = Normal(float(rng.normal(0, 20)), float(rng.uniform(0.01, 10)))
                edges = [dist.mean, dist.mean - 40 * dist.stddev, dist.mean + 40 * dist.stddev]
                values = rng.normal(dist.mean, dist.stddev * rng.uniform(0.5, 2), n)
            else:
                lo = float(rng.normal(0, 20))
                dist = Uniform(lo, lo + float(rng.uniform(0.01, 10)))
                edges = [dist.lo, dist.hi, dist.lo - 1.0, dist.hi + 1.0]
                values = rng.uniform(dist.lo - 0.5, dist.hi + 0.5, n)
            values[rng.random(n) < 0.2] = rng.choice(edges)
            values[rng.random(n) < 0.2] = values[0]
            yield dist, values

    def test_array_cdf_equals_scalar_oracle(self):
        for dist, values in self.random_cases(seed=11, count=200):
            result = gof_test(values, dist)
            d, p = oracle_gof(values, dist)
            assert result.statistic == d and result.p_value == p, dist
            assert result.sample_size == len(values)
            assert [cdf(dist, x) for x in values] == [scalar_cdf(dist, x) for x in values]


class TestGofBlockOracle:
    """gof_block on a k x n block equals gof_test on each of its rows."""

    TOL = distributions.DEGENERATE_TOLERANCE

    def random_blocks(self, seed, count):
        """Blocks of 1-40 rows and 1-60 columns against normal, uniform and
        point-mass laws, with ties, the uniform bounds themselves, points
        outside the support and point-mass rows just inside or just outside
        the tolerance."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            k, n = int(rng.integers(1, 41)), int(rng.integers(1, 61))
            kind = i % 3
            if kind == 0:
                dist = Normal(float(rng.normal(0, 20)), float(rng.uniform(0.01, 10)))
                edges = [dist.mean, dist.mean - 40 * dist.stddev, dist.mean + 40 * dist.stddev]
                block = rng.normal(dist.mean, dist.stddev * rng.uniform(0.5, 2), (k, n))
            elif kind == 1:
                lo = float(rng.normal(0, 20))
                dist = Uniform(lo, lo + float(rng.uniform(0.01, 10)))
                edges = [dist.lo, dist.hi, dist.lo - 1.0, dist.hi + 1.0]
                block = rng.uniform(dist.lo - 0.5, dist.hi + 0.5, (k, n))
            else:
                value = float(rng.choice([0.0, 1.0, -3.5, float(rng.normal(0, 100))]))
                dist = Degenerate(value)
                offsets = [0.0, 0.5 * self.TOL, -0.5 * self.TOL, 2 * self.TOL, -2 * self.TOL, 1.0]
                block = np.full((k, n), value)
                for row in block:
                    row[rng.random(n) < 0.3] = value + float(rng.choice(offsets))
                    row[int(rng.integers(n))] = value + float(rng.choice(offsets))
                edges = [value, value + self.TOL, value - self.TOL]
            block[rng.random((k, n)) < 0.15] = rng.choice(edges)
            ties = rng.random((k, n)) < 0.2
            block[ties] = np.broadcast_to(block[:, :1], (k, n))[ties]
            yield dist, block

    def test_rows_equal_gof_test(self):
        inside = outside = 0
        for dist, block in self.random_blocks(seed=29, count=240):
            stats, p_values = gof_block(np.sort(block, axis=1), dist)
            assert len(stats) == len(p_values) == block.shape[0]
            for row, stat, p in zip(block, stats, p_values):
                expected = gof_test(row, dist)
                assert (stat, p) == (expected.statistic, expected.p_value), dist
                assert type(stat) is float and type(p) is float
                if isinstance(dist, Degenerate):
                    assert stat == float(np.max(np.abs(row - dist.value)))
                    assert p == (1.0 if stat <= self.TOL else 0.0)
                    inside += 0 < stat <= self.TOL
                    outside += self.TOL < stat < 1.0
                else:
                    assert (stat, p) == oracle_gof(row, dist), dist
        assert inside and outside

    def test_state_p_values_equal_gof_test_per_state(self):
        states = [("N", Normal(1, 2)), ("U", Uniform(-1, 3)), ("P", Degenerate(1.0))]
        rng = np.random.default_rng(31)
        for n in (1, 2, 7, 50):
            values = rng.normal(1, 2, n)
            results = state_p_values(values, states)
            assert results == {label: gof_test(values, dist) for label, dist in states}


class TestTwoSampleTest:
    def test_identical_sequences(self):
        a = sample(Normal(0, 1), 4, 150)
        result = two_sample_test(a, a)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_clear_shift_rejected(self):
        a = sample(Normal(0, 1), 1, 200)
        b = sample(Normal(3, 1), 2, 200)
        assert two_sample_test(a, b).p_value < 1e-6

    def test_symmetric_in_arguments(self):
        a = sample(Normal(0, 1), 5, 120)
        b = sample(Uniform(-1, 1), 6, 80)
        assert two_sample_test(a, b) == two_sample_test(b, a)

    def test_same_law_usually_accepted(self):
        accepted = 0
        for seed in range(20):
            a = sample(Normal(10, 2), 2 * seed, 100)
            b = sample(Normal(10, 2), 2 * seed + 1, 100)
            accepted += two_sample_test(a, b).p_value >= 0.01
        assert accepted >= 18

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            two_sample_test([], [1.0])
        with pytest.raises(ValueError, match="empty sample"):
            two_sample_test([1.0], [])


class TestMatchState:
    STATES = [("Ambient", Normal(20, 2)), ("Hot", Normal(800, 10))]

    def test_matches_correct_state(self):
        values = sample(Normal(20, 2), 3, 500)
        assert match_state(values, self.STATES, 0.01) == "Ambient"
        values = sample(Normal(800, 10), 4, 500)
        assert match_state(values, self.STATES, 0.01) == "Hot"

    def test_between_states_is_anomalous(self):
        values = sample(Normal(400, 10), 4, 500)
        assert match_state(values, self.STATES, 0.01) == ANOMALOUS

    def test_single_degenerate_state(self):
        assert match_state([0.0, 0.0], [("Only", Degenerate(0.0))], 0.05) == "Only"

    def test_never_returns_rejected_label(self):
        rng = np.random.default_rng(8)
        states = [("A", Normal(0, 1)), ("B", Normal(6, 1))]
        for _ in range(50):
            values = rng.normal(0, 1, 80)
            matched = match_state(values, states, 0.05)
            if matched != ANOMALOUS:
                assert state_p_values(values, states)[matched].p_value >= 0.05 / 2

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            match_state([1.0], self.STATES, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            match_state([1.0], self.STATES, 1.0)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            match_state([1.0], [("X", Normal(0, 1)), ("X", Normal(5, 1))], 0.05)

    def test_reserved_label_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            match_state([1.0], [(ANOMALOUS, Normal(0, 1))], 0.05)

    def test_empty_sample_propagates(self):
        with pytest.raises(ValueError, match="empty sample"):
            match_state([], self.STATES, 0.05)


class TestSelectState:
    def test_highest_surviving_p_value_wins(self):
        assert select_state({"A": 0.2, "B": 0.7, "C": 0.001}, 0.03) == "B"

    def test_every_state_below_bonferroni_level_is_anomalous(self):
        # level 0.05 / 2 = 0.025 rejects both.
        assert select_state({"A": 0.02, "B": 0.024}, 0.05) == ANOMALOUS
        assert select_state({"A": 0.02, "B": 0.025}, 0.05) == "B"

    def test_alpha_validation(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="alpha"):
                select_state({"A": 0.5}, alpha)

    def test_agrees_with_match_state(self):
        rng = np.random.default_rng(3)
        states = TestMatchState.STATES
        for mean in (20, 400, 800):
            values = rng.normal(mean, 5, 40)
            p_values = {label: r.p_value for label, r in state_p_values(values, states).items()}
            assert select_state(p_values, 0.01) == match_state(values, states, 0.01)


def test_test_result_is_plain_data():
    result = distributions.TestResult(statistic=0.1, p_value=0.5, sample_size=10)
    assert result == distributions.TestResult(0.1, 0.5, 10)
