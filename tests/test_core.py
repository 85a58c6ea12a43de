from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_arena import (
    CdfEstimate,
    RoundRecord,
    ValidationError,
    empirical_cdf,
    ks_distance,
    mean_error,
    median_from_cdf,
    quantile_error,
)


def test_round_record_feedback_consistency():
    with pytest.raises(ValidationError):
        RoundRecord(1, 3, 2, 0)


class TestEmpiricalCdf:
    def test_two_twos(self):
        f = empirical_cdf([2, 2], n=3)
        assert f.fractions() == [0, 0, 1, 1, 1]

    def test_one_sample_per_point(self):
        f = empirical_cdf([1, 2, 3, 4], n=4)
        assert f.fractions() == [Fraction(0)] + [Fraction(i, 4) for i in range(1, 5)] + [1]

    def test_all_mass_at_top(self):
        f = empirical_cdf([5, 5, 5], n=4)
        assert f.fractions() == [0, 0, 0, 0, 0, 1]

    def test_empty_sequence(self):
        with pytest.raises(ValidationError, match="t=0"):
            empirical_cdf([], n=3)

    def test_out_of_range_sample(self):
        with pytest.raises(ValidationError, match="outside"):
            empirical_cdf([1, 7], n=3)

    def test_exact_mean(self):
        assert empirical_cdf([1, 4, 4], n=4).mean() == Fraction(3)

    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=1, max_value=n + 1), min_size=1, max_size=60),
            )
        )
    )
    def test_monotone_with_pinned_endpoints(self, case):
        n, samples = case
        f = empirical_cdf(samples, n)
        vals = f.fractions()
        assert vals[0] == 0 and vals[n + 1] == 1
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestQuantileError:
    def test_interval_covers_target(self):
        f = empirical_cdf([2, 2], n=3)
        assert quantile_error(f, 2, Fraction(1, 2)) == 0

    def test_point_interval(self):
        f = empirical_cdf([2, 2], n=3)
        assert quantile_error(f, 3, Fraction(1, 2)) == Fraction(1, 2)

    def test_hand_counted_endpoints(self):
        # samples (1,2,3,4): [F(0), F(1)] = [0, 1/4], distance to 1/2 is 1/4
        f = empirical_cdf([1, 2, 3, 4], n=4)
        assert quantile_error(f, 1, Fraction(1, 2)) == Fraction(1, 4)

    def test_out_of_range_estimate(self):
        f = empirical_cdf([2, 2], n=3)
        with pytest.raises(ValidationError):
            quantile_error(f, 0, 0.5)
        with pytest.raises(ValidationError):
            quantile_error(f, 5, 0.5)

    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=1, max_value=n + 1), min_size=1, max_size=30),
                st.integers(min_value=1, max_value=n + 1),
                st.fractions(min_value=0, max_value=1),
            )
        )
    )
    def test_zero_iff_target_inside(self, case):
        n, samples, m, tau = case
        f = empirical_cdf(samples, n)
        err = quantile_error(f, m, tau)
        assert 0 <= err <= 1
        inside = f.value(m - 1) <= tau <= f.value(m)
        assert (err == 0) == inside


class TestKsDistance:
    def test_identity(self):
        f = empirical_cdf([1, 3], n=3)
        f_hat = CdfEstimate.from_values(f.floats()[1:])
        assert ks_distance(f_hat, f) == 0.0

    def test_single_differing_point(self):
        f = empirical_cdf([1, 2], n=2)  # (0.5, 1.0, 1)
        f_hat = CdfEstimate.from_values([0.25, 1.0, 1.0])
        assert ks_distance(f_hat, f) == 0.25

    def test_non_monotone_unclamped_estimate(self):
        f = empirical_cdf([1, 1, 3, 3], n=3)  # (0.5, 0.5, 1.0, 1)
        f_hat = CdfEstimate.from_values([1.2, 0.9, 1.0, 1.0])
        assert ks_distance(f_hat, f) == pytest.approx(0.7)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            ks_distance(CdfEstimate.from_values([0.5, 1.0]), empirical_cdf([1], n=2))

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.floats(min_value=0, max_value=1.5, allow_nan=False),
                    min_size=n,
                    max_size=n,
                ),
                min_size=3,
                max_size=3,
            )
        )
    )
    def test_triangle_inequality(self, triples):
        estimates = [CdfEstimate.from_values(vals + [1.0]) for vals in triples]
        a, b, c = estimates
        assert ks_distance(a, c) <= ks_distance(a, b) + ks_distance(b, c) + 1e-12


def test_mean_error_examples():
    assert mean_error(5, 5, 4) == 0
    assert mean_error(5, 3, 4) == 0.5
    n = 9
    assert mean_error(1, n + 1, n) == 1.0
    with pytest.raises(ValidationError):
        mean_error(1, 1, 1)


@settings(max_examples=60)
@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=1, max_value=n + 1), min_size=1, max_size=40),
            st.lists(
                st.floats(min_value=0, max_value=1.2, allow_nan=False), min_size=n, max_size=n
            ),
        )
    )
)
def test_median_extraction_error_bounded_by_ks(case):
    # close CDF estimates yield good median estimates: the extraction rule
    # pins 1/2 inside the estimated interval, so the true interval is within
    # the sup distance of it.
    n, samples, est_values = case
    f = empirical_cdf(samples, n)
    f_hat = CdfEstimate.from_values(est_values + [1.0])
    m_hat = median_from_cdf(f_hat)
    assert float(quantile_error(f, m_hat, Fraction(1, 2))) <= ks_distance(f_hat, f) + 1e-12


def test_cdf_estimate_validation():
    with pytest.raises(ValidationError, match="1 at index"):
        CdfEstimate.from_values([0.5, 0.9])
    with pytest.raises(ValidationError, match="nonnegative"):
        CdfEstimate.from_values([-0.1, 1.0])
    with pytest.raises(ValidationError, match="entries"):
        CdfEstimate(3, np.array([0.0, 1.0]))
