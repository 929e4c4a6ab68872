"""Classical divergence of probability vectors and its bound checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdiv.classical import (
    DiscreteDistribution,
    distribution_from_json,
    distribution_to_json,
    i_f,
    load_distribution,
    range_check,
    refinement_bound_check,
    shift_invariance_check,
    variation_distance,
)
from qfdiv.errors import InputFormatError
from qfdiv.generators import (
    DEFAULT_SPECS,
    chi2,
    hellinger,
    inv_minus_one,
    kl_quantum,
    neg_log,
    parse_generator_spec,
    tv,
)

INF = math.inf


def dist(*weights):
    return DiscreteDistribution(np.asarray(weights, dtype=np.float64))


def normalized(values):
    arr = np.asarray(values, dtype=np.float64)
    return DiscreteDistribution(arr / arr.sum())


finite_weights = st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=12)


class TestDiscreteDistribution:
    def test_accepts_probability_vector(self):
        d = dist(0.25, 0.75)
        assert len(d) == 2

    def test_rejects_negative(self):
        with pytest.raises(InputFormatError):
            dist(-0.1, 1.1)

    def test_rejects_bad_sum(self):
        with pytest.raises(InputFormatError):
            dist(0.5, 0.6)

    def test_rejects_empty(self):
        with pytest.raises(InputFormatError):
            DiscreteDistribution(np.asarray([], dtype=np.float64))

    def test_rejects_matrix(self):
        with pytest.raises(InputFormatError):
            DiscreteDistribution(np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InputFormatError, match="finite"):
            DiscreteDistribution(np.asarray([0.5, bad]))

    def test_json_not_an_object(self):
        with pytest.raises(InputFormatError, match="must be an object"):
            distribution_from_json([0.5, 0.5])

    def test_json_non_numeric_weights(self):
        with pytest.raises(InputFormatError, match="bad weights"):
            distribution_from_json({"weights": ["a", "b"]})

    def test_json_round_trip(self):
        d = dist(0.25, 0.75)
        d2 = distribution_from_json(distribution_to_json(d))
        assert np.array_equal(d.weights, d2.weights)

    def test_load_missing_file(self):
        with pytest.raises(InputFormatError):
            load_distribution("/nonexistent/d.json")


class TestIF:
    def test_kl_frozen_example(self):
        val = i_f(dist(0.75, 0.25), dist(0.5, 0.5), kl_quantum())
        assert val == pytest.approx(0.13081203594113697, abs=1e-15)

    def test_equal_distributions_vanish(self):
        d = dist(0.3, 0.3, 0.4)
        for spec in DEFAULT_SPECS:
            f = parse_generator_spec(spec)
            assert i_f(d, d, f) == pytest.approx(0.0, abs=1e-14)

    def test_manual_two_point(self):
        # p f(q/p) summed by hand for chi2.
        q, p = dist(0.8, 0.2), dist(0.4, 0.6)
        manual = 0.4 * ((0.8 / 0.4) ** 2 - 1) + 0.6 * ((0.2 / 0.6) ** 2 - 1)
        assert i_f(q, p, chi2()) == pytest.approx(manual, abs=1e-14)

    def test_zero_q_mass_uses_value_at_zero(self):
        # q = (1, 0), p = (.5, .5): second term is p * f(0).
        val = i_f(dist(1.0, 0.0), dist(0.5, 0.5), chi2())
        assert val == pytest.approx(0.5 * 3.0 + 0.5 * (-1.0), abs=1e-14)

    def test_zero_p_mass_uses_star_at_zero(self):
        # p = (1, 0), q = (.5, .5): second term is q * f*(0).
        val = i_f(dist(0.5, 0.5), dist(1.0, 0.0), tv())
        assert val == pytest.approx(0.5 * 1.0 + 0.5 * 1.0, abs=1e-14)

    def test_infinite_when_generator_blows_up(self):
        assert i_f(dist(1.0, 0.0), dist(0.5, 0.5), neg_log()) == INF
        assert i_f(dist(0.5, 0.5), dist(1.0, 0.0), kl_quantum()) == INF

    def test_overflow_to_infinity_warns_nothing(self):
        # q/p = 2e-320, where 1/t overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert i_f(dist(1e-320, 1.0), dist(0.5, 0.5), inv_minus_one()) == INF

    def test_orthogonal_tv_is_two(self):
        assert i_f(dist(1.0, 0.0), dist(0.0, 1.0), tv()) == pytest.approx(2.0, abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(InputFormatError):
            i_f(dist(1.0), dist(0.5, 0.5), tv())

    def test_accepts_raw_arrays(self):
        assert i_f([0.75, 0.25], [0.5, 0.5], kl_quantum()) == pytest.approx(
            0.13081203594113697, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(finite_weights, finite_weights, st.sampled_from(DEFAULT_SPECS))
    def test_property_nonnegative(self, qw, pw, spec):
        if len(qw) != len(pw):
            size = min(len(qw), len(pw))
            qw, pw = qw[:size], pw[:size]
        q, p = normalized(qw), normalized(pw)
        f = parse_generator_spec(spec)
        val = i_f(q, p, f)
        assert val == INF or val >= -1e-10


class TestVariationDistance:
    def test_example_pair(self):
        assert variation_distance(dist(0.75, 0.25), dist(0.5, 0.5)) == pytest.approx(0.5, abs=0)

    def test_orthogonal_pair(self):
        assert variation_distance(dist(1.0, 0.0), dist(0.0, 1.0)) == 2.0

    def test_tv_divergence_equals_variation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            size = int(rng.integers(2, 10))
            q = normalized(rng.random(size) + 1e-3)
            p = normalized(rng.random(size) + 1e-3)
            assert i_f(q, p, tv()) == pytest.approx(variation_distance(q, p), abs=1e-12)


class TestRangeCheck:
    def test_interior_pair_passes(self):
        rep = range_check(dist(0.75, 0.25), dist(0.5, 0.5), hellinger())
        assert rep.ok
        assert rep.note == ""

    def test_orthogonal_pair_hits_upper(self):
        rep = range_check(dist(1.0, 0.0), dist(0.0, 1.0), hellinger())
        assert rep.ok
        # value and f(0) + f*(0) coincide for orthogonal supports.
        assert rep.terms[1][1] == pytest.approx(rep.terms[2][1], abs=1e-12)

    def test_vacuous_upper_noted(self):
        rep = range_check(dist(0.75, 0.25), dist(0.5, 0.5), kl_quantum())
        assert rep.ok
        assert "vacuous" in rep.note

    @settings(max_examples=40, deadline=None)
    @given(finite_weights, finite_weights, st.sampled_from(DEFAULT_SPECS))
    def test_property_range_holds(self, qw, pw, spec):
        size = min(len(qw), len(pw))
        q, p = normalized(qw[:size]), normalized(pw[:size])
        rep = range_check(q, p, parse_generator_spec(spec))
        assert rep.ok


class TestRefinementBound:
    def test_tv_reaches_equality(self):
        # f(0) + f*(0) = 2 for |t-1|, so the bound is exactly V.
        q, p = dist(0.7, 0.3), dist(0.2, 0.8)
        rep = refinement_bound_check(q, p, tv())
        assert rep.ok
        assert rep.terms[1][1] == pytest.approx(rep.terms[2][1], abs=1e-12)

    def test_vacuous_for_infinite_limit_sum(self):
        rep = refinement_bound_check(dist(0.75, 0.25), dist(0.5, 0.5), neg_log())
        assert rep.ok
        assert "vacuous" in rep.note

    def test_requires_normalized_generator(self):
        from qfdiv.generators import from_callable
        g = from_callable("custom-off", lambda t: t * t)
        with pytest.raises(InputFormatError):
            refinement_bound_check(dist(0.5, 0.5), dist(0.5, 0.5), g)

    @settings(max_examples=40, deadline=None)
    @given(finite_weights, finite_weights, st.sampled_from(DEFAULT_SPECS))
    def test_property_refinement_holds(self, qw, pw, spec):
        size = min(len(qw), len(pw))
        q, p = normalized(qw[:size]), normalized(pw[:size])
        rep = refinement_bound_check(q, p, parse_generator_spec(spec))
        assert rep.ok


class TestShiftInvariance:
    @pytest.mark.parametrize("c", [-10.0, -1.0, 1.0, 10.0])
    def test_shift_does_not_change_divergence(self, c):
        rng = np.random.default_rng(9)
        for _ in range(10):
            size = int(rng.integers(2, 8))
            q = normalized(rng.random(size) + 1e-3)
            p = normalized(rng.random(size) + 1e-3)
            rep = shift_invariance_check(q, p, chi2(), c, tol=1e-11)
            assert rep.ok

    def test_infinite_values_match(self):
        rep = shift_invariance_check(dist(0.5, 0.5), dist(1.0, 0.0), kl_quantum(), 3.0)
        assert rep.ok
