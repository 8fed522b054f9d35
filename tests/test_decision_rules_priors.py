"""Tests for repro.decision.priors and repro.decision.rules."""

import numpy as np
import pytest

from reference.priors import uniform_priors
from reference.rules import cost_based_rule, inverse_prior_costs
from repro.decision.priors import PixelPriorEstimator
from repro.decision.rules import bayes_rule, interpolated_rule, maximum_likelihood_rule


class TestUniformPriors:
    def test_shape_and_normalisation(self):
        priors = uniform_priors(4, 5, 19)
        assert priors.shape == (4, 5, 19)
        np.testing.assert_allclose(priors.sum(axis=2), 1.0)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            uniform_priors(0, 5, 19)


class TestPixelPriorEstimator:
    def test_priors_normalised(self, cityscapes_like):
        estimator = PixelPriorEstimator().fit(
            s.labels for s in cityscapes_like.train_samples()
        )
        priors = estimator.priors()
        np.testing.assert_allclose(priors.sum(axis=2), 1.0, atol=1e-9)
        assert priors.min() > 0.0

    def test_person_prior_concentrated_below_horizon(self, cityscapes_like, label_space):
        estimator = PixelPriorEstimator().fit(
            s.labels for s in cityscapes_like.train_samples()
        )
        person_prior = estimator.priors()[..., label_space.id_of("person")]
        height = person_prior.shape[0]
        upper = person_prior[: height // 3].mean()
        lower = person_prior[height // 2 :].mean()
        assert lower > upper  # persons occur in the lower image half (Fig. 4)

    def test_category_prior_is_sum_of_classes(self, cityscapes_like, label_space):
        estimator = PixelPriorEstimator().fit(
            s.labels for s in cityscapes_like.train_samples()
        )
        human = estimator.category_prior("human")
        priors = estimator.priors()
        person = priors[..., label_space.id_of("person")]
        rider = priors[..., label_space.id_of("rider")]
        np.testing.assert_allclose(human, person + rider, atol=1e-12)

    def test_global_frequencies_reflect_imbalance(self, cityscapes_like, label_space):
        estimator = PixelPriorEstimator().fit(
            s.labels for s in cityscapes_like.train_samples()
        )
        freqs = estimator.global_class_frequencies()
        assert freqs[label_space.id_of("road")] > freqs[label_space.id_of("person")]

    def test_partial_fit_equivalent_to_fit(self, cityscapes_like):
        samples = cityscapes_like.train_samples()[:3]
        batch = PixelPriorEstimator(spatial_sigma=0.0).fit(s.labels for s in samples)
        streaming = PixelPriorEstimator(spatial_sigma=0.0)
        for sample in samples:
            streaming.partial_fit(sample.labels)
        np.testing.assert_allclose(batch.priors(), streaming.priors())

    def test_fit_needs_a_label_map(self):
        with pytest.raises(ValueError, match="at least one label map"):
            PixelPriorEstimator().fit([])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PixelPriorEstimator().priors()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PixelPriorEstimator(laplace_smoothing=0.0)
        with pytest.raises(ValueError):
            PixelPriorEstimator(spatial_sigma=-1.0)
        with pytest.raises(ValueError):
            PixelPriorEstimator(global_blend=1.0)

    def test_mismatched_shapes_raise(self, cityscapes_like):
        estimator = PixelPriorEstimator()
        estimator.partial_fit(cityscapes_like.train_sample(0).labels)
        with pytest.raises(ValueError):
            estimator.partial_fit(np.zeros((8, 8), dtype=int))


class TestDecisionRules:
    def test_bayes_is_argmax(self, probability_field):
        np.testing.assert_array_equal(
            bayes_rule(probability_field), np.argmax(probability_field, axis=2)
        )

    def test_ml_with_uniform_priors_equals_bayes(self, probability_field):
        priors = uniform_priors(*probability_field.shape)
        np.testing.assert_array_equal(
            maximum_likelihood_rule(probability_field, priors), bayes_rule(probability_field)
        )

    def test_ml_with_global_prior_vector(self, probability_field):
        n_classes = probability_field.shape[2]
        priors = np.full(n_classes, 1.0 / n_classes)
        np.testing.assert_array_equal(
            maximum_likelihood_rule(probability_field, priors), bayes_rule(probability_field)
        )

    def test_ml_boosts_downweighted_class(self):
        probs = np.zeros((1, 1, 3))
        probs[0, 0] = [0.55, 0.40, 0.05]
        priors = np.array([0.90, 0.08, 0.02])
        assert bayes_rule(probs)[0, 0] == 0
        assert maximum_likelihood_rule(probs, priors)[0, 0] == 1

    def test_ml_shape_mismatch_raises(self, probability_field):
        with pytest.raises(ValueError):
            maximum_likelihood_rule(probability_field, np.ones(5))
        with pytest.raises(ValueError):
            maximum_likelihood_rule(probability_field, -np.ones(probability_field.shape[2]))

    def test_cost_rule_with_uniform_costs_equals_bayes(self, probability_field):
        n_classes = probability_field.shape[2]
        costs = np.ones((n_classes, n_classes))
        np.testing.assert_array_equal(
            cost_based_rule(probability_field, costs), bayes_rule(probability_field)
        )

    def test_cost_rule_with_inverse_prior_costs_equals_ml(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(size=(4, 5, 3))
        probs /= probs.sum(axis=2, keepdims=True)
        priors = np.array([0.7, 0.2, 0.1])
        costs = np.zeros((3, 3))
        for predicted in range(3):
            for actual in range(3):
                if predicted != actual:
                    costs[predicted, actual] = 1.0 / priors[actual]
        from_costs = cost_based_rule(probs, costs)
        from_ml = maximum_likelihood_rule(probs, priors)
        np.testing.assert_array_equal(from_costs, from_ml)

    def test_inverse_prior_costs_values(self):
        priors = np.array([0.5, 0.25])
        np.testing.assert_allclose(inverse_prior_costs(priors), [2.0, 4.0])
        with pytest.raises(ValueError):
            inverse_prior_costs(np.array([-0.1, 1.1]))

    def test_cost_rule_invalid_costs(self, probability_field):
        with pytest.raises(ValueError):
            cost_based_rule(probability_field, np.ones((3, 3)))
        with pytest.raises(ValueError):
            cost_based_rule(probability_field, -np.ones((19, 19)))

    def test_cost_rule_position_specific_costs(self):
        """An (H, W, C, C) tensor decides pixel by pixel; the matrix is its broadcast."""
        rng = np.random.default_rng(1)
        probs = rng.uniform(size=(3, 4, 3))
        probs /= probs.sum(axis=2, keepdims=True)
        matrix = rng.uniform(0.5, 2.0, size=(3, 3))
        tensor = np.broadcast_to(matrix, (3, 4, 3, 3)).copy()
        np.testing.assert_array_equal(
            cost_based_rule(probs, tensor), cost_based_rule(probs, matrix)
        )
        # Forbid class 0 at the top row only: confusing it with any class costs 100.
        tensor[0, :, 0, 1:] = 100.0
        decoded = cost_based_rule(probs, tensor)
        assert not np.any(decoded[0] == 0)
        np.testing.assert_array_equal(decoded[1:], cost_based_rule(probs, matrix)[1:])
        with pytest.raises(ValueError, match=r"tensor must be \(H, W, C, C\)"):
            cost_based_rule(probs, tensor[:2])

    def test_interpolated_rule_endpoints(self, probability_field, cityscapes_like):
        estimator = PixelPriorEstimator().fit(
            s.labels for s in cityscapes_like.train_samples()
        )
        priors = estimator.priors()[: probability_field.shape[0], : probability_field.shape[1]]
        zero = interpolated_rule(probability_field, priors, 0.0)
        one = interpolated_rule(probability_field, priors, 1.0)
        np.testing.assert_array_equal(zero, bayes_rule(probability_field))
        np.testing.assert_array_equal(one, maximum_likelihood_rule(probability_field, priors))

    def test_interpolated_invalid_strength(self, probability_field):
        with pytest.raises(ValueError):
            interpolated_rule(probability_field, np.ones(19) / 19, 1.5)

    @pytest.mark.parametrize("rule", [maximum_likelihood_rule, interpolated_rule])
    def test_prior_rules_reject_negative_priors(self, rule, probability_field):
        with pytest.raises(ValueError, match="non-negative, found -1.0"):
            rule(probability_field, -np.ones(probability_field.shape[2]), 1.0)

    @pytest.mark.parametrize("rule", [maximum_likelihood_rule, interpolated_rule])
    def test_prior_rules_reject_one_prior_per_pixel(self, rule, probability_field):
        """An (H, W, 1) field would divide every class by the same prior."""
        height, width, _ = probability_field.shape
        with pytest.raises(ValueError, match=r"got shape \(%d, %d, 1\)" % (height, width)):
            rule(probability_field, np.full((height, width, 1), 0.5), 1.0)

    @pytest.mark.parametrize("rule", [maximum_likelihood_rule, interpolated_rule])
    def test_prior_rules_reject_wrong_length_vector(self, rule, probability_field):
        with pytest.raises(ValueError, match=r"length-19 vector .* got shape \(5,\)"):
            rule(probability_field, np.ones(5) / 5, 1.0)

    @pytest.mark.parametrize("rule", [maximum_likelihood_rule, interpolated_rule])
    def test_prior_rules_require_priors(self, rule, probability_field):
        with pytest.raises(ValueError, match="requires priors"):
            rule(probability_field)

    def test_registered_rules_share_one_signature(self, probability_field):
        n_classes = probability_field.shape[2]
        priors = np.full(n_classes, 1.0 / n_classes)
        expected = bayes_rule(probability_field)
        for rule in (bayes_rule, maximum_likelihood_rule, interpolated_rule):
            decoded = rule(probability_field, priors=priors, strength=1.0)
            np.testing.assert_array_equal(decoded, expected)
