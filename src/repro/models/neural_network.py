"""Shallow neural networks with l2 penalisation.

Section III of the paper uses "shallow neural networks with l2-penalization"
as meta classifiers and regressors.  We implement a small fully-connected
network (one or two hidden layers, ReLU activations) trained with mini-batch
Adam and weight decay, entirely in numpy.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.models.base import ClassifierMixin, RegressorMixin, check_is_fitted
from repro.models.logistic import _sigmoid
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_binary_labels, check_feature_matrix, check_vector


class _BaseMLP:
    """Shared forward/backward machinery for the shallow networks."""

    def __init__(
        self,
        hidden_layer_sizes: Sequence[int] = (32,),
        l2_penalty: float = 1e-3,
        learning_rate: float = 1e-2,
        n_epochs: int = 200,
        batch_size: int = 64,
        random_state: RandomState = 0,
    ) -> None:
        sizes = tuple(int(s) for s in hidden_layer_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("hidden_layer_sizes must be a non-empty tuple of positive ints")
        if l2_penalty < 0:
            raise ValueError("l2_penalty must be non-negative")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if n_epochs < 1 or batch_size < 1:
            raise ValueError("n_epochs and batch_size must be >= 1")
        self.hidden_layer_sizes = sizes
        self.l2_penalty = float(l2_penalty)
        self.learning_rate = float(learning_rate)
        self.n_epochs = int(n_epochs)
        self.batch_size = int(batch_size)
        self.random_state = random_state
        self.weights_: List[np.ndarray] = None
        self.biases_: List[np.ndarray] = None
        self.loss_curve_: List[float] = []

    # ------------------------------------------------------------------ ---
    def _init_parameters(self, n_features: int, rng: np.random.Generator) -> None:
        layer_sizes = (n_features,) + self.hidden_layer_sizes + (1,)
        self.weights_ = []
        self.biases_ = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights_.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases_.append(np.zeros(fan_out))

    def _forward(self, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Forward pass returning the output and all post-activation layers."""
        activations = [x]
        hidden = x
        for weight, bias in zip(self.weights_[:-1], self.biases_[:-1]):
            hidden = np.maximum(0.0, hidden @ weight + bias)
            activations.append(hidden)
        output = hidden @ self.weights_[-1] + self.biases_[-1]
        return output.ravel(), activations

    def _backward(
        self, activations: List[np.ndarray], output_grad: np.ndarray
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Backward pass; *output_grad* is dLoss/dOutput per sample."""
        weight_grads = [None] * len(self.weights_)
        bias_grads = [None] * len(self.biases_)
        delta = output_grad.reshape(-1, 1)
        for layer in range(len(self.weights_) - 1, -1, -1):
            weight_grads[layer] = activations[layer].T @ delta + self.l2_penalty * self.weights_[layer]
            bias_grads[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights_[layer].T) * (activations[layer] > 0)
        return weight_grads, bias_grads

    def _fit_loop(self, x: np.ndarray, y: np.ndarray, loss_and_grad) -> None:
        rng = as_rng(self.random_state)
        self._init_parameters(x.shape[1], rng)
        n_samples = x.shape[0]
        # Adam state.
        m_w = [np.zeros_like(w) for w in self.weights_]
        v_w = [np.zeros_like(w) for w in self.weights_]
        m_b = [np.zeros_like(b) for b in self.biases_]
        v_b = [np.zeros_like(b) for b in self.biases_]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        self.loss_curve_ = []
        for _ in range(self.n_epochs):
            order = rng.permutation(n_samples)
            epoch_loss = 0.0
            for start in range(0, n_samples, self.batch_size):
                batch = order[start : start + self.batch_size]
                output, activations = self._forward(x[batch])
                loss, output_grad = loss_and_grad(y[batch], output)
                epoch_loss += loss * batch.size
                weight_grads, bias_grads = self._backward(activations, output_grad / batch.size)
                step += 1
                for layer in range(len(self.weights_)):
                    m_w[layer] = beta1 * m_w[layer] + (1 - beta1) * weight_grads[layer]
                    v_w[layer] = beta2 * v_w[layer] + (1 - beta2) * weight_grads[layer] ** 2
                    m_b[layer] = beta1 * m_b[layer] + (1 - beta1) * bias_grads[layer]
                    v_b[layer] = beta2 * v_b[layer] + (1 - beta2) * bias_grads[layer] ** 2
                    m_w_hat = m_w[layer] / (1 - beta1**step)
                    v_w_hat = v_w[layer] / (1 - beta2**step)
                    m_b_hat = m_b[layer] / (1 - beta1**step)
                    v_b_hat = v_b[layer] / (1 - beta2**step)
                    self.weights_[layer] -= self.learning_rate * m_w_hat / (np.sqrt(v_w_hat) + eps)
                    self.biases_[layer] -= self.learning_rate * m_b_hat / (np.sqrt(v_b_hat) + eps)
            self.loss_curve_.append(epoch_loss / n_samples)

    def _raw_output(self, x: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "weights_")
        x = check_feature_matrix(x, allow_empty=True)
        if x.shape[1] != self.weights_[0].shape[0]:
            raise ValueError(f"expected {self.weights_[0].shape[0]} features, got {x.shape[1]}")
        output, _ = self._forward(x)
        return output

    # ------------------------------------------------------------------ ---
    def to_state(self) -> dict:
        """JSON-serialisable fitted state (bitwise-exact round-trip)."""
        check_is_fitted(self, "weights_")
        from repro.models.state import encode_array, serializable_seed

        try:
            seed = serializable_seed(self.random_state)
        except TypeError:
            seed = None
        return {
            "type": type(self).__name__,
            "params": {
                "hidden_layer_sizes": list(self.hidden_layer_sizes),
                "l2_penalty": self.l2_penalty,
                "learning_rate": self.learning_rate,
                "n_epochs": self.n_epochs,
                "batch_size": self.batch_size,
                "random_state": seed,
            },
            "weights": [encode_array(w) for w in self.weights_],
            "biases": [encode_array(b) for b in self.biases_],
            "loss_curve": list(self.loss_curve_),
        }

    @classmethod
    def from_state(cls, state: dict):
        """Rebuild a fitted network from its :meth:`to_state` form."""
        from repro.models.state import decode_array, expect_state_type

        expect_state_type(state, cls)
        params = dict(state["params"])
        params["hidden_layer_sizes"] = tuple(params["hidden_layer_sizes"])
        model = cls(**params)
        model.weights_ = [decode_array(w) for w in state["weights"]]
        model.biases_ = [decode_array(b) for b in state["biases"]]
        model.loss_curve_ = [float(value) for value in state["loss_curve"]]
        return model


class MLPRegressor(_BaseMLP, RegressorMixin):
    """Shallow l2-penalised neural network for regression (squared loss)."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        """Fit on continuous targets."""
        x = check_feature_matrix(x)
        y = check_vector(y, n=x.shape[0])

        def _loss_and_grad(target, output):
            diff = output - target
            return float(np.mean(diff**2)), 2.0 * diff

        self._fit_loop(x, y, _loss_and_grad)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict continuous targets."""
        return self._raw_output(x)


class MLPClassifier(_BaseMLP, ClassifierMixin):
    """Shallow l2-penalised neural network for binary classification."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        """Fit on binary 0/1 labels with the logistic loss."""
        x = check_feature_matrix(x)
        y = check_binary_labels(y).astype(np.float64)
        if y.shape[0] != x.shape[0]:
            raise ValueError("X and y must have the same number of samples")

        def _loss_and_grad(target, output):
            p = np.clip(_sigmoid(output), 1e-12, 1 - 1e-12)
            loss = float(-np.mean(target * np.log(p) + (1 - target) * np.log(1 - p)))
            return loss, p - target

        self._fit_loop(x, y, _loss_and_grad)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Probability of the positive class."""
        return _sigmoid(self._raw_output(x))

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(x) >= threshold).astype(np.int64)
