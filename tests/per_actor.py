"""The actor arithmetic as it ran before the network computed in place, kept
as the tests' reference for `semoff.actor`.

Every product, bias add, rectifier and optimizer term allocates a fresh
array here, and the test loss goes through `np.clip`, `np.atleast_2d` and
`np.mean`. The in-place code runs the same float operations in the same
order, so the tests compare the two bit for bit, signed zeros included.
"""

from __future__ import annotations

import numpy as np

from semoff.actor import _LOG_CLIP, ActorNetwork


def cross_entropy(out: np.ndarray, y: np.ndarray) -> float:
    out = np.clip(np.atleast_2d(out), _LOG_CLIP, 1.0 - _LOG_CLIP)
    y = np.atleast_2d(y)
    return float(-np.mean(y * np.log(out) + (1.0 - y) * np.log(1.0 - out)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def forward(net: ActorNetwork, x: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(x)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    out = _sigmoid(a @ net.weights[-1] + net.biases[-1])
    return out[0] if np.ndim(x) == 1 else out


def loss_and_grad(net: ActorNetwork, x: np.ndarray, y: np.ndarray
                  ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    activations = [x]
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        activations.append(a)
    out = _sigmoid(a @ net.weights[-1] + net.biases[-1])

    loss = cross_entropy(out, y)

    scale = 1.0 / y.size
    inside = (out > _LOG_CLIP) & (out < 1.0 - _LOG_CLIP)
    delta = np.where(inside, (out - y) * scale, 0.0)

    grads_w: list[np.ndarray] = [np.empty(0)] * len(net.weights)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(net.biases)
    for layer in range(len(net.weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (activations[layer] > 0)
    return loss, grads_w, grads_b


class AdaptiveMomentState:
    """The optimizer with a fresh cache array per step."""

    def __init__(self, decay: float = 0.999, eps: float = 1e-8):
        self.decay = decay
        self.eps = eps
        self.cache_w: list[np.ndarray] = []
        self.cache_b: list[np.ndarray] = []

    def step(self, net: ActorNetwork, grads_w: list[np.ndarray],
             grads_b: list[np.ndarray], lr: float) -> None:
        if not self.cache_w:
            self.cache_w = [np.zeros_like(w) for w in net.weights]
            self.cache_b = [np.zeros_like(b) for b in net.biases]
        for i in range(len(net.weights)):
            self.cache_w[i] = self.decay * self.cache_w[i] + (1 - self.decay) * grads_w[i] ** 2
            self.cache_b[i] = self.decay * self.cache_b[i] + (1 - self.decay) * grads_b[i] ** 2
            net.weights[i] -= lr * grads_w[i] / (np.sqrt(self.cache_w[i]) + self.eps)
            net.biases[i] -= lr * grads_b[i] / (np.sqrt(self.cache_b[i]) + self.eps)


def bits(a) -> np.ndarray:
    """The raw bits of a float64 array or scalar, so that -0.0 != +0.0 and
    NaN payloads compare."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
