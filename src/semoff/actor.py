"""Model-free half of the policy search: a small feedforward network maps
the observed state to relaxed association scores, a top-k quantizer turns
scores into feasible binary policies, and the network is trained on the
critic's chosen policies with binary cross-entropy.

The network is plain numpy with hand-written backpropagation for this fixed
architecture (rectifier hidden layers, sigmoid output) and a momentum-free
adaptive-moment update (squared-gradient running average).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import SlotState, SystemConfig

_LOG_CLIP = 1e-7


def gain_features(h2_edge, h2_cloud, cfg: SystemConfig) -> np.ndarray:
    """`featurize`'s two channel-gain features of (slots, I) gains, as
    (slots, I, 2): each gain in dB, shifted and scaled per config."""
    tr = cfg.training
    ge = 10.0 * np.log10(np.maximum(h2_edge, 1e-30)) - tr.feature_gain_offset_edge_db
    gc = 10.0 * np.log10(np.maximum(h2_cloud, 1e-30)) - tr.feature_gain_offset_cloud_db
    return np.stack([ge / tr.feature_gain_scale_db, gc / tr.feature_gain_scale_db], axis=2)


def featurize(gains: np.ndarray, state: SlotState, cfg: SystemConfig) -> np.ndarray:
    """Per-device block of six normalised features, concatenated: the slot's
    (I, 2) row of `gain_features`, which a run computes once per block of
    slots (a row of the block's `log10` has the bits of the call on the
    row), then the four queues scaled by a fixed reference length."""
    return np.concatenate((gains, state.queues.T / cfg.training.feature_queue_ref),
                          axis=1).reshape(-1)


def cross_entropy(out: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy per component of network outputs `out`
    (one vector or a batch) against labels `y`, outputs clipped away from
    0 and 1."""
    out = np.minimum(np.maximum(out, _LOG_CLIP), 1.0 - _LOG_CLIP)
    terms = y * np.log(out) + (1.0 - y) * np.log(1.0 - out)
    return float(-(np.add.reduce(terms, axis=None) / terms.size))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))
    denom = 1.0 + ez
    return np.where(z >= 0, 1.0 / denom, ez / denom)


class ActorNetwork:
    """Fixed-shape multilayer perceptron with sigmoid outputs in (0, 1)."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights
        self.biases = biases

    @classmethod
    def create(cls, num_devices: int, hidden_sizes: tuple[int, ...],
               rng: np.random.Generator) -> "ActorNetwork":
        sizes = [6 * num_devices, *hidden_sizes, 2 * num_devices]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Outputs for a single feature vector or a (B, in) batch."""
        out = _sigmoid(self._pre_sigmoid(x[None] if x.ndim == 1 else x, None))
        return out[0] if x.ndim == 1 else out

    def _pre_sigmoid(self, x: np.ndarray, activations: list | None) -> np.ndarray:
        """The output layer's pre-sigmoid values for a (B, in) batch, each
        bias added and each rectifier applied in place on its layer's fresh
        product, so `x` is never written. Appends each hidden layer's
        output to `activations` when given."""
        a = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = a @ w
            a += b
            np.maximum(a, 0.0, out=a)
            if activations is not None:
                activations.append(a)
        z = a @ self.weights[-1]
        z += self.biases[-1]
        return z

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean binary cross-entropy per output component."""
        return cross_entropy(self.forward(x), y)

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray
                      ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        """Exact gradients of the clipped mean cross-entropy."""
        x = x[None] if x.ndim == 1 else x
        activations = [x]
        out = _sigmoid(self._pre_sigmoid(x, activations))

        loss = cross_entropy(out, y)

        # d(loss)/d(pre-sigmoid); the clip zeroes the gradient where active.
        # np.where, not a product with the mask: the product would turn the
        # zeroed +0.0 into -0.0 wherever the error is negative.
        inside = (out > _LOG_CLIP) & (out < 1.0 - _LOG_CLIP)
        err = out - y
        err *= 1.0 / y.size
        delta = np.where(inside, err, 0.0)

        grads_w: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        grads_b: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ self.weights[layer].T
                delta *= activations[layer] > 0
        return loss, grads_w, grads_b


@dataclass
class AdaptiveMomentState:
    """Running squared-gradient averages for the momentum-free update.

    The slow decay deliberately skips bias correction: the small early
    averages give the first few hundred steps a larger effective rate,
    which helps the policy head converge within the training budget.
    """

    decay: float = 0.999
    eps: float = 1e-8
    cache_w: list[np.ndarray] = field(default_factory=list)
    cache_b: list[np.ndarray] = field(default_factory=list)

    def step(self, net: ActorNetwork, grads_w: list[np.ndarray],
             grads_b: list[np.ndarray], lr: float) -> None:
        if not self.cache_w:
            self.cache_w = [np.zeros_like(w) for w in net.weights]
            self.cache_b = [np.zeros_like(b) for b in net.biases]
        params = (*net.weights, *net.biases)
        for param, cache, grad in zip(params, (*self.cache_w, *self.cache_b),
                                      (*grads_w, *grads_b)):
            # cache <- decay * cache + (1 - decay) * grad**2, then
            # param -= lr * grad / (sqrt(cache) + eps), in place
            cache *= self.decay
            term = grad * grad
            term *= 1 - self.decay
            cache += term
            np.sqrt(cache, out=term)
            term += self.eps
            update = grad * lr
            update /= term
            param -= update


class ReplayMemory:
    """Ring buffer of (features, chosen-policy bits) pairs; oldest overwritten first."""

    def __init__(self, capacity: int, feature_dim: int, label_dim: int):
        self.capacity = capacity
        self.features = np.zeros((capacity, feature_dim))
        self.labels = np.zeros((capacity, label_dim))
        self.size = 0
        self.cursor = 0

    def add(self, features: np.ndarray, label: np.ndarray) -> None:
        self.features[self.cursor] = features
        self.labels[self.cursor] = label
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.choice(self.size, size=batch_size, replace=False)
        return self.features[idx], self.labels[idx]


def relaxed_policy(net: ActorNetwork, features: np.ndarray) -> np.ndarray:
    """The (2I,) relaxed association scores in (0, 1) for one feature vector:
    the I edge scores, then the I cloud scores."""
    return net.forward(features)


@functools.lru_cache(maxsize=16)
def _candidate_grids(rows: int, n: int, k_edge: int, k_cloud: int
                     ) -> tuple[np.ndarray, np.ndarray, np.dtype]:
    """Read-only: each (row, half)'s flat offset in (rows, 2, n) masks, per
    half whether rank j < k, and the void dtype of one mask row's bytes."""
    return (np.broadcast_to(np.arange(0, 2 * rows * n, n).reshape(rows, 2, 1), (rows, 2, 1)),
            np.broadcast_to(np.arange(n) < np.array([[k_edge], [k_cloud]]), (2, n)),
            np.dtype((np.void, 2 * n)))


def generate_candidates(scores: np.ndarray, num_candidates: int,
                        rng: np.random.Generator, cfg: SystemConfig
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Up to `num_candidates` distinct policies as read-only (P, I) mask
    arrays, from `relaxed_policy`'s (2I,) scores.

    The noiseless quantization always comes first; the rest quantize
    Gaussian-perturbed scores. Duplicates keep their first occurrence, and
    the noise stream advances a fixed number of draws regardless of
    deduplication so replays are stable.

    One stable argsort ranks all (P, 2, I) negated scores (-(s + z) is
    (-s) - z bit for bit), one scatter marks ranks below k, and a dict keeps
    each mask row's first occurrence, read back from its bytes.
    """
    n = len(scores) // 2
    neg = np.empty((num_candidates, 2, n))
    np.negative(scores.reshape(2, n), out=neg[0])
    if num_candidates > 1:
        np.subtract(neg[0], rng.normal(0.0, cfg.training.candidate_noise_std,
                                       size=(num_candidates - 1, 2, n)), out=neg[1:])
    offsets, top, row_bytes = _candidate_grids(num_candidates, n, cfg.system.chi_edge,
                                               cfg.system.chi_cloud)
    order = np.argsort(neg, axis=2, kind="stable")
    order += offsets
    masks = np.empty(neg.shape, dtype=bool)
    masks.reshape(-1)[order] = top
    rows = masks.reshape(num_candidates, 2 * n).view(row_bytes)
    kept = np.frombuffer(b"".join(dict.fromkeys(rows.reshape(-1).tolist())), dtype=bool)
    kept = kept.reshape(-1, 2, n)
    return kept[:, 0], kept[:, 1]


def train_step(net: ActorNetwork, opt: AdaptiveMomentState, memory: ReplayMemory,
               batch_size: int, learning_rate: float,
               rng: np.random.Generator) -> float | None:
    """One gradient step on a uniform batch; returns the pre-step loss.

    No-op (returns None) when the memory holds fewer pairs than a batch.
    """
    if memory.size < batch_size:
        return None
    x, y = memory.sample(batch_size, rng)
    loss, grads_w, grads_b = net.loss_and_grad(x, y)
    opt.step(net, grads_w, grads_b, learning_rate)
    return loss

