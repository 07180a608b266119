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

from .config import Policy, RelaxedPolicy, SlotState, SystemConfig

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
    queues = np.stack([state.q_local, state.q_edge, state.z_local, state.z_edge], axis=1)
    return np.concatenate((gains, queues / cfg.training.feature_queue_ref), axis=1).reshape(-1)


def cross_entropy(out: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy per component of network outputs `out`
    (one vector or a batch) against labels `y`, outputs clipped away from
    0 and 1."""
    out = np.clip(np.atleast_2d(out), _LOG_CLIP, 1.0 - _LOG_CLIP)
    y = np.atleast_2d(y)
    return float(-np.mean(y * np.log(out) + (1.0 - y) * np.log(1.0 - out)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


class ActorNetwork:
    """Fixed-shape multilayer perceptron with sigmoid outputs in (0, 1)."""

    FORMAT_VERSION = 1

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

    @property
    def sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Outputs for a single feature vector or a (B, in) batch."""
        a = np.atleast_2d(x)
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        out = _sigmoid(a @ self.weights[-1] + self.biases[-1])
        return out[0] if np.ndim(x) == 1 else out

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean binary cross-entropy per output component."""
        return cross_entropy(self.forward(x), y)

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray
                      ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        """Exact gradients of the clipped mean cross-entropy."""
        x = np.atleast_2d(x)
        y = np.atleast_2d(y)
        activations = [x]
        a = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
            activations.append(a)
        out = _sigmoid(a @ self.weights[-1] + self.biases[-1])

        loss = cross_entropy(out, y)

        scale = 1.0 / y.size
        # d(loss)/d(pre-sigmoid); the clip zeroes the gradient where active
        inside = (out > _LOG_CLIP) & (out < 1.0 - _LOG_CLIP)
        delta = np.where(inside, (out - y) * scale, 0.0)

        grads_w: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        grads_b: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (activations[layer] > 0)
        return loss, grads_w, grads_b

    def save(self, path) -> None:
        arrays = {"format_version": np.array(self.FORMAT_VERSION),
                  "sizes": np.array(self.sizes)}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "ActorNetwork":
        data = np.load(path)
        version = int(data["format_version"])
        if version != cls.FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        n_layers = len(data["sizes"]) - 1
        weights = [data[f"w{i}"] for i in range(n_layers)]
        biases = [data[f"b{i}"] for i in range(n_layers)]
        return cls(weights, biases)


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
        for i in range(len(net.weights)):
            self.cache_w[i] = self.decay * self.cache_w[i] + (1 - self.decay) * grads_w[i] ** 2
            self.cache_b[i] = self.decay * self.cache_b[i] + (1 - self.decay) * grads_b[i] ** 2
            net.weights[i] -= lr * grads_w[i] / (np.sqrt(self.cache_w[i]) + self.eps)
            net.biases[i] -= lr * grads_b[i] / (np.sqrt(self.cache_b[i]) + self.eps)


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


def relaxed_policy(net: ActorNetwork, features: np.ndarray,
                   num_devices: int) -> RelaxedPolicy:
    out = net.forward(features)
    return RelaxedPolicy(rho_hat_edge=out[:num_devices],
                         rho_hat_cloud=out[num_devices:], scores=out)


def top_k_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask selecting the k largest entries, lowest index on ties."""
    mask = np.zeros(len(values), dtype=bool)
    if k > 0:
        order = np.argsort(-values, kind="stable")
        mask[order[:k]] = True
    return mask


def quantize(relaxed: RelaxedPolicy, cfg: SystemConfig) -> Policy:
    """Order-preserving quantization: top-chi scores per server become ones."""
    return Policy(rho_edge=top_k_mask(relaxed.rho_hat_edge, cfg.chi_edge_eff),
                  rho_cloud=top_k_mask(relaxed.rho_hat_cloud, cfg.chi_cloud_eff))


@functools.lru_cache(maxsize=16)
def _candidate_grids(rows: int, n: int, k_edge: int, k_cloud: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only: each (row, half)'s flat offset in (rows, 2, n) masks, and
    per half whether rank j < k."""
    return (np.broadcast_to(np.arange(0, 2 * rows * n, n).reshape(rows, 2, 1), (rows, 2, 1)),
            np.broadcast_to(np.arange(n) < np.array([[k_edge], [k_cloud]]), (2, n)))


def generate_candidates(relaxed: RelaxedPolicy, num_candidates: int,
                        rng: np.random.Generator, cfg: SystemConfig
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Up to `num_candidates` distinct policies as read-only (P, I) mask arrays.

    The noiseless quantization always comes first; the rest quantize
    Gaussian-perturbed scores. Duplicates keep their first occurrence, and
    the noise stream advances a fixed number of draws regardless of
    deduplication so replays are stable.

    One stable argsort ranks all (P, 2, I) negated scores (-(s + z) is
    (-s) - z bit for bit), one scatter marks ranks below k, and a dict keeps
    each mask row's first occurrence, read back from its bytes.
    """
    n = len(relaxed.rho_hat_edge)
    neg = np.empty((num_candidates, 2, n))
    np.negative(relaxed.rho_hat_edge, out=neg[0, 0])
    np.negative(relaxed.rho_hat_cloud, out=neg[0, 1])
    if num_candidates > 1:
        np.subtract(neg[0], rng.normal(0.0, cfg.training.candidate_noise_std,
                                       size=(num_candidates - 1, 2, n)), out=neg[1:])
    offsets, top = _candidate_grids(num_candidates, n, cfg.chi_edge_eff, cfg.chi_cloud_eff)
    order = np.argsort(neg, axis=2, kind="stable")
    order += offsets
    masks = np.empty(neg.shape, dtype=bool)
    masks.reshape(-1)[order] = top
    rows = masks.reshape(num_candidates, 2 * n).view(np.dtype((np.void, 2 * n)))
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

