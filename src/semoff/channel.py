"""Per-slot channel generation: pathloss, shadowing, and small-scale fading.

Large-scale gains are fixed once device positions are placed; small-scale
coefficients and cloud-link shadowing are redrawn every slot, from a
generator derived per (seed, slot) (`slot_rng`) so that replays are
order-independent; `run_rng` builds the per-run streams.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import power
from .config import SlotState, SystemConfig


@dataclass(frozen=True)
class LinkGeometry:
    """Device distances to both servers and the channel terms fixed for the
    whole run: pathloss gains and Rician line-of-sight and diffuse amplitudes."""

    d_edge: np.ndarray         # (I,) m
    d_cloud: np.ndarray        # (I,) m
    sqrt_g_edge: np.ndarray    # (I,) square root of the edge pathloss gain
    g_cloud: np.ndarray        # (I,) cloud pathloss gain
    rician_los: float
    rician_diffuse: float


@dataclass
class ChannelDraw:
    """Channel gains |h|^2 and the link volume caps they allow, one row per
    slot and one column per device."""

    h2_edge: np.ndarray    # pathloss times unit-mean-power Rician fading
    h2_cloud: np.ndarray   # pathloss, log-normal shadowing and Rayleigh fading
    edge_cap: np.ndarray   # `power.semantic_volume_cap` of h2_edge
    cloud_cap: np.ndarray  # `power.cloud_offload_cap` of h2_cloud


@dataclass
class _SeedWords(ISeedSequence):
    """Hands `np.random.PCG64` its seed words; numpy's PCG64 seeding runs on them."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only 4 uint64 seed words are stored, not {n_words} {np.dtype(dtype)}")
        return self.words


@functools.lru_cache(maxsize=256)
def _run_words(seed: int, stream: int) -> np.ndarray:
    words = np.random.SeedSequence((seed, stream)).generate_state(4, np.uint64)
    words.flags.writeable = False
    return words


def run_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator keyed by (seed, stream): `default_rng(SeedSequence((seed, stream)))`."""
    return np.random.Generator(np.random.PCG64(_SeedWords(_run_words(seed, stream))))


@functools.lru_cache(maxsize=32)
def _slot_block_words(seed: int, stream: int, block: int) -> np.ndarray:
    """(1024, 4) PCG64 seed words of `SeedSequence((seed, stream, t))` for the
    slots t of one block: numpy's `mix_entropy` into the 4-word pool, then
    `generate_state(4, np.uint64)`, on uint32 arrays that wrap as its C does."""
    if min(seed, stream, block) < 0:
        raise ValueError(f"seed, stream and slot must be >= 0, got ({seed}, {stream}, block {block})")
    # keys split as SeedSequence splits them; in a block only the slot's low word varies
    seed_w, stream_w, slot_w = ([k >> s & 0xFFFFFFFF for s in range(0, max(k.bit_length(), 1), 32)]
                                for k in (seed, stream, block << 10))
    entropy = [np.full(1024, w, np.uint32) for w in seed_w + stream_w + slot_w]
    entropy[len(seed_w) + len(stream_w)] += np.arange(1024, dtype=np.uint32)
    hc = [0x43B0D7E5]   # the running hash constant

    def hashmix(v, mult=0x931E8875):
        v = v ^ hc[0]
        hc[0] = hc[0] * mult & 0xFFFFFFFF
        v = v * hc[0]
        return v ^ (v >> 16)

    def mix(x, y):
        r = x * 0xCA01F9DD - y * 0x4973F715
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0 * entropy[0]) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(word))
    hc[0] = 0x8B51F9DD
    state = np.stack([hashmix(pool[k % 4], 0x58F38DED) for k in range(8)], axis=1)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


def slot_rng(seed: int, stream: int, slot: int) -> np.random.Generator:
    """Generator keyed by (seed, stream, slot): `default_rng(SeedSequence((seed, stream, slot)))`."""
    words = _slot_block_words(seed, stream, slot >> 10)[slot & 1023]
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def pathloss_db(distance_m, cfg: SystemConfig):
    """Urban-macro pathloss in dB at the given distance in meters."""
    d_km = np.asarray(distance_m, dtype=float) / 1000.0
    return cfg.channel.pathloss_intercept_db + cfg.channel.pathloss_slope_db * np.log10(d_km)


def pathloss_gain(distance_m, cfg: SystemConfig):
    return 10.0 ** (-pathloss_db(distance_m, cfg) / 10.0)


def rician_amplitudes(k_db: float) -> tuple[float, float]:
    """Line-of-sight and diffuse amplitudes of Rician factor K (dB), E[|h|^2] = 1."""
    k = 10.0 ** (k_db / 10.0)
    return math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0))


def place_devices(cfg: SystemConfig, rng: np.random.Generator) -> LinkGeometry:
    """Drop devices uniformly (by area) in the hotspot annulus.

    The edge server sits at the origin; the cloud base station sits
    `cloud_distance` meters away on the x axis, so device-to-cloud
    distances spread around that value.
    """
    ch = cfg.channel
    n = cfg.system.num_devices
    d = np.empty((2, n))     # edge and cloud distances, for one pathloss call
    r, d_cloud = d
    np.sqrt(rng.uniform(ch.hotspot_radius_min ** 2, ch.hotspot_radius_max ** 2, n), out=r)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    x, y = r * np.cos(theta), r * np.sin(theta)
    dx = x - ch.cloud_distance
    # the Euclidean norm as np.linalg.norm computes it, bit for bit
    np.sqrt(dx * dx + y * y, out=d_cloud)
    g_edge, g_cloud = pathloss_gain(d, cfg)
    return LinkGeometry(r, d_cloud, np.sqrt(g_edge), g_cloud,
                        *rician_amplitudes(ch.rician_k_db))


def link_caps(h2_edge, h2_cloud, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Semantic-link and cloud offload volume caps of gains of any shape."""
    return (power.semantic_volume_cap(h2_edge, cfg.bandwidth_edge, cfg),
            power.cloud_offload_cap(h2_cloud, cfg.bandwidth_cloud, cfg))


def slot_state(cfg: SystemConfig, h2_edge, h2_cloud, q_local, q_edge,
               z_local, z_edge) -> SlotState:
    """A slot's state on bare gains, carrying the link caps they allow."""
    return SlotState(h2_edge, h2_cloud, *link_caps(h2_edge, h2_cloud, cfg),
                     q_local, q_edge, z_local, z_edge)


def _rayleigh(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return (re + 1j * im) / math.sqrt(2.0)


def draw_channels(geom: LinkGeometry, cfg: SystemConfig,
                  rngs: Iterable[np.random.Generator], slots: int = 1) -> ChannelDraw:
    """Draw `slots` slots of fading (Rician edge, Rayleigh cloud) and cloud
    shadowing, each slot's 5 I standard normals from the next of `rngs`, and
    compute the gains and link caps of all of them at once."""
    z = np.empty((slots, 5, len(geom.d_edge)))
    for rng, row in zip(rngs, z, strict=True):
        rng.standard_normal(out=row)
    h2_edge = np.abs(geom.sqrt_g_edge * (geom.rician_los + geom.rician_diffuse
                                         * _rayleigh(z[:, 0], z[:, 1]))) ** 2
    # `normal(0, std, n)` draws 0 + std * (a standard normal), bit for bit
    shadow = 10.0 ** (cfg.channel.shadowing_std_db * z[:, 4] / 10.0)
    h2_cloud = np.abs(np.sqrt(geom.g_cloud * shadow) * _rayleigh(z[:, 2], z[:, 3])) ** 2
    return ChannelDraw(h2_edge, h2_cloud, *link_caps(h2_edge, h2_cloud, cfg))
