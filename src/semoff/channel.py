"""Per-slot channel generation: pathloss, shadowing, and small-scale fading.

Large-scale gains are fixed once device positions are placed; small-scale
coefficients and cloud-link shadowing are redrawn every slot.
Slot draws must come from a generator derived per (seed, slot) so that
replays are order-independent; `slot_rng` builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig


@dataclass(frozen=True)
class LinkGeometry:
    """Planar device layout around the edge server plus distances to both servers."""

    positions: np.ndarray      # (I, 2) m, edge server at the origin
    d_edge: np.ndarray         # (I,) m
    d_cloud: np.ndarray        # (I,) m


@dataclass
class ChannelDraw:
    """One slot's channel gains |h|^2 for all devices."""

    h2_edge: np.ndarray    # pathloss times unit-mean-power Rician fading
    h2_cloud: np.ndarray   # pathloss, log-normal shadowing and Rayleigh fading


def slot_rng(seed: int, stream: int, slot: int) -> np.random.Generator:
    """Counter-style generator keyed by (seed, stream, slot)."""
    return np.random.default_rng(np.random.SeedSequence((seed, stream, slot)))


def pathloss_db(distance_m, cfg: SystemConfig):
    """Urban-macro pathloss in dB at the given distance in meters."""
    d_km = np.asarray(distance_m, dtype=float) / 1000.0
    return cfg.channel.pathloss_intercept_db + cfg.channel.pathloss_slope_db * np.log10(d_km)


def pathloss_gain(distance_m, cfg: SystemConfig):
    return 10.0 ** (-pathloss_db(distance_m, cfg) / 10.0)


def place_devices(cfg: SystemConfig, rng: np.random.Generator) -> LinkGeometry:
    """Drop devices uniformly (by area) in the hotspot annulus.

    The edge server sits at the origin; the cloud base station sits
    `cloud_distance` meters away on the x axis, so device-to-cloud
    distances spread around that value.
    """
    ch = cfg.channel
    n = cfg.system.num_devices
    r = np.sqrt(rng.uniform(ch.hotspot_radius_min ** 2, ch.hotspot_radius_max ** 2, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    positions = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    mcc = np.array([ch.cloud_distance, 0.0])
    d_cloud = np.linalg.norm(positions - mcc, axis=1)
    return LinkGeometry(positions=positions, d_edge=r, d_cloud=d_cloud)


def _rician(rng: np.random.Generator, n: int, k_db: float) -> np.ndarray:
    # Deterministic line-of-sight ray plus diffuse part, normalised to
    # E[|h|^2] = 1.
    k = 10.0 ** (k_db / 10.0)
    los = np.sqrt(k / (k + 1.0))
    diffuse = np.sqrt(1.0 / (k + 1.0))
    scatter = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return los + diffuse * scatter


def _rayleigh(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def draw_channels(geom: LinkGeometry, cfg: SystemConfig,
                  rng: np.random.Generator) -> ChannelDraw:
    """Draw one slot of channel gains."""
    n = len(geom.d_edge)
    g_edge = pathloss_gain(geom.d_edge, cfg)
    g_cloud = pathloss_gain(geom.d_cloud, cfg)
    htilde_edge = _rician(rng, n, cfg.channel.rician_k_db)
    htilde_cloud = _rayleigh(rng, n)
    shadow = 10.0 ** (rng.normal(0.0, cfg.channel.shadowing_std_db, n) / 10.0)
    return ChannelDraw(h2_edge=np.abs(np.sqrt(g_edge) * htilde_edge) ** 2,
                       h2_cloud=np.abs(np.sqrt(g_cloud * shadow) * htilde_cloud) ** 2)
