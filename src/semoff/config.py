"""Configuration, domain types, units, and validation shared by every module.

Unit conventions used throughout the package:

* time in seconds, frequencies in Hz, bandwidth in Hz
* powers in W, noise power spectral density in W/Hz
* task sizes in FLOP, queue lengths in tasks (real-valued, fluid model)
* channel gains as linear magnitude-squared values, SNR curves in dB

Queue lengths are real-valued because the execution-rate formulas are
continuous in the clock frequencies; arrivals stay integer Poisson draws.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

if TYPE_CHECKING:
    from .power import Coefficients


class ConfigError(ValueError):
    """Raised for malformed config files: unknown keys, a group that is not
    an object, a bad scenario setting. `validate_config` reports the rest;
    a config refused on its report raises this with one problem a line."""


# -174 dBm/Hz thermal noise floor expressed in W/Hz.
NOISE_PSD_DEFAULT = 10.0 ** (-174.0 / 10.0) * 1e-3
# 20 dBm transmit-power ceiling expressed in W.
P_TX_MAX_DEFAULT = 10.0 ** (20.0 / 10.0) * 1e-3


class _Group:
    """Base of the four parameter groups. Stores a JSON list or int as its
    field's tuple or float, so numpy sees floats (10**20 as an int makes an
    object array); an int too large for a float is left to `validate_config`."""

    def __post_init__(self) -> None:
        for name, admits, *_ in _FIELDS[type(self)]:
            value = getattr(self, name)
            if type(value) is list and tuple in admits:
                object.__setattr__(self, name, tuple(value))
            elif type(value) is int and float in admits:
                with contextlib.suppress(OverflowError):
                    object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class SystemParams(_Group):
    """Device counts, queue caps, compute hardware, and solver weights."""

    num_devices: int = 8
    slot_length: float = 0.01            # s
    lyapunov_v: float = 2.0              # queue-vs-power preference weight
    arrival_rate_per_sec: float = 100.0  # Poisson mean, tasks/s per device
    q_max_local: Optional[float] = 20.0  # tasks; None = unbounded
    q_max_edge: Optional[float] = 5.0    # tasks; None = unbounded
    chi_edge: int = 4                    # devices served by the edge server, <= num_devices
    chi_cloud: int = 2                   # devices served by the cloud server, <= num_devices
    f_local_max: float = 1.2e9           # Hz
    f_edge_max: float = 1.41e9           # Hz
    flops_per_cycle_local: float = 2048.0
    flops_per_cycle_edge: float = 6912.0
    alpha_local: float = 5.787e-26       # W/Hz^3
    alpha_edge_weighted: float = 4.45e-26  # W/Hz^3, fairness weight folded in
    task_flops_encode: float = 1.2e9     # FLOP/task
    task_flops_decode: float = 3.6e9     # FLOP/task

    @property
    def task_flops_total(self) -> float:
        """FLOP/task executed locally: encode plus decode."""
        return self.task_flops_encode + self.task_flops_decode


@dataclass(frozen=True)
class ChannelParams(_Group):
    """Geometry, pathloss/fading parameters, bandwidths, radio limits."""

    bw_edge_total: float = 1e6           # Hz, shared uplink to the edge server
    bw_cloud_total: float = 5e4          # Hz, shared uplink to the cloud server
    noise_psd: float = NOISE_PSD_DEFAULT
    p_tx_max: float = P_TX_MAX_DEFAULT
    hotspot_radius_min: float = 50.0     # m
    hotspot_radius_max: float = 150.0    # m
    cloud_distance: float = 500.0        # m, base station offset from hotspot
    pathloss_intercept_db: float = 128.1  # urban-macro form: a + b*log10(d_km)
    pathloss_slope_db: float = 37.6
    rician_k_db: float = 3.0             # edge-link line-of-sight factor
    shadowing_std_db: float = 8.0        # cloud-link log-normal shadowing, redrawn per slot


@dataclass(frozen=True)
class SemanticParams(_Group):
    """Task/source statistics and the accuracy-vs-SNR surrogate curve."""

    sentence_len: float = 10.0           # words/task
    symbols_per_word: float = 24.0       # semantic symbols/word
    bits_per_word: float = 40.0          # conventional source coding bits/word
    epsilon_min: float = 0.9             # accuracy floor for edge offloading
    accuracy_ceiling: float = 0.985      # logistic curve asymptote
    accuracy_slope_per_db: float = 0.5
    accuracy_midpoint_db: float = 4.0


@dataclass(frozen=True)
class TrainingParams(_Group):
    """Actor network, replay memory, and run-length settings."""

    learning_rate: float = 1e-3
    memory_size: int = 1024
    batch_size: int = 128
    train_interval: int = 10             # slots between gradient steps
    train_start_slot: int = 256
    total_slots: int = 15000
    hidden_sizes: tuple[int, ...] = (120, 80)
    candidate_noise_std: float = 0.3
    # Feature normalisation constants (gains in dB, queues in tasks).
    feature_gain_offset_edge_db: float = -90.0
    feature_gain_offset_cloud_db: float = -115.0
    feature_gain_scale_db: float = 10.0
    feature_queue_ref: float = 10.0


@dataclass(frozen=True)
class SystemConfig:
    """Immutable bundle of all simulator parameters.

    Safe to share across threads once validated; every run-time type below
    is a plain value.
    """

    system: SystemParams = field(default_factory=SystemParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    semantic: SemanticParams = field(default_factory=SemanticParams)
    training: TrainingParams = field(default_factory=TrainingParams)

    @property
    def bandwidth_edge(self) -> float:
        """Per-device edge uplink bandwidth (equal split across slots)."""
        return self.channel.bw_edge_total / max(self.system.chi_edge, 1)

    @property
    def bandwidth_cloud(self) -> float:
        """Per-device cloud uplink bandwidth (equal split across slots)."""
        return self.channel.bw_cloud_total / max(self.system.chi_cloud, 1)

    @property
    def mean_arrivals_per_slot(self) -> float:
        return self.system.arrival_rate_per_sec * self.system.slot_length

    @functools.cached_property
    def coefficients(self) -> Coefficients:
        """The `power.Coefficients` of this config, built on first use and
        kept on the object (outside its fields), as a config never changes."""
        from .power import Coefficients   # power imports this module
        return Coefficients(self)


_NUMBER = frozenset({int, float})

# The exact types each field annotation of the parameter groups admits, and
# how to name them: JSON allows any type, and bool is a subclass of int.
# An annotation missing here fails at import, so no field goes unchecked.
_ADMITS = {
    "int": (frozenset({int}), "an integer"),
    "float": (_NUMBER, "a number"),
    "Optional[float]": (_NUMBER | {type(None)}, "a number or null"),
    "tuple[int, ...]": (frozenset({tuple}), "a list of integers"),
}

# Each field's range in interval notation: a bracket closes its end, a
# parenthesis opens it, and inf is no bound. A null passes where the type
# admits it, and a list's range holds for each entry. A field missing here
# fails at import, so no field goes unchecked.
_RANGES = {
    # system
    "num_devices": "[1, inf)", "slot_length": "(0, inf)", "lyapunov_v": "(0, inf)",
    "arrival_rate_per_sec": "[0, inf)", "q_max_local": "(0, inf)", "q_max_edge": "(0, inf)",
    "chi_edge": "[0, inf)", "chi_cloud": "[0, inf)", "f_local_max": "(0, inf)",
    "f_edge_max": "(0, inf)", "flops_per_cycle_local": "(0, inf)",
    "flops_per_cycle_edge": "(0, inf)", "alpha_local": "(0, inf)",
    "alpha_edge_weighted": "(0, inf)", "task_flops_encode": "(0, inf)",
    "task_flops_decode": "(0, inf)",
    # channel
    "bw_edge_total": "(0, inf)", "bw_cloud_total": "(0, inf)", "noise_psd": "(0, inf)",
    "p_tx_max": "(0, inf)", "hotspot_radius_min": "(0, inf)", "hotspot_radius_max": "(0, inf)",
    "cloud_distance": "(0, inf)", "pathloss_intercept_db": "(-inf, inf)",
    "pathloss_slope_db": "(-inf, inf)", "rician_k_db": "(-inf, inf)",
    "shadowing_std_db": "[0, 100]",   # keeps 10 ** (30 sigma / 10) finite
    # semantic
    "sentence_len": "(0, inf)", "symbols_per_word": "(0, inf)", "bits_per_word": "(0, inf)",
    "epsilon_min": "(0, 1)", "accuracy_ceiling": "(0, 1]", "accuracy_slope_per_db": "(0, inf)",
    "accuracy_midpoint_db": "(-inf, inf)",
    # training
    "learning_rate": "(0, inf)", "memory_size": "[1, inf)", "batch_size": "[1, inf)",
    "train_interval": "[1, inf)", "train_start_slot": "[0, inf)", "total_slots": "[1, inf)",
    "hidden_sizes": "[1, inf)", "candidate_noise_std": "[0, inf)",
    "feature_gain_offset_edge_db": "(-inf, inf)", "feature_gain_offset_cloud_db": "(-inf, inf)",
    "feature_gain_scale_db": "(0, inf)", "feature_queue_ref": "(0, inf)",
}


def _open_ends(interval: str) -> tuple[float, float]:
    """(lo, hi) such that lo < x < hi holds exactly for the x in `interval`:
    a closed end moves one float outwards, which admits the same floats, and
    the same integers as every end is an integer."""
    lo, hi = map(float, interval[1:-1].split(", "))
    return (math.nextafter(lo, -math.inf) if interval[0] == "[" else lo,
            math.nextafter(hi, math.inf) if interval[-1] == "]" else hi)


# (name, admitted types, their name, open ends, range) for every field of each group
_FIELDS = {cls: [(f.name, *_ADMITS[f.type], *_open_ends(_RANGES[f.name]), _RANGES[f.name])
                 for f in dataclasses.fields(cls)]
           for cls in (SystemParams, ChannelParams, SemanticParams, TrainingParams)}


def validate_config(cfg: SystemConfig) -> list[str]:
    """Check every config invariant; returns one message per violation, each
    starting with the field or fields it concerns.

    Reports rather than throws so a caller can surface all problems at once.
    One pass checks each field's type and its `_RANGES` range; the range
    messages, and the rules across fields after them, are reported only once
    every type is right.
    """
    bad: list[str] = []
    out_of_range: dict[str, str] = {}
    for group in (cfg.system, cfg.channel, cfg.semantic, cfg.training):
        for name, admits, kind, lo, hi, interval in _FIELDS[type(group)]:
            value = getattr(group, name)
            t = type(value)
            if t not in admits or t is tuple and not all(type(x) is int for x in value):
                bad.append(f"{name}: must be {kind}, got {value!r}")
            elif t is int and float in admits:   # see `_Group`
                bad.append(f"{name}: must be {kind}, got an integer too large "
                           "for a float")
            elif t is tuple:
                if value and not (lo < min(value) and max(value) < hi):
                    out_of_range[name] = f"{name}: entries must lie in {interval}, got {value!r}"
            elif value is not None and not lo < value < hi:
                out_of_range[name] = f"{name}: must lie in {interval}, got {value!r}"
    if bad:
        return bad
    bad = list(out_of_range.values())

    def in_range(*names: str) -> bool:
        return out_of_range.keys().isdisjoint(names)

    sys_, ch, sem, tr = cfg.system, cfg.channel, cfg.semantic, cfg.training
    for name in ("chi_edge", "chi_cloud"):
        chi = getattr(sys_, name)
        if in_range(name) and chi > sys_.num_devices:   # out of [0, num_devices]
            out_of_range[name] = f"{name} exceeds device count ({chi} > {sys_.num_devices})"
            bad.append(out_of_range[name])
    if sys_.q_max_local is not None and sys_.q_max_local < cfg.mean_arrivals_per_slot:
        bad.append("q_max_local: must be at least the mean arrivals per slot "
                   f"({sys_.q_max_local} < {cfg.mean_arrivals_per_slot})")
    if sem.epsilon_min >= sem.accuracy_ceiling:
        bad.append("epsilon_min: must be below accuracy_ceiling")

    r_min, r_max, d_c = ch.hotspot_radius_min, ch.hotspot_radius_max, ch.cloud_distance
    a, b = ch.pathloss_intercept_db, ch.pathloss_slope_db
    if r_min >= r_max:
        bad.append("hotspot_radius_min, hotspot_radius_max: need min < max, "
                   f"got {r_min!r} and {r_max!r}")
    elif in_range("hotspot_radius_min", "hotspot_radius_max", "cloud_distance",
                  "pathloss_intercept_db", "pathloss_slope_db"):
        if r_min <= d_c <= r_max:   # devices come arbitrarily close to the cloud station
            bad.append(f"cloud_distance: must lie outside the hotspot ({r_min:g} to {r_max:g} m), "
                       f"where the pathloss gain has no bound, got {d_c!r}")
        else:   # `channel.pathloss_gain` (monotone) at the nearest and farthest device distances
            near, far = min(r_min, d_c - r_max if d_c > r_max else r_min - d_c), d_c + r_max
            try:
                g_near = 10.0 ** (-(a + b * math.log10(near / 1000.0)) / 10.0)
                g_far = 10.0 ** (-(a + b * math.log10(far / 1000.0)) / 10.0)
            except (OverflowError, ValueError):   # ValueError: near / 1000 rounds to 0
                g_near = g_far = math.inf
            if not (0 < g_near < math.inf and 0 < g_far < math.inf):
                bad.append("pathloss_intercept_db, pathloss_slope_db: must keep the pathloss "
                           f"gain finite and > 0 from {near:g} to {far:g} m, got {a!r} and {b!r}")
            elif in_range("bw_edge_total", "bw_cloud_total", "noise_psd", "p_tx_max",
                          "chi_edge", "chi_cloud"):   # the bandwidths divide by chi
                # the SNR at the power ceiling on each link, as `power.semantic_volume_cap`
                # and `power.cloud_offload_cap` divide it (a zero divisor is an inf SNR)
                p = ch.p_tx_max
                for link, bandwidth in (("edge", cfg.bandwidth_edge), ("cloud", cfg.bandwidth_cloud)):
                    noise = bandwidth * ch.noise_psd
                    if not (noise > 0 and 0 < p * g_near / noise < math.inf
                            and 0 < p * g_far / noise < math.inf):
                        snr = [p * g / noise if noise > 0 else math.inf for g in (g_near, g_far)]
                        bad.append(f"bw_{link}_total, p_tx_max, noise_psd, pathloss_intercept_db, "
                                   f"pathloss_slope_db: must keep the {link} link's SNR at p_tx_max "
                                   f"finite and > 0 from {near:g} to {far:g} m, got {snr[0]!r} "
                                   f"and {snr[1]!r}")
    try:
        10.0 ** (ch.rician_k_db / 10.0)   # the linear K factor
    except OverflowError:
        bad.append(f"rician_k_db: must keep 10 ** (rician_k_db / 10) finite, got {ch.rician_k_db!r}")
    if in_range("epsilon_min", "accuracy_slope_per_db") and sem.epsilon_min < sem.accuracy_ceiling:
        try:   # the linear SNR at the accuracy floor, as `power.semantic_tx_power` takes it
            10.0 ** ((sem.accuracy_midpoint_db - math.log(sem.accuracy_ceiling / sem.epsilon_min - 1.0)
                      / sem.accuracy_slope_per_db) / 10.0)
        except OverflowError:
            bad.append("accuracy_midpoint_db: must keep the SNR at epsilon_min finite, "
                       f"got {sem.accuracy_midpoint_db!r}")
    if tr.batch_size > tr.memory_size:
        bad.append("batch_size: must not exceed memory_size")
    if not tr.hidden_sizes:
        bad.append("hidden_sizes: must list at least one layer size")
    return bad


# ---------------------------------------------------------------------------
# Run-time value types
# ---------------------------------------------------------------------------

QUEUE_ROWS = ("q_local", "q_edge", "z_local", "z_edge")   # rows of a (4, I) queue array


def queue_row(row: int) -> property:
    """Row `row` of the owner's (4, I) `queues`, by its `QUEUE_ROWS` name: read
    as a view; set by copying into the row (only a row of the same length)."""
    name = QUEUE_ROWS[row]

    def put(self, value) -> None:
        if np.shape(value) != self.queues.shape[1:]:
            raise ValueError(f"{type(self).__name__}.{name}: expected length "
                             f"{self.queues.shape[1]}")
        self.queues[row] = value

    return property(lambda self: self.queues[row], put, doc=f"`queues[{row}]`")


@dataclass
class SlotState:
    """Observable state at the start of a slot: channels plus queue backlog.

    The queues are the rows of one C-contiguous (4, I) array: q_local and
    q_edge (tasks), then the virtual queues z_local and z_edge that enforce
    the mean queue caps. Each row is also a settable field by its name."""

    h2_edge: np.ndarray   # channel gains |h|^2, edge links
    h2_cloud: np.ndarray  # channel gains |h|^2, cloud links
    edge_cap: np.ndarray  # tasks/slot the links carry at the power ceiling:
    cloud_cap: np.ndarray  # `channel.link_caps` of the gains
    queues: np.ndarray    # (4, I): q_local, q_edge, z_local, z_edge

    q_local, q_edge, z_local, z_edge = map(queue_row, range(4))

    def check(self) -> None:
        n = len(self.h2_edge)
        for name in ("h2_cloud", "edge_cap", "cloud_cap"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"SlotState.{name}: expected length {n}")
        q = self.queues
        if q.shape != (4, n):
            raise ValueError(f"SlotState.queues: expected shape (4, {n})")
        # a NaN minimum fails the first test, +inf the second
        if np.minimum.reduce(q, axis=None) >= 0 and np.maximum.reduce(q, axis=None) < np.inf:
            return
        for name, v in zip(QUEUE_ROWS, q):
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                raise ValueError(f"SlotState.{name}: queues must be finite and >= 0")


@dataclass
class Policy:
    """Binary server-association choice per device."""

    rho_edge: np.ndarray   # bool, length I
    rho_cloud: np.ndarray  # bool, length I

    def key(self) -> tuple[int, int]:
        """Compact hashable form (bitmask per half, device 0 = LSB).

        Python ints, so any device count fits."""
        return _mask_int(self.rho_edge), _mask_int(self.rho_cloud)


def _mask_int(mask: np.ndarray) -> int:
    packed = np.packbits(np.asarray(mask, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# ---------------------------------------------------------------------------
# Structured-text config file handling
# ---------------------------------------------------------------------------

_GROUPS = {
    "system": SystemParams,
    "channel": ChannelParams,
    "semantic": SemanticParams,
    "training": TrainingParams,
}


def config_from_dict(data: dict[str, Any]) -> SystemConfig:
    """Build a SystemConfig from the parsed structured-text form.

    Top-level keys are the four parameter groups; a 'scenario' group is
    allowed and ignored here (see engine.scenario_from_dict). Unknown keys
    anywhere are an error; `validate_config` checks the values.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = set(data) - set(_GROUPS) - {"scenario"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    groups = {}
    for group, cls in _GROUPS.items():
        sub = data.get(group, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"'{group}' must be an object")
        unknown = set(sub) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown key(s) in '{group}': {sorted(unknown)}")
        groups[group] = cls(**sub)
    return SystemConfig(**groups)


def config_to_dict(cfg: SystemConfig) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for group in _GROUPS:
        d = dataclasses.asdict(getattr(cfg, group))
        if group == "training":
            d["hidden_sizes"] = list(d["hidden_sizes"])
        out[group] = d
    return out


def read_config_file(path: str | Path) -> Any:
    """A config file's parsed JSON, for `config_from_dict`."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    with open(p, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: {exc}") from exc


def load_config(path: str | Path) -> SystemConfig:
    """The file's four parameter groups, unvalidated; its `scenario` group
    holds run settings, not config values (`cli` resolves both)."""
    return config_from_dict(read_config_file(path))


def save_config(cfg: SystemConfig, path: str | Path,
                scenario_dict: Optional[dict[str, Any]] = None) -> None:
    data: dict[str, Any] = config_to_dict(cfg)
    if scenario_dict is not None:
        data["scenario"] = scenario_dict
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
