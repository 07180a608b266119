"""Simulator and per-slot solvers for semantic-aware cloud-edge-end
computational offloading with Lyapunov-guided policy search."""

from .config import (ConfigError, Policy, SlotState, SystemConfig, load_config,
                     save_config, validate_config)
from .engine import (MetricsLog, Scenario, Simulation, run_scenario,
                     scenario_one, scenario_two, sweep)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "MetricsLog", "Policy", "Scenario", "Simulation",
    "SlotState", "SystemConfig",
    "load_config", "run_scenario", "save_config", "scenario_one",
    "scenario_two", "sweep", "validate_config", "__version__",
]
