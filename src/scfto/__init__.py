"""Deterministic simulator of a secure trust-based clustering protocol for
industrial wireless sensor networks."""

__version__ = "0.1.0"

from .config import (AttackParams, ChannelEffects, ChannelParams, ConfigError,
                     ElectionParams, FLCConfig, JoinParams, OutlierParams,
                     RadioParams, SimConfig, load_config, parse_config_text)
from .fuzzy import FuzzyTrustEngine, type_reduce
from .network import NodeState, SimState, init_network
from .outlier import ConvergenceTracker, detect_threshold
from .phy import ChannelState, overhear_energy, rx_energy, sample_channel_state, tx_energy
from .protocol import RoundReport, run_round
from .trust import EvidenceCounters, Outcome, TrustTable

__all__ = [
    "AttackParams", "ChannelEffects", "ChannelParams", "ChannelState",
    "ConfigError", "ConvergenceTracker", "ElectionParams", "EvidenceCounters",
    "FLCConfig", "FuzzyTrustEngine", "JoinParams", "NodeState", "Outcome",
    "OutlierParams", "RadioParams", "RoundReport", "SimConfig", "SimState",
    "TrustTable", "detect_threshold", "init_network", "load_config",
    "overhear_energy", "parse_config_text", "run_round", "rx_energy",
    "sample_channel_state", "tx_energy", "type_reduce",
]
