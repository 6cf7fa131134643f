"""Simulator and analysis engine for side-channel-free QKD with phase
post-selection: Monte Carlo session simulation, expected-value modelling,
parameter estimation and asymptotic key rates."""

from .channelsim import (
    ChannelModel,
    ProtocolParams,
    SessionTallies,
    SimulationResult,
    arm_transmittance,
    click_probabilities,
    expected_tallies,
    simulate_session,
)
from .dataio import RawTallies, load_raw_tallies, write_raw_tallies
from .defaults import bundled_tally_path, reference_model, reference_params
from .estimator import KeyRateReport
from .keyrate import OptimizeResult, SweepPoint, analyze_tallies, key_length, key_rate
from .phasecore import binary_entropy, interfere, minor_angle
from .postselect import StateCoefficients, posterior_state

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "KeyRateReport",
    "OptimizeResult",
    "ProtocolParams",
    "RawTallies",
    "SessionTallies",
    "SimulationResult",
    "StateCoefficients",
    "SweepPoint",
    "analyze_tallies",
    "arm_transmittance",
    "binary_entropy",
    "bundled_tally_path",
    "click_probabilities",
    "expected_tallies",
    "interfere",
    "key_length",
    "key_rate",
    "load_raw_tallies",
    "minor_angle",
    "posterior_state",
    "reference_model",
    "reference_params",
    "simulate_session",
    "write_raw_tallies",
    "__version__",
]
