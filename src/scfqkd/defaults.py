"""Built-in defaults: the 50 km reference setup and its bundled dataset.

The package ships the raw count table of a 50 km laboratory run (25 km of
fibre per arm) together with the measured efficiency chain of that setup.
The constants below are the per-component power efficiencies; the model
builder lumps everything between source and beam splitter into the per-arm
component loss, and everything after the splitter into the per-channel
detector efficiency.

The interference model assumes an ideal 50:50 splitter, so the measured
splitter branch efficiencies (about 45 % per output instead of 50 %) are
folded into the detector efficiencies as an excess-loss factor relative to
the ideal half.
"""

from __future__ import annotations

import math
from importlib import resources

from .channelsim import ChannelModel, ProtocolParams
from .phasecore import check

# Measured characterization of the reference arms (power efficiencies).
FIBER_EFF_A = 0.316
FIBER_EFF_B = 0.310
POL_CTRL_EFF_A = 0.954
POL_CTRL_EFF_B = 0.967
CIRCULATOR_EFF_A = 0.834
CIRCULATOR_EFF_B = 0.870
POL_SPLITTER_EFF_A = 0.934
POL_SPLITTER_EFF_B = 0.956
SPLITTER_CH0_FROM_A = 0.453
SPLITTER_CH1_FROM_A = 0.435
SPLITTER_CH0_FROM_B = 0.455
SPLITTER_CH1_FROM_B = 0.448
DETECTOR_EFF_CH0 = 0.6052
DETECTOR_EFF_CH1 = 0.6261

REFERENCE_FIBER_KM_PER_ARM = 25.0
REFERENCE_ATTEN_DB_PER_KM = 0.2

REFERENCE_BOTH_SEND_QBER = (2647 + 315) / 50490
"""Wrong-port fraction of the bundled run's both-send detections at the
default 30 degree threshold; the sweep calibrates visibility against it."""


def _db(efficiency: float) -> float:
    return -10.0 * math.log10(efficiency)


def _arm_comp_loss_db(fiber_eff: float, *component_effs: float) -> float:
    """Lumped component loss of one arm beyond the nominal fibre budget."""
    chain = fiber_eff * math.prod(component_effs)
    nominal_fiber_db = REFERENCE_FIBER_KM_PER_ARM * REFERENCE_ATTEN_DB_PER_KM
    return _db(chain) - nominal_fiber_db


def _channel_det_eff(detector_eff: float, branch_from_a: float, branch_from_b: float) -> float:
    """Detector efficiency folding in the splitter's excess loss on that
    channel (measured branch efficiency relative to the ideal half)."""
    return detector_eff * (0.5 * (branch_from_a + branch_from_b)) / 0.5


def reference_params() -> ProtocolParams:
    """Protocol parameters of the reference run (also the dataclass defaults)."""
    return ProtocolParams()


def reference_model(total_km: float = 50.0) -> ChannelModel:
    """Channel model of the reference setup at a given total fibre length.

    Component losses, detector efficiencies, dark counts and drift stay at
    the characterized 50 km values; only the fibre length scales, split
    evenly between the arms.
    """
    check(total_km=total_km)
    return ChannelModel(
        fiber_km_a=0.5 * total_km,
        fiber_km_b=0.5 * total_km,
        atten_db_per_km=REFERENCE_ATTEN_DB_PER_KM,
        comp_loss_db_a=_arm_comp_loss_db(
            FIBER_EFF_A, POL_CTRL_EFF_A, CIRCULATOR_EFF_A, POL_SPLITTER_EFF_A
        ),
        comp_loss_db_b=_arm_comp_loss_db(
            FIBER_EFF_B, POL_CTRL_EFF_B, CIRCULATOR_EFF_B, POL_SPLITTER_EFF_B
        ),
        det_eff_left=_channel_det_eff(DETECTOR_EFF_CH0, SPLITTER_CH0_FROM_A, SPLITTER_CH0_FROM_B),
        det_eff_right=_channel_det_eff(DETECTOR_EFF_CH1, SPLITTER_CH1_FROM_A, SPLITTER_CH1_FROM_B),
    )


def bundled_tally_path() -> str:
    """Filesystem path of the bundled 50 km raw tally file."""
    return str(resources.files("scfqkd").joinpath("data/raw_tallies_50km.tsv"))
