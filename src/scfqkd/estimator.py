"""Parameter estimation from announced tallies.

The test set (announced bits) provides per-state counting rates; from them
the estimator derives the yield of the mismatched-send windows, the
phase-flip upper bound of the virtual X basis, and the measured bit-flip
error of the key set.  Detector sides are logical: ``L`` is the output port
that interferes brightly at zero phase difference, ``R`` the dark one.  Raw
data files record physical channels 0 and 1; the default mapping is
L = ch0, R = ch1 and can be swapped when building a :class:`TallySet`.

Counting-rate notation: for a subset (test or key) and joint state ab, the
rate is detections / announced windows of that state in the subset.  The
phase-flip bound combines an upper bound on the brightest X-basis yield
seen by detector R with a lower bound on the one seen by detector L:

    up = [e^-m * S00_R + S11_R / e^-m + (1 - e^-m)^2 / e^-m
          + 2*sqrt(S00_R * S11_R) + 2*(1 - e^-m)*sqrt(S00_R)
          + 2*(1 - e^-m)/e^-m * sqrt(S11_R)] / (2*(1 + e^-m))

    low = [e^-m * S00_L + S11_L / e^-m
           - 2*sqrt(S00_L * S11_L) - 2*(1 - e^-m)*sqrt(S00_L)
           - 2*(1 - e^-m)/e^-m * sqrt(S11_L)] / (2*(1 + e^-m)),  floored at 0

    e_ph <= [(1 + e^-m)*(up - low) + S01_L + S10_L] / (2 * s_z)

with m the signal mean photon number and s_z the mismatched-send yield.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .channelsim import STATE_LABELS, SessionTallies

DETECTORS = ("L", "R")


class EstimationError(ValueError):
    """Raised when a tally set lacks the cells an estimate needs."""


@dataclass
class TallySet:
    """Announced windows and detections of one subset (test or key).

    ``sent[state]`` counts announced windows by joint state;
    ``detected[(state, side)]`` counts effective windows by state and logical
    detector side.  Values may be floats for expected-value analyses.
    """

    sent: dict = field(default_factory=dict)
    detected: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for s, n in self.sent.items():
            if s not in STATE_LABELS or n < 0:
                raise ValueError(f"bad sent cell {s!r} = {n!r}")
        for (s, d), n in self.detected.items():
            if s not in STATE_LABELS or d not in DETECTORS or n < 0:
                raise ValueError(f"bad detected cell {(s, d)!r} = {n!r}")

    @classmethod
    def from_channel_counts(
        cls,
        sent: Mapping[str, float],
        detected_by_channel: Mapping,
        swap_detectors: bool = False,
    ) -> "TallySet":
        """Build a tally set from physical-channel counts.

        ``detected_by_channel`` is keyed by ``(state, channel)`` with channel
        0 or 1.  By default channel 0 is the bright-port detector L; pass
        ``swap_detectors=True`` for the opposite wiring.
        """
        side_of = {0: "R" if swap_detectors else "L", 1: "L" if swap_detectors else "R"}
        detected = {}
        for (s, ch), n in detected_by_channel.items():
            detected[(s, side_of[ch])] = detected.get((s, side_of[ch]), 0) + n
        return cls(sent=dict(sent), detected=detected)

    def n_detected(self, state: str) -> float:
        return self.detected.get((state, "L"), 0) + self.detected.get((state, "R"), 0)

    def total_detected(self) -> float:
        return sum(self.detected.values())

    def total_sent(self) -> float:
        return sum(self.sent.values())


def tallies_to_sets(tallies: SessionTallies, swap_detectors: bool = False):
    """Split session tallies into (test, key) estimator tally sets."""
    u = TallySet.from_channel_counts(tallies.sent_test, tallies.detected_test, swap_detectors)
    v = TallySet.from_channel_counts(tallies.sent_key, tallies.detected_key, swap_detectors)
    return u, v


@dataclass
class CountingRates:
    """Per-state and per-cell counting rates of one tally set.

    ``by_state[s]`` is detections/windows for state s; ``by_cell[(s, d)]``
    resolves the detector side.  States with no announced windows appear in
    ``missing`` and carry NaN rates.  ``error_rate`` is the fraction of
    detections coming from the matched-decision states ("00" and "11"),
    i.e. the bit-error fraction of this subset; None without detections.
    """

    by_state: dict
    by_cell: dict
    total: float
    error_rate: float | None
    missing: tuple

    def require(self, *cells) -> None:
        """Raise EstimationError unless every named cell has a finite rate."""
        bad = []
        for c in cells:
            r = self.by_cell[c] if isinstance(c, tuple) else self.by_state[c]
            if math.isnan(r):
                bad.append(c)
        if bad:
            raise EstimationError(f"no announced windows for cells: {bad}")


def counting_rates(t: TallySet) -> CountingRates:
    """Compute all per-state and per-cell counting rates of a tally set."""
    by_state = {}
    by_cell = {}
    missing = []
    for s in STATE_LABELS:
        n_sent = t.sent.get(s, 0)
        if n_sent > 0:
            by_state[s] = t.n_detected(s) / n_sent
            for d in DETECTORS:
                by_cell[(s, d)] = t.detected.get((s, d), 0) / n_sent
        else:
            missing.append(s)
            by_state[s] = math.nan
            for d in DETECTORS:
                by_cell[(s, d)] = math.nan
    total_sent = t.total_sent()
    total_det = t.total_detected()
    total = total_det / total_sent if total_sent > 0 else math.nan
    err = (t.n_detected("00") + t.n_detected("11")) / total_det if total_det > 0 else None
    for s in STATE_LABELS:
        r = by_state[s]
        if not math.isnan(r) and not 0.0 <= r <= 1.0:
            raise ValueError(f"counting rate out of [0, 1] for state {s}: {r}")
    return CountingRates(
        by_state=by_state,
        by_cell=by_cell,
        total=total,
        error_rate=err,
        missing=tuple(missing),
    )


def s_tilde_z(rate_bob_only: float, rate_alice_only: float) -> float:
    """Yield of the mismatched-send windows: the mean of the two single-send
    counting rates."""
    return 0.5 * (rate_bob_only + rate_alice_only)


def n_tilde_z(n_key_bob_only: float, n_key_alice_only: float, s_z: float) -> float:
    """Size of the raw key pool: twice the smaller single-send key-set count
    times the mismatched-send yield."""
    if n_key_bob_only < 0 or n_key_alice_only < 0:
        raise ValueError("announced key-set counts must be non-negative")
    return 2.0 * min(n_key_bob_only, n_key_alice_only) * s_z


def x_basis_upper_right(s00_right: float, s11_right: float, mu: float) -> float:
    """Upper bound on the bright X-basis yield at detector R."""
    _check_rates(s00_right=s00_right, s11_right=s11_right)
    em = math.exp(-mu)
    g = 1.0 - em
    val = (
        em * s00_right
        + s11_right / em
        + g * g / em
        + 2.0 * math.sqrt(s00_right * s11_right)
        + 2.0 * g * math.sqrt(s00_right)
        + (2.0 * g / em) * math.sqrt(s11_right)
    )
    return val / (2.0 * (1.0 + em))


def _x_lower_left_raw(s00_left: float, s11_left: float, mu: float) -> float:
    """Lower bound on the bright X-basis yield at detector L before the
    floor at 0; negative when the bound is vacuous."""
    _check_rates(s00_left=s00_left, s11_left=s11_left)
    em = math.exp(-mu)
    g = 1.0 - em
    val = (
        em * s00_left
        + s11_left / em
        - 2.0 * math.sqrt(s00_left * s11_left)
        - 2.0 * g * math.sqrt(s00_left)
        - (2.0 * g / em) * math.sqrt(s11_left)
    )
    return val / (2.0 * (1.0 + em))


def x_basis_lower_left(s00_left: float, s11_left: float, mu: float) -> float:
    """Lower bound on the bright X-basis yield at detector L, floored at 0."""
    return max(0.0, _x_lower_left_raw(s00_left, s11_left, mu))


def _check_rates(**rates) -> None:
    for name, r in rates.items():
        if math.isnan(r) or not 0.0 <= r <= 1.0:
            raise EstimationError(f"{name} must be a rate in [0, 1], got {r!r}")


@dataclass(frozen=True)
class PhaseFlipBound:
    """Phase-flip error upper bound with its ingredients.

    ``value`` is the raw bound; ``flagged`` marks a bound at or beyond 0.5,
    where no key can be distilled.  ``lower_clamped`` records whether the
    detector-L lower bound was floored at zero.
    """

    value: float
    x_upper_right: float
    x_lower_left: float
    lower_clamped: bool
    flagged: bool


def phase_flip_upper(
    s00_left: float,
    s00_right: float,
    s11_left: float,
    s11_right: float,
    s01_left: float,
    s10_left: float,
    mu: float,
    s_z: float,
) -> PhaseFlipBound:
    """Upper-bound the phase-flip error of the kept mismatched-send windows.

    Inputs are test-set counting rates resolved by detector side, the signal
    mean photon number and the mismatched-send yield ``s_z``.
    """
    if mu <= 0.0:
        raise EstimationError(f"mu must be positive, got {mu!r}")
    if s_z <= 0.0:
        raise EstimationError(f"s_tilde_z must be positive, got {s_z!r}")
    _check_rates(s01_left=s01_left, s10_left=s10_left)
    em = math.exp(-mu)
    up = x_basis_upper_right(s00_right, s11_right, mu)
    low_raw = _x_lower_left_raw(s00_left, s11_left, mu)
    low = max(0.0, low_raw)
    value = ((1.0 + em) * (up - low) + s01_left + s10_left) / (2.0 * s_z)
    return PhaseFlipBound(
        value=value,
        x_upper_right=up,
        x_lower_left=low,
        lower_clamped=low_raw < 0.0,
        flagged=value >= 0.5,
    )


def bit_flip_error_v(t_key: TallySet):
    """Measured bit-flip error of the key set.

    Returns ``(e_v, n_v)`` where ``n_v`` is the number of effective key-set
    windows and ``e_v`` the fraction of them coming from matched-decision
    states.  ``e_v`` is None when the key set has no detections.
    """
    n_v = t_key.total_detected()
    if n_v <= 0:
        return None, n_v
    errors = t_key.n_detected("00") + t_key.n_detected("11")
    return errors / n_v, n_v


@dataclass(frozen=True)
class BothSendStats:
    """Interference quality of the both-send windows at one threshold."""

    detections: float
    wrong_port: float
    qber: float | None


def qber_both_send(u: TallySet, v: TallySet) -> BothSendStats:
    """Detections and wrong-port fraction of the both-send windows.

    Pools the test and key subsets.  Kept windows sit near zero phase
    difference, so the dark-port detector R marks the errors.
    """
    detections = u.n_detected("11") + v.n_detected("11")
    wrong = u.detected.get(("11", "R"), 0) + v.detected.get(("11", "R"), 0)
    qber = wrong / detections if detections > 0 else None
    return BothSendStats(detections=detections, wrong_port=wrong, qber=qber)


@dataclass
class KeyRateReport:
    """Full result of one end-to-end analysis.

    ``n_f_raw`` is the key-length formula value; ``n_f`` clamps it at zero
    and feeds ``rate_per_pulse``.  ``e_ph_upper`` may exceed 0.5 (then
    ``e_ph_flagged`` is set and the key length is evaluated at the capped
    value, which yields zero key anyway).
    """

    mu: float
    f_ec: float
    delta_threshold: float | None
    n_total_pulses: float | None
    s_u: float | None
    e_u: float | None
    s_tilde_z: float
    n_tilde_z: float
    e_ph_upper: float
    e_ph_flagged: bool
    x_upper_right: float
    x_lower_left: float
    x_lower_clamped: bool
    e_v: float
    n_v: float
    n_f_raw: float
    n_f: float
    rate_per_pulse: float | None
    rates_u_by_state: dict = field(default_factory=dict)
    rates_u_by_cell: dict = field(default_factory=dict)
