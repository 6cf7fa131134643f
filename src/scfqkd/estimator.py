"""Parameter estimation from announced tallies: the one estimation chain.

The test set (announced bits) provides per-state counting rates; from them
the estimator derives the yield of the mismatched-send windows, the
phase-flip upper bound of the virtual X basis, and the measured bit-flip
error of the key set.  Detector sides are logical: ``L`` is the output port
that interferes brightly at zero phase difference, ``R`` the dark one.

A test or key subset is a (state, cell) array of the package's one tally
type (see :attr:`~scfqkd.channelsim.SessionTallies.cells`): per state,
(announced windows, detections on L, on R), with L = ch0 unless
``swap_detectors`` reverses the channel axis.  :func:`estimate` is the
whole chain, written once as elementwise arithmetic over such leaves:
Python numbers for one analysis, arrays over rows for a batch.  A batch
evaluates each per-state quantity once over the state axis, a (state,
row) array, where one analysis loops over the four states; each element
sees the same operations in the same order, totals included, so a batch
row equals its single analysis bit for bit.  Failures are per-row flags
that :func:`report` raises.

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
The asymptotic key length is n_F = n_z (1 - H(e_ph)) - f_ec n_v H(e_v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channelsim import STATE_LABELS, SessionTallies
from .phasecore import binary_entropy, check

DETECTORS = ("L", "R")

_TEST_CELLS = ("01", "10", ("00", "L"), ("00", "R"), ("11", "L"), ("11", "R"), ("01", "L"), ("10", "L"))
"""Test-set counting rates the phase-flip bound needs."""


class EstimationError(ValueError):
    """Raised when a test set lacks the cells an estimate needs."""


def tallies_to_sets(tallies: SessionTallies, swap_detectors: bool = False):
    """The (test, key) pair of (state, cell) arrays of (announced windows, L,
    R): views of ``tallies.counts`` with L = ch0, or with ``swap_detectors``
    copies whose channel axis is reversed for the opposite wiring."""
    cells = tallies.cells[..., [0, 2, 1]] if swap_detectors else tallies.cells
    return cells[:, 0], cells[:, 1]


def subset_leaves(subset, name: str) -> list:
    """``subset`` as nested lists; a ValueError naming it, ``name``, unless it is a (4, 3) array."""
    if getattr(subset, "shape", None) != (4, 3):
        got = f"shape {subset.shape}" if hasattr(subset, "shape") else type(subset).__name__
        raise ValueError(f"{name} must be a (4, 3) array of (announced windows, L, R) per state, got {got}")
    return subset.tolist()


def _any(flags) -> bool:
    """Whether any of an array's flags is set, or the Python bool itself."""
    return flags.any() if isinstance(flags, np.ndarray) else flags


def _not_finite(x):
    """Whether ``x`` is NaN or infinite: elementwise for an array, else a Python bool."""
    return ~np.isfinite(x) if isinstance(x, np.ndarray) else not math.isfinite(x)


def _clip(x, lo, hi=None):
    """``x`` limited to [lo, hi] elementwise, NaN to ``lo``."""
    if isinstance(x, np.ndarray):
        # A tie keeps x, as max and min do below; np.fmax picks between tied
        # zeros by the element's place in the array.
        x = np.where(x >= lo, x, lo)
        return x if hi is None else np.where(hi < x, hi, x)
    if math.isnan(x):
        return lo
    x = max(x, lo)
    return x if hi is None else min(x, hi)


def _positive(x, empty=math.nan):
    """``x`` where it is positive, else ``empty``: dividing by the result
    gives NaN (or, with ``empty=inf``, zero) for an empty pool."""
    if isinstance(x, np.ndarray):
        return np.where(x > 0.0, x, empty)
    return x if x > 0.0 else empty


def _rates(cells):
    """Counting rates of one subset's leaves: per state and per (state,
    side), NaN for a state without announced windows; the total rate; and
    the matched-decision (bit-error) fraction of the detections, NaN
    without detections.  Raises ValueError for a per-state rate outside
    [0, 1]."""
    if isinstance(cells, np.ndarray):
        # A batch's (state, cell, row) array: one operation per quantity
        # over all states, the totals added state by state as below.
        windows, left, right = cells.swapaxes(0, 1)
        den = _positive(windows)
        detected = left + right
        by_state, by_cell = detected / den, cells[:, 1:] / den[:, None]
        outside = (by_state < 0.0) | (by_state > 1.0)
        total_sent = 0 + windows[0] + windows[1] + windows[2] + windows[3]
        total_det = 0 + left[0] + right[0] + left[1] + right[1] + left[2] + right[2] + left[3] + right[3]
    else:
        by_state, by_cell, detected = [], [], []
        total_sent = total_det = 0
        outside = False
        for windows, left, right in cells:
            den = _positive(windows)
            both = left + right
            rate = both / den
            outside = outside | (rate < 0.0) | (rate > 1.0)
            by_state.append(rate)
            by_cell.append((left / den, right / den))
            detected.append(both)
            total_sent = total_sent + windows
            total_det = total_det + left + right
    if _any(outside):
        for s, r in zip(STATE_LABELS, by_state):
            bad = (r < 0.0) | (r > 1.0)
            if _any(bad):
                raise ValueError(f"counting rate out of [0, 1] for state {s}: {np.extract(bad, r)[0]}")
    return by_state, by_cell, total_det / _positive(total_sent), (
        (detected[0] + detected[3]) / _positive(total_det)
    )


def _phase_flip(s00_l, s00_r, s11_l, s11_r, s01_l, s10_l, mu, s_z):
    """The X-basis bounds and the phase-flip bound (see the module
    docstring): ``(up, low_raw, low, e_ph)``, ``low`` being ``low_raw``
    floored at 0; ``e_ph`` is NaN where ``s_z`` is not positive or
    exp(-mu) underflows to 0."""
    if isinstance(s_z, np.ndarray):
        # Where exp(-mu) is subnormal the bounds overflow to inf, as they do
        # on Python floats, without numpy's warning.
        with np.errstate(over="ignore", invalid="ignore"):
            return _bounds(np.exp(-mu), np.sqrt, s00_l, s00_r, s11_l, s11_r, s01_l, s10_l, s_z)
    # One analysis runs on Python floats: math.sqrt rounds as np.sqrt does
    # (both exactly), while exp stays numpy's, which math.exp is not.
    return _bounds(float(np.exp(-mu)), math.sqrt, s00_l, s00_r, s11_l, s11_r, s01_l, s10_l, s_z)


def _bounds(em, sqrt, s00_l, s00_r, s11_l, s11_r, s01_l, s10_l, s_z):
    """:func:`_phase_flip` from em = exp(-mu), with ``sqrt`` for the leaves' kind."""
    em = _positive(em)
    g = 1.0 - em
    two_g, two_g_em, den = 2.0 * g, 2.0 * g / em, 2.0 * (1.0 + em)
    up = (
        em * s00_r + s11_r / em + g * g / em + 2.0 * sqrt(s00_r * s11_r)
        + two_g * sqrt(s00_r) + two_g_em * sqrt(s11_r)
    ) / den
    low_raw = (
        em * s00_l + s11_l / em - 2.0 * sqrt(s00_l * s11_l)
        - two_g * sqrt(s00_l) - two_g_em * sqrt(s11_l)
    ) / den
    low = _clip(low_raw, 0.0)
    return up, low_raw, low, ((1.0 + em) * (up - low) + s01_l + s10_l) / _positive(2.0 * s_z)


def _bit_flips(cells):
    """``(n_v, e_v)`` of one subset's leaves: its detections and their
    matched-decision fraction, 0 without detections."""
    if isinstance(cells, np.ndarray):
        left, right = cells[:, 1], cells[:, 2]
        n_v = 0 + left[0] + right[0] + left[1] + right[1] + left[2] + right[2] + left[3] + right[3]
    else:
        n_v = 0
        for _, left, right in cells:
            n_v = n_v + left + right
    errors = (cells[0][1] + cells[0][2]) + (cells[3][1] + cells[3][2])
    return n_v, errors / _positive(n_v, math.inf)


def key_rate(n_f, n_total_pulses):
    """Secure bits per signal window; negative key lengths count as zero.
    Elementwise over arrays; a NaN total, unknown, gives NaN."""
    check(n_total_pulses=n_total_pulses)
    return _clip(n_f, 0.0) / n_total_pulses


def key_length(n_z, e_ph, n_v, e_v, f_ec):
    """Asymptotic key-length formula; may be negative for lossy sessions.

    Negative values mean no secure key; callers clamp at zero for rates and
    keep the raw value for diagnostics.  Elementwise over arrays; NaN pools pass.
    """
    check(n_z=n_z, n_v=n_v, f_ec=f_ec)
    if isinstance(e_ph, np.ndarray) and getattr(e_v, "shape", None) == e_ph.shape:
        # A batch's two entropies in one call, which checks e_ph's values first.
        h_ph, h_v = binary_entropy(np.array((e_ph, e_v)))
        return n_z * (1.0 - h_ph) - f_ec * n_v * h_v
    return n_z * (1.0 - binary_entropy(e_ph)) - f_ec * n_v * binary_entropy(e_v)


def estimate(test, key, mu, f_ec, n_total) -> dict:
    """The estimation chain from a (test, key) pair of leaves to a key length.

    ``test[state][cell]`` and ``key[state][cell]`` hold (announced windows,
    L, R) per state: nested lists of Python numbers for one analysis, or
    for a batch (state, cell, row) arrays, over whose state axis the
    per-state arithmetic runs at once, with the same operations per
    element in the same order.  ``mu``, ``f_ec`` and ``n_total`` (NaN when
    unknown) are Python numbers or arrays over rows.  Returns the computed
    :class:`KeyRateReport` fields as leaves, with ``rates_u_by_state`` a
    list over states (a batch: a (state, row) array), ``rates_u_by_cell`` a
    list of (L, R) pairs (a (state, side, row) array), ``e_u`` NaN where
    the report holds None, and ``failed``, true on the rows where
    :func:`report` raises EstimationError; the other values of a failed row
    carry no meaning.  Raises ValueError for a counting rate outside [0, 1].
    """
    by_state, by_cell, s_u, e_u = _rates(test)
    s_z = 0.5 * (by_state[1] + by_state[2])
    # Twice the smaller of the key set's 01 and 10 pools times the yield.
    n_z = 2.0 * _clip(key[1][0], 0.0, key[2][0]) * s_z
    (s00_l, s00_r), (s01_l, _), (s10_l, _), (s11_l, s11_r) = by_cell
    up, low_raw, low, e_ph = _phase_flip(s00_l, s00_r, s11_l, s11_r, s01_l, s10_l, mu, s_z)
    n_v, e_v = _bit_flips(key)
    # The bound can leave [0, 0.5] at low statistics; the entropy argument is
    # clamped (a failed row's NaN to 0) while the report keeps the raw value.
    n_f_raw = key_length(n_z, _clip(e_ph, 0.0, 0.5), n_v, e_v, f_ec)
    n_f = _clip(n_f_raw, 0.0)
    # e_ph is NaN exactly where a test-set state has no windows, s_z is 0 or
    # exp(-mu) underflows to 0, and infinite where the bound overflows.
    failed = _not_finite(e_ph) | (mu <= 0.0)
    check(n_total_pulses=n_total)
    return {
        "s_u": s_u,
        "e_u": e_u,
        "s_tilde_z": s_z,
        "n_tilde_z": n_z,
        "e_ph_upper": e_ph,
        "e_ph_flagged": e_ph >= 0.5,
        "x_upper_right": up,
        "x_lower_left": low,
        "x_lower_clamped": low_raw < 0.0,
        "e_v": e_v,
        "n_v": n_v,
        "n_f_raw": n_f_raw,
        "n_f": n_f,
        # n_f is clamped already, so the rate is key_rate's without a second clip.
        "rate_per_pulse": n_f / n_total,
        "rates_u_by_state": by_state,
        "rates_u_by_cell": by_cell,
        "failed": failed,
    }


def _failure(by_state, s_z: float, mu: float) -> EstimationError:
    """The error of a failed analysis, by the first check it fails."""
    empty = {s for s, r in zip(STATE_LABELS, by_state) if math.isnan(r)}
    bad = [c for c in _TEST_CELLS if (c[0] if isinstance(c, tuple) else c) in empty]
    if bad:
        return EstimationError(f"no announced windows for cells: {bad}")
    if s_z <= 0:
        return EstimationError("mismatched-send yield is zero; no key material")
    rule = _mu_rule(mu)
    return EstimationError(f"mu must {rule}, got {mu!r}" if rule else "phase-flip bound overflows to infinity")


def _mu_rule(mu: float) -> str | None:
    """The rule of the estimator that ``mu`` breaks, or None: mu > 0 and exp(-mu) > 0."""
    if not mu > 0.0:
        return "be positive"
    return None if np.exp(-mu) > 0.0 else "be small enough that exp(-mu) > 0"


@dataclass
class KeyRateReport:
    """Full result of one end-to-end analysis.

    ``n_f_raw`` is the key-length formula value; ``n_f`` clamps it at zero
    and feeds ``rate_per_pulse``.  ``e_ph_upper`` may exceed 0.5 (then
    ``e_ph_flagged`` is set and the key length is evaluated at the capped
    value, which yields zero key anyway) or lie below 0 (then the key
    length is evaluated at 0).
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


def report(values: dict, mu: float, f_ec: float, delta_threshold, n_total_pulses) -> KeyRateReport:
    """The report of one analysis from its :func:`estimate` values (Python
    numbers, not arrays) and inputs; raises the analysis' EstimationError
    where it failed."""
    v = dict(values)
    if v.pop("failed"):
        raise _failure(v["rates_u_by_state"], v["s_tilde_z"], mu)
    v.update({name: None for name in ("e_u", "rate_per_pulse") if math.isnan(v[name])})
    v["rates_u_by_state"] = dict(zip(STATE_LABELS, v["rates_u_by_state"]))
    v["rates_u_by_cell"] = {
        f"{s}/{d}": r for s, pair in zip(STATE_LABELS, v["rates_u_by_cell"]) for d, r in zip(DETECTORS, pair)
    }
    return KeyRateReport(
        mu=mu, f_ec=f_ec, delta_threshold=delta_threshold, n_total_pulses=n_total_pulses, **v
    )


def counting_rates(t: np.ndarray) -> dict:
    """Counting rates of one subset's (state, cell) array of (announced
    windows, L, R): ``by_state[s]`` and ``by_cell[(s, d)]``, NaN for a state
    without announced windows; ``total``; and ``error_rate``, the
    matched-decision ("00" and "11") fraction of the detections, None
    without detections.  Raises ValueError for a rate outside [0, 1]."""
    by_state, by_cell, total, error_rate = _rates(subset_leaves(t, "t"))
    return {
        "by_state": dict(zip(STATE_LABELS, by_state)),
        "by_cell": {(s, d): r for s, pair in zip(STATE_LABELS, by_cell) for d, r in zip(DETECTORS, pair)},
        "total": total,
        "error_rate": None if math.isnan(error_rate) else error_rate,
    }


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
    mean photon number and the mismatched-send yield ``s_z``.  Raises
    EstimationError, as the analysis chain does, for a ``mu`` that is not
    positive or whose exp(-mu) underflows, a ``s_z`` that is not positive,
    and a bound that is not finite.
    """
    if rule := _mu_rule(mu):
        raise EstimationError(f"mu must {rule}, got {mu!r}")
    if not s_z > 0.0:
        raise EstimationError(f"s_tilde_z must be positive, got {s_z!r}")
    up, low_raw, low, value = _phase_flip(
        s00_left, s00_right, s11_left, s11_right, s01_left, s10_left, mu, s_z
    )
    if not math.isfinite(value):
        raise EstimationError("phase-flip bound overflows to infinity")
    return PhaseFlipBound(
        value=float(value),
        x_upper_right=float(up),
        x_lower_left=float(low),
        lower_clamped=bool(low_raw < 0.0),
        flagged=bool(value >= 0.5),
    )


def bit_flip_error_v(t_key: np.ndarray):
    """Measured bit-flip error of the key set, a (state, cell) array of
    (announced windows, L, R).

    Returns ``(e_v, n_v)`` where ``n_v`` is the number of effective key-set
    windows and ``e_v`` the fraction of them coming from matched-decision
    states.  ``e_v`` is None when the key set has no detections.
    """
    n_v, e_v = _bit_flips(subset_leaves(t_key, "t_key"))
    return (e_v if n_v > 0 else None), n_v


@dataclass(frozen=True)
class BothSendStats:
    """Interference quality of the both-send windows at one threshold."""

    detections: float
    wrong_port: float
    qber: float | None


def qber_both_send(u: np.ndarray, v: np.ndarray) -> BothSendStats:
    """Detections and wrong-port fraction of the both-send windows.

    Pools the test and key subsets ``u`` and ``v``, each a (state, cell)
    array of (announced windows, L, R).  Kept windows sit near zero phase
    difference, so the dark-port detector R marks the errors.
    """
    (_, u_left, u_right), (_, v_left, v_right) = subset_leaves(u, "u")[3], subset_leaves(v, "v")[3]
    detections = (u_left + u_right) + (v_left + v_right)
    wrong = u_right + v_right
    qber = wrong / detections if detections > 0 else None
    return BothSendStats(detections=detections, wrong_port=wrong, qber=qber)
