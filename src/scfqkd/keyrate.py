"""End-to-end analysis, distance sweeps, calibration and optimisation.

:func:`analyze_tallies` (one tally pair) and :func:`analyze_expected_batch`
(a batch of expected-value configurations) are the two entry points to
the one estimation chain, :func:`scfqkd.estimator.estimate`.  Its
asymptotic secure key length is

    n_F = n_z * (1 - H(e_ph)) - f_ec * n_v * H(e_v)

with H the binary entropy, n_z the raw key pool, e_ph the phase-flip upper
bound, and the second term the error-correction leakage of the n_v key-set
detections at measured error e_v.  The per-pulse rate divides the clamped
key length by the total number of signal windows.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import channelsim, estimator
from .channelsim import ChannelModel, ProtocolParams, expected_tallies
# Re-exported: tests/test_acceptance.py, which stays unchanged, imports key_length from here.
from .estimator import KeyRateReport, key_length, key_rate  # noqa: F401
from .phasecore import RANGES, broken_bounds_rule, check

_log = logging.getLogger(__name__)


def analyze_tallies(
    u: np.ndarray,
    v: np.ndarray,
    params: ProtocolParams,
    n_total_pulses: float | None = None,
    delta_threshold: float | None = None,
) -> KeyRateReport:
    """Run the estimation chain on a (test, key) pair of (state, cell)
    arrays of (announced windows, L, R).

    Raises ValueError naming ``u`` or ``v`` for an array of another shape,
    :class:`~scfqkd.estimator.EstimationError` when the test set lacks the
    cells the phase-flip bound needs, and logs a WARNING when the
    bound lies below 0, where the key length takes e_ph = 0.
    ``delta_threshold`` is carried into the report for bookkeeping only.
    """
    values = estimator.estimate(estimator.subset_leaves(u, "u"), estimator.subset_leaves(v, "v"),
                                params.mu, params.f_ec, n_total_pulses or math.nan)
    rep = estimator.report(
        values, params.mu, params.f_ec,
        params.delta_threshold if delta_threshold is None else delta_threshold,
        n_total_pulses,
    )
    if rep.e_ph_upper < 0.0:
        _log.warning("phase-flip upper bound %.6g lies below 0; the key length takes e_ph = 0",
                     rep.e_ph_upper)
    return rep


class ExpectedReports:
    """Expected-value analyses of a batch of configurations, one row each.

    ``values`` holds :func:`~scfqkd.estimator.estimate`'s values as arrays
    with rows on the last axis: ``rates_u_by_state`` has shape (4, rows)
    in ``STATE_LABELS`` order, ``rates_u_by_cell`` shape (4, 2, rows) by
    state and detector side (L, R), and ``e_u`` is NaN where a report holds
    None.  ``failed`` marks the rows on which :func:`analyze_tallies`
    raises EstimationError; their other values carry no meaning.
    """

    def __init__(self, values: dict, mu: np.ndarray, delta: np.ndarray, f_ec: np.ndarray, n_windows):
        self.values = values
        self.failed = values["failed"]
        self._inputs = mu, delta, f_ec, n_windows

    @functools.cached_property
    def _rows(self) -> list:
        """Each row's values, mu, delta and f_ec as Python numbers, converted for all rows at once."""
        columns = (*self.values.values(), *self._inputs[:3])
        return list(zip(*(a.transpose(-1, *range(a.ndim - 1)).tolist() for a in columns)))

    def report(self, i: int) -> KeyRateReport:
        """Row ``i`` as a report; on a failed row, raises the EstimationError of :func:`analyze_tallies`."""
        *row, mu, delta, f_ec = self._rows[i]
        return estimator.report(dict(zip(self.values, row)), mu, f_ec, delta, self._inputs[3])


def analyze_expected_batch(params: ProtocolParams, model: ChannelModel, n_windows: float) -> ExpectedReports:
    """Analyse the expected-value tallies of many configurations at once.

    The batch is the broadcast of the fields of ``params`` and ``model``,
    made with ``dataclasses.replace``: each field is a scalar or an array of
    shape S + (1,), and the rows are the cells of S in C order.  Any field
    of either may vary; the dataclasses check every element of a field as
    they check a scalar.  Each stage evaluates only the fields it reads,
    in a single click evaluation, and the estimation chain runs once over
    arrays of rows, so each row equals what :func:`analyze_tallies` makes
    of that configuration's :func:`~scfqkd.channelsim.expected_tallies` bit
    for bit.  A counting rate outside [0, 1] raises ValueError; rows
    without a phase-flip bound are marked ``failed`` instead.
    """
    shape = np.broadcast_shapes(*(x.shape for x in (vars(params) | vars(model)).values() if hasattr(x, "shape")))
    counts = channelsim._expected_counts(params, model, n_windows, params.delta_threshold)
    # Assignment keeps -0.0 and casts an integer field as astype(float) does.
    inputs = np.empty((3, *shape))
    inputs[0], inputs[1], inputs[2] = params.mu, params.delta_threshold, params.f_ec
    mu, delta, f_ec = inputs.reshape(3, -1)
    # (state, subset, cell, row); sides L, R are ch0, ch1.
    leaves = np.empty((*shape[:-1], 4, 6))
    leaves[...] = counts[..., 2:]
    leaves = leaves.reshape(-1, 4, 2, 3).transpose(1, 2, 3, 0)
    values = estimator.estimate(leaves[:, 0], leaves[:, 1], mu, f_ec, n_windows)
    return ExpectedReports(values, mu, delta, f_ec, n_windows)


def analyze_expected(params: ProtocolParams, model: ChannelModel, n_windows: float) -> KeyRateReport:
    """Analyse the expected-value tallies of the given configuration with
    :func:`analyze_tallies`; equal bit for bit to the row of
    :func:`analyze_expected_batch`."""
    tallies = expected_tallies(params, model, n_windows)[params.delta_threshold]
    return analyze_tallies(*estimator.tallies_to_sets(tallies), params, n_total_pulses=n_windows)


def _both_send_qber(params: ProtocolParams, model: ChannelModel, visibility) -> np.ndarray:
    """Expected wrong-port fraction of kept both-send windows at each of the
    given visibilities, from one model call; NaN where the model predicts no
    both-send detections."""
    column = replace(model, visibility=np.asarray(visibility, dtype=float)[:, None])
    p_ch0, p_ch1 = channelsim._effective_probs(params, column, params.delta_threshold)[:, 3].T
    total = p_ch0 + p_ch1
    return np.divide(p_ch1, total, out=np.full_like(total, np.nan), where=total > 0.0)


_CALIBRATION_TOL = 1e-10
"""Width of the bracket whose midpoint :func:`calibrate_visibility` returns."""


def calibrate_visibility(params: ProtocolParams, model: ChannelModel, target_qber: float) -> float:
    """Find the visibility whose expected both-send QBER matches a target.

    The expected-value model keeps estimation noise out of the phase
    distribution, so the calibrated visibility absorbs every interference
    imperfection of the measured setup, tracking error included.  The QBER
    is monotone decreasing in visibility; when the target falls outside the
    reachable range the nearer endpoint of [0, 1] is returned and a WARNING
    naming the target and the range is logged.

    The search keeps a bracket [lo, hi] of [0, 1] with QBER(lo) > target >=
    QBER(hi) and cuts it into 2**k equal parts per batched model call, k
    being the halvings still needed to reach width ``_CALIBRATION_TOL``, at
    most 5; the first call also evaluates visibilities 1 and 0.  The new
    bracket is the first part whose right end has QBER <= target.  The cut
    points are the midpoints bisection of [0, 1] computes, so wherever the
    QBER is monotone in floating point the result equals plain bisection's
    bit for bit; elsewhere it is still the midpoint of a bracket of width
    <= ``_CALIBRATION_TOL`` on which the QBER crosses the target.  That
    takes 34 halvings, so 7 model calls, and every part stays far wider
    than the spacing of floats.
    """
    check(target_qber=target_qber)
    lo, hi, ends = 0.0, 1.0, [1.0, 0.0]
    while ends or hi - lo > _CALIBRATION_TOL:
        k, width = 0, hi - lo
        while k < 5 and width > _CALIBRATION_TOL:
            k, width = k + 1, 0.5 * width
        cuts = (lo + (hi - lo) * np.arange(1, 2**k) / 2**k).tolist()
        q = _both_send_qber(params, model, ends + cuts)
        if np.isnan(q).any():
            raise ValueError("model predicts no both-send detections")
        if ends:
            (q_one, q_zero), q = q[:2], q[2:]
            if q_one >= target_qber or q_zero <= target_qber:
                v = 1.0 if q_one >= target_qber else 0.0
                _log.warning(
                    "target both-send QBER %.6g lies outside the reachable range [%.6g, %.6g] "
                    "of visibilities 1 to 0; returning visibility %g",
                    target_qber, q_one, q_zero, v,
                )
                return v
            ends = []
        i = int(np.argmax(np.append(q <= target_qber, True)))
        lo, hi = ([lo] + cuts + [hi])[i:i + 2]
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SweepPoint:
    """Key rate of the expected-value model at one total fibre length."""

    distance_km: float
    rate_per_pulse: float
    report: KeyRateReport


def sweep_distance(
    params: ProtocolParams,
    model: ChannelModel,
    distances_km: Sequence[float],
    n_windows: float = 1e12,
    target_qber: float | None = None,
) -> list:
    """Key rate versus total fibre length, symmetric arms, fixed hardware.

    Component losses, detector efficiencies and dark counts stay at the
    reference model's values; only the fibre is swept, half the distance per
    arm.  When ``target_qber`` is given, the visibility is first calibrated
    against it on the reference model and then held fixed across distances.
    All distances are analysed in one :func:`analyze_expected_batch` call;
    the first distance without a phase-flip bound raises its
    EstimationError.
    """
    for d in distances_km:
        check(distance=d)
    vis = model.visibility if target_qber is None else calibrate_visibility(params, model, target_qber)
    half = 0.5 * np.array(distances_km, dtype=float)[:, None]
    batch = analyze_expected_batch(
        params, replace(model, visibility=vis, fiber_km_a=half, fiber_km_b=half), n_windows
    )
    reports = [batch.report(i) for i in range(len(distances_km))]
    return [SweepPoint(float(d), r.rate_per_pulse, r) for d, r in zip(distances_km, reports)]


@dataclass(frozen=True)
class OptimizeResult:
    """Best configuration found by :func:`optimize_params`."""

    params: ProtocolParams
    rate_per_pulse: float
    evaluations: int


def optimize_params(
    model: ChannelModel,
    base_params: ProtocolParams,
    mu_bounds: tuple = (2e-4, 2e-2),
    epsilon_bounds: tuple = (2e-3, 2e-1),
    delta_bounds: tuple = (math.radians(5.0), math.radians(90.0)),
    n_windows: float = 1e12,
) -> OptimizeResult:
    """Deterministic search for the rate-maximising (mu, epsilon, delta).

    Each bounds pair (lo, hi) must have 0 < lo < hi and ends that obey the
    field's range rule, or a ValueError names it.  A coarse log/linear grid
    seeds a coordinate-descent refinement that repeatedly rescans a
    shrinking bracket around the incumbent on each coordinate in a fixed
    order.  Points are evaluated in batches with
    :func:`analyze_expected_batch`: the coarse grid (7 points per axis) in
    one call, mu, epsilon and delta of shapes (7, 1, 1, 1), (1, 7, 1, 1)
    and (1, 1, 7, 1), whose clicks take its 49 (mu, delta) pairs, and each
    coordinate scan in one call, its coordinate a (7, 1) array and the
    others scalars, for 10 rounds over the three coordinates.  Points are
    visited in a fixed order, mu-major on the grid, a point without a
    phase-flip bound counts as rate 0, and the incumbent changes only on a
    strictly greater rate, so the first maximum wins.  ``evaluations``
    counts points, not calls: 7**3 + 3 * 7 * 10 = 553.
    """
    bounds = [mu_bounds, epsilon_bounds, delta_bounds]
    for name, field, (lo, hi) in zip(("mu_bounds", "epsilon_bounds", "delta_bounds"),
                                     ("mu", "epsilon", "delta_threshold"), bounds):
        if broken_bounds_rule(field, lo, hi):
            raise ValueError(f"{name} must be (lo, hi) with 0 < lo < hi and both ends {RANGES[field][0]}, "
                             f"got {(lo, hi)!r}")
    grid, refine_rounds, evaluations = 7, 10, 0

    def rates_at(mu, eps, delta) -> np.ndarray:
        nonlocal evaluations
        batch = analyze_expected_batch(
            replace(base_params, mu=mu, epsilon=eps, delta_threshold=delta), model, n_windows
        )
        evaluations += batch.failed.size
        return np.where(batch.failed, 0.0, batch.values["rate_per_pulse"])

    def log_grid(lo: float, hi: float, n: int):
        return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]

    def lin_grid(lo: float, hi: float, n: int):
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    axes = [log_grid(*mu_bounds, grid), log_grid(*epsilon_bounds, grid), lin_grid(*delta_bounds, grid)]
    # Axis i of the grid varies coordinate i; argmax keeps the first of equal rates.
    rates = rates_at(*(np.reshape(a, (-1,) + (1,) * (3 - i)) for i, a in enumerate(axes)))
    first = int(np.argmax(rates))
    best_rate, point = rates[first].item(), [a[i] for a, i in zip(axes, np.unravel_index(first, (grid,) * 3))]

    spans = [(hi - lo) / grid for lo, hi in bounds]
    for _ in range(refine_rounds):
        for axis in range(3):
            lo = max(bounds[axis][0], point[axis] - spans[axis])
            hi = min(bounds[axis][1], point[axis] + spans[axis])
            # The other coordinates stay fixed during a scan, so all its
            # points are known before the first is evaluated.
            xs = lin_grid(lo, hi, grid)
            coords = point[:axis] + [np.array(xs)[:, None]] + point[axis + 1:]
            for r, x in zip(rates_at(*coords).tolist(), xs):
                if r > best_rate:
                    best_rate, point[axis] = r, x
            spans[axis] *= 0.5
    final = replace(base_params, mu=point[0], epsilon=point[1], delta_threshold=point[2])
    return OptimizeResult(params=final, rate_per_pulse=best_rate, evaluations=evaluations)
