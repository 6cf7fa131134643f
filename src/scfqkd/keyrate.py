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

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import channelsim, estimator
from .channelsim import ChannelModel, ProtocolParams
from .channelsim import expected_tallies  # noqa: F401  (kept importable from this module)
from .estimator import KeyRateReport, TallySet, key_length, key_rate  # noqa: F401  (kept importable)

_log = logging.getLogger(__name__)


def analyze_tallies(
    u: TallySet,
    v: TallySet,
    params: ProtocolParams,
    n_total_pulses: float | None = None,
    delta_threshold: float | None = None,
) -> KeyRateReport:
    """Run the estimation chain on a (test, key) tally pair.

    Raises :class:`~scfqkd.estimator.EstimationError` when the test set
    lacks the cells the phase-flip bound needs.  ``delta_threshold`` is
    carried into the report for bookkeeping only.
    """
    values = estimator.estimate(
        u.cells.tolist(), v.cells.tolist(), params.mu, params.f_ec, n_total_pulses or math.nan
    )
    return estimator.report(
        values, params.mu, params.f_ec,
        params.delta_threshold if delta_threshold is None else delta_threshold,
        n_total_pulses,
    )


class ExpectedReports:
    """Expected-value analyses of a batch of configurations, one row each.

    ``values`` holds :func:`~scfqkd.estimator.estimate`'s values as arrays
    with rows on the last axis: ``rates_u_by_state`` has shape (4, rows)
    in ``STATE_LABELS`` order, ``rates_u_by_cell`` shape (4, 2, rows) by
    state and detector side (L, R), and ``e_u`` is NaN where a report holds
    None.  ``failed`` marks the rows on which :func:`analyze_tallies`
    raises EstimationError; their other values carry no meaning.
    """

    def __init__(self, values: dict, mu: np.ndarray, delta: np.ndarray, f_ec: float, n_windows):
        self.values = values
        self.failed = values["failed"]
        self._inputs = mu, delta, f_ec, n_windows

    def report(self, i: int) -> KeyRateReport:
        """Row ``i`` as a report; on a failed row, raises the
        EstimationError that :func:`analyze_tallies` raises."""
        mu, delta, f_ec, n_windows = self._inputs
        row = {name: a[..., i].tolist() for name, a in self.values.items()}
        return estimator.report(row, mu[i].item(), f_ec, delta[i].item(), n_windows)


def analyze_expected_batch(
    params: ProtocolParams,
    model: ChannelModel,
    n_windows: float,
    mu,
    epsilon,
    delta_threshold,
    fiber_km=None,
) -> ExpectedReports:
    """Analyse the expected-value tallies of many configurations at once.

    Row i replaces ``params``' mu, epsilon and delta_threshold by ``mu[i]``,
    ``epsilon[i]`` and ``delta_threshold[i]`` and, when ``fiber_km`` is
    given, the model's arm lengths by ``fiber_km[i] = (arm a, arm b)``.  A
    single click evaluation covers every row, and the estimation chain runs
    once over arrays of rows, so each row equals what
    :func:`analyze_tallies` makes of that configuration's
    :func:`~scfqkd.channelsim.expected_tallies` bit for bit.  Out-of-range
    rows raise ValueError with :class:`ProtocolParams`' messages, as does a
    counting rate outside [0, 1]; rows without a phase-flip bound are
    marked ``failed`` instead.
    """
    mu, eps, delta = (np.asarray(a, dtype=float) for a in (mu, epsilon, delta_threshold))
    channelsim._check_rows(mu=mu, epsilon=eps, delta_threshold=delta)
    cells = channelsim._expected_cells(params, model, n_windows, mu, eps, delta[:, None], fiber_km)[3]
    # (state, subset, cell, row) of the one threshold; sides L, R are ch0, ch1.
    leaves = cells[:, 0].transpose(1, 2, 3, 0).copy()
    values = estimator.estimate(leaves[:, 0], leaves[:, 1], mu, params.f_ec, n_windows)
    for name in ("rates_u_by_state", "rates_u_by_cell"):
        values[name] = np.array(values[name])
    return ExpectedReports(values, mu, delta, params.f_ec, n_windows)


def analyze_expected(
    params: ProtocolParams,
    model: ChannelModel,
    n_windows: float,
    delta_threshold: float | None = None,
) -> KeyRateReport:
    """Analyse the expected-value tallies of the given configuration: the
    single-row case of :func:`analyze_expected_batch`."""
    thr = params.delta_threshold if delta_threshold is None else delta_threshold
    batch = analyze_expected_batch(params, model, n_windows, [params.mu], [params.epsilon], [thr])
    return batch.report(0)


def _both_send_qber(params: ProtocolParams, model: ChannelModel, visibility) -> np.ndarray:
    """Expected wrong-port fraction of kept both-send windows at each of the
    given visibilities, from one model call; NaN where the model predicts no
    both-send detections."""
    vis = np.asarray(visibility, dtype=float)[:, None]
    inten = np.broadcast_to(channelsim._arm_intensities(model, [params.mu]), (len(vis), 2))
    p_ch0, p_ch1 = channelsim._effective_probs(
        params, model, [params.delta_threshold], inten, vis
    )[:, 3].T
    total = p_ch0 + p_ch1
    return np.divide(p_ch1, total, out=np.full_like(total, np.nan), where=total > 0.0)


def model_both_send_qber(
    params: ProtocolParams, model: ChannelModel, delta_threshold: float | None = None
) -> float:
    """Expected wrong-port fraction of kept both-send windows."""
    if delta_threshold is not None:
        params = replace(params, delta_threshold=delta_threshold)
    return _checked_qber(_both_send_qber(params, model, [model.visibility]).item())


def _checked_qber(q: float) -> float:
    """``q``, or ValueError where :func:`_both_send_qber` found no detections."""
    if math.isnan(q):
        raise ValueError("model predicts no both-send detections")
    return q


# Halvings covered by one batched model call in calibrate_visibility.  A
# call costs about 0.1-0.17 ms plus 2-3.5 us per row on a 2-core host, and
# covering k halvings takes 2**k - 1 rows; the default tol needs 34
# halvings, so ceil(34 / k) calls.  k = 4 (9 calls, about 125 rows) and
# k = 5 (7 calls, about 200 rows) cost least, k = 6 (6 calls, about 330
# rows) a little more; 5 keeps a calibration within 8 calls.
_CALIBRATION_LEVELS = 5


def _bisection_midpoints(lo: float, hi: float, tol: float) -> list:
    """Every midpoint that bisection of [lo, hi] down to width ``tol`` can
    visit in its next ``_CALIBRATION_LEVELS`` halvings, in increasing order,
    each computed as bisection computes it, 0.5 * (lo + hi)."""
    edges, width = [lo, hi], hi - lo
    for _ in range(_CALIBRATION_LEVELS):
        if not width > tol:
            break
        edges = [x for a, b in zip(edges, edges[1:]) for x in (a, 0.5 * (a + b))] + [hi]
        width *= 0.5
    return edges[1:-1]


def calibrate_visibility(
    params: ProtocolParams,
    model: ChannelModel,
    target_qber: float,
    tol: float = 1e-10,
) -> float:
    """Find the visibility whose expected both-send QBER matches a target.

    The expected-value model keeps estimation noise out of the phase
    distribution, so the calibrated visibility absorbs every interference
    imperfection of the measured setup, tracking error included.  The QBER
    is monotone decreasing in visibility; when the target falls outside the
    reachable range the nearer endpoint of [0, 1] is returned and a WARNING
    naming the target and the range is logged.

    The search is bisection of [0, 1] down to width ``tol``, run against
    batches of model values: one batched call evaluates every midpoint the
    bisection can visit in its next five halvings, 31 points, and the first
    call also the endpoints 1 and 0.  The midpoints are dyadic rationals
    computed with bisection's own arithmetic, and the loop makes bisection's
    own comparisons, so the result equals plain one-point-per-step
    bisection bit for bit, whether or not the model's QBER is monotone in
    floating point.  The default ``tol`` takes 34 halvings, so 7 model
    calls instead of 36.  ``tol`` must be finite and positive; bisection
    also stops once the midpoint rounds to an end of the interval, so a
    ``tol`` below the spacing of floats ends there.
    """
    if not 0.0 < target_qber < 0.5:
        raise ValueError(f"target_qber must lie in (0, 0.5), got {target_qber!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    lo, hi = 0.0, 1.0
    known = {}

    def qber(v: float) -> float:
        if v not in known:
            points = ([] if known else [hi, lo]) + _bisection_midpoints(lo, hi, tol)
            known.update(zip(points, _both_send_qber(params, model, points).tolist()))
        return _checked_qber(known[v])

    def unreachable(v: float) -> float:
        _log.warning(
            "target both-send QBER %.6g lies outside the reachable range [%.6g, %.6g] "
            "of visibilities 1 to 0; returning visibility %g",
            target_qber, known[1.0], known[0.0], v,
        )
        return v

    if qber(hi) >= target_qber:
        return unreachable(hi)
    if qber(lo) <= target_qber:
        return unreachable(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if qber(mid) > target_qber:
            lo = mid
        else:
            hi = mid
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
    vis = (
        calibrate_visibility(params, model, target_qber)
        if target_qber is not None
        else model.visibility
    )
    for d in distances_km:
        if not d >= 0:
            raise ValueError(f"distance must be non-negative, got {d!r}")
    n = len(distances_km)
    batch = analyze_expected_batch(
        params, replace(model, visibility=vis), n_windows,
        [params.mu] * n, [params.epsilon] * n, [params.delta_threshold] * n,
        fiber_km=[(0.5 * d, 0.5 * d) for d in distances_km],
    )
    points = []
    for i, d in enumerate(distances_km):
        report = batch.report(i)
        points.append(
            SweepPoint(distance_km=float(d), rate_per_pulse=report.rate_per_pulse, report=report)
        )
    return points


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
    grid: int = 7,
    refine_rounds: int = 10,
) -> OptimizeResult:
    """Deterministic search for the rate-maximising (mu, epsilon, delta).

    A coarse log/linear grid seeds a coordinate-descent refinement that
    repeatedly rescans a shrinking bracket around the incumbent on each
    coordinate in a fixed order.  Points are evaluated in batches with
    :func:`analyze_expected_batch`: the coarse grid one mu-plane
    (``grid**2`` points) per call, and each coordinate scan (``grid``
    points) in one call.  Points are visited in a fixed order, a point
    without a phase-flip bound counts as rate 0, and the incumbent changes
    only on a strictly greater rate, so the first maximum wins.
    ``evaluations`` counts points, not calls: ``grid**3 + 3 * grid *
    refine_rounds``, 553 with the defaults.  No randomness is involved, so
    equal inputs give equal results.
    """
    evaluations = 0

    def rates_at(points) -> list:
        nonlocal evaluations
        evaluations += len(points)
        batch = analyze_expected_batch(base_params, model, n_windows, *zip(*points))
        return np.where(batch.failed, 0.0, batch.values["rate_per_pulse"]).tolist()

    def log_grid(lo: float, hi: float, n: int):
        return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]

    def lin_grid(lo: float, hi: float, n: int):
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    best = None
    eps_delta = [(eps, delta) for eps in log_grid(*epsilon_bounds, grid)
                 for delta in lin_grid(*delta_bounds, grid)]
    for mu in log_grid(*mu_bounds, grid):
        plane = [[mu, eps, delta] for eps, delta in eps_delta]
        for r, trial in zip(rates_at(plane), plane):
            if best is None or r > best[0]:
                best = (r, trial)
    best_rate, point = best

    spans = [
        (mu_bounds[1] - mu_bounds[0]) / grid,
        (epsilon_bounds[1] - epsilon_bounds[0]) / grid,
        (delta_bounds[1] - delta_bounds[0]) / grid,
    ]
    bounds = [mu_bounds, epsilon_bounds, delta_bounds]
    for _ in range(refine_rounds):
        for axis in range(3):
            lo = max(bounds[axis][0], point[axis] - spans[axis])
            hi = min(bounds[axis][1], point[axis] + spans[axis])
            # The other coordinates stay fixed during a scan, so all its
            # points are known before the first is evaluated.
            trials = [point[:axis] + [x] + point[axis + 1:] for x in lin_grid(lo, hi, grid)]
            for r, trial in zip(rates_at(trials), trials):
                if r > best_rate:
                    best_rate, point = r, trial
            spans[axis] *= 0.5
    final = replace(
        base_params, mu=point[0], epsilon=point[1], delta_threshold=point[2]
    )
    return OptimizeResult(params=final, rate_per_pulse=best_rate, evaluations=evaluations)
