"""Command-line interface.

Commands:

* ``analyze``    run the estimation chain on a raw tally file.
* ``simulate``   Monte Carlo session; writes a raw tally file and reports.
* ``sweep``      key rate versus distance from the expected-value model.
* ``optimize``   search (mu, epsilon, delta) for the best expected rate.
* ``qber-table`` both-send QBER and detections per phase threshold.

Configuration precedence is flags over config file over built-in defaults.
The config file is JSON whose keys are the long flag names with dashes
replaced by underscores (for example ``{"mu": 0.002, "distance_km": 50}``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import __version__, dataio, defaults, estimator, keyrate
from .channelsim import ChannelModel, ProtocolParams, simulate_session
from .estimator import EstimationError


class _Resolver:
    """Flags > config file > built-in default, per option name."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.config = {}
        path = self.args.get("config")
        if path:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError(f"config file {path} must contain a JSON object")
            self.config = loaded

    def get(self, name: str, default):
        v = self.args.get(name)
        if v is not None:
            return v
        if name in self.config:
            return self.config[name]
        return default


def _build_params(r: _Resolver) -> ProtocolParams:
    base = defaults.reference_params()
    delta_deg = r.get("delta_deg", math.degrees(base.delta_threshold))
    return replace(
        base,
        mu=float(r.get("mu", base.mu)),
        epsilon=float(r.get("epsilon", base.epsilon)),
        delta_threshold=math.radians(float(delta_deg)),
        f_ec=float(r.get("f_ec", base.f_ec)),
        p_t=float(r.get("pt", base.p_t)),
    )


def _build_model(r: _Resolver) -> ChannelModel:
    model = defaults.reference_model(float(r.get("distance_km", 50.0)))
    vis = r.get("visibility", None)
    if vis is not None:
        model = replace(model, visibility=float(vis))
    dark = r.get("dark_prob", None)
    if dark is not None:
        model = replace(model, dark_prob=float(dark))
    return model


def _windows(r: _Resolver, default: float) -> int:
    """The ``windows`` option: a whole number of at least 1."""
    value = r.get("windows", default)
    try:
        count = float(value)
    except (TypeError, ValueError):
        count = math.nan
    if not (math.isfinite(count) and count >= 1 and count.is_integer()):
        raise ValueError(f"windows must be a whole number of at least 1, got {value!r}")
    return int(count)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


def _cmd_analyze(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    params = _build_params(r)
    path = args.infile or defaults.bundled_tally_path()
    raw = dataio.load_raw_tallies(path, strict=True)
    u, v = raw.tally_sets(swap_detectors=args.swap_detectors)
    report = keyrate.analyze_tallies(
        u, v, params, n_total_pulses=raw.n_total_pulses, delta_threshold=raw.delta_threshold
    )
    _emit(dataio.emit_report(report, fmt=args.format), args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    params = _build_params(r)
    model = _build_model(r)
    n_windows = _windows(r, 1e7)
    seed = int(r.get("seed", 1))
    workers = int(r.get("workers", 1))
    result = simulate_session(params, model, n_windows, seed, workers=workers)
    metadata = {
        "Delta-Degrees": math.degrees(params.delta_threshold),
        "Mu": params.mu,
        "Epsilon": params.epsilon,
        "Pt": params.p_t,
        "F-EC": params.f_ec,
        "Windows": n_windows,
        "Seed": seed,
    }
    dataio.write_raw_tallies(args.out, result.tallies, metadata)
    u, v = estimator.tallies_to_sets(result.tallies, swap_detectors=args.swap_detectors)
    try:
        report = keyrate.analyze_tallies(u, v, params, n_total_pulses=n_windows)
        print(dataio.emit_report(report, fmt=args.format))
    except EstimationError as exc:
        print(f"tally file written; no key-rate report: {exc}")
    return 0


def _parse_distances(text: str) -> list:
    if ":" in text:
        parts = [float(x) for x in text.split(":")]
        if len(parts) != 3:
            raise ValueError(f"distance range must be start:stop:step, got {text!r}")
        start, stop, step = parts
        if step <= 0:
            raise ValueError("distance step must be positive")
        out = []
        d = start
        while d <= stop + 1e-9:
            out.append(round(d, 9))
            d += step
        return out
    return [float(x) for x in text.split(",") if x.strip()]


def _cmd_sweep(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    params = _build_params(r)
    model = _build_model(r)
    distances = _parse_distances(r.get("distances", "0:80:5"))
    target = None if args.no_calibrate else float(r.get("target_qber", defaults.REFERENCE_BOTH_SEND_QBER))
    points = keyrate.sweep_distance(
        params, model, distances,
        n_windows=float(_windows(r, 1e12)),
        target_qber=target,
    )
    _emit(dataio.emit_sweep_csv(points), args.out)
    return 0


def _parse_range(text: str, name: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{name} must be lo:hi, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not 0 < lo < hi:
        raise ValueError(f"{name} must satisfy 0 < lo < hi, got {text!r}")
    return lo, hi


def _cmd_optimize(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    params = _build_params(r)
    model = _build_model(r)
    d_lo, d_hi = _parse_range(r.get("delta_deg_range", "5:90"), "--delta-deg-range")
    result = keyrate.optimize_params(
        model,
        params,
        mu_bounds=_parse_range(r.get("mu_range", "2e-4:2e-2"), "--mu-range"),
        epsilon_bounds=_parse_range(r.get("epsilon_range", "2e-3:2e-1"), "--epsilon-range"),
        delta_bounds=(math.radians(d_lo), math.radians(d_hi)),
        n_windows=float(_windows(r, 1e12)),
    )
    p = result.params
    lines = [
        f"best mu          {p.mu:.6g}",
        f"best epsilon     {p.epsilon:.6g}",
        f"best delta [deg] {math.degrees(p.delta_threshold):.4f}",
        f"rate per window  {result.rate_per_pulse:.6e}",
        f"evaluations      {result.evaluations}",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_qber_table(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    params = _build_params(r)
    # (threshold in degrees, tallies, total windows) per row, from one
    # simulation or from the files.
    sources = []
    if args.simulate:
        deltas = [float(x) for x in str(r.get("delta_list", "2,5,8,10,12,15,30,45")).split(",")]
        thresholds = [math.radians(d) for d in deltas]
        n_windows = _windows(r, 1e7)
        result = simulate_session(
            params, _build_model(r), n_windows, int(r.get("seed", 1)),
            workers=int(r.get("workers", 1)), thresholds=thresholds,
        )
        sources = [(deg, result.by_threshold[thr], n_windows) for deg, thr in zip(deltas, thresholds)]
    else:
        for path in args.infile or [defaults.bundled_tally_path()]:
            raw = dataio.load_raw_tallies(path, strict=False)
            if raw.delta_threshold is None:
                raise dataio.ParseError(
                    f"{path}: missing Delta-Degrees metadata needed to label the row",
                    key="Delta-Degrees",
                )
            sources.append((math.degrees(raw.delta_threshold), raw.tallies, raw.n_total_pulses))
    rows = []
    for deg, tallies, n_total in sorted(sources, key=lambda source: source[0]):
        u, v = estimator.tallies_to_sets(tallies, swap_detectors=args.swap_detectors)
        try:
            rate = keyrate.analyze_tallies(u, v, params, n_total_pulses=n_total).rate_per_pulse
        except EstimationError:
            rate = None
        rows.append((deg, estimator.qber_both_send(u, v), rate))

    if args.format == "json":
        payload = [
            {
                "delta_deg": deg,
                "detections": stats.detections,
                "qber": stats.qber,
                "rate_per_pulse": rate,
            }
            for deg, stats, rate in rows
        ]
        _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), args.out)
        return 0
    lines = [f"{'delta_deg':>9}  {'detections':>10}  {'qber':>8}  {'rate_per_pulse':>14}"]
    for deg, stats, rate in rows:
        qber = f"{stats.qber:.4%}" if stats.qber is not None else "n/a"
        rate_s = f"{rate:.4e}" if rate is not None else "n/a"
        lines.append(f"{deg:>9.4g}  {stats.detections:>10.0f}  {qber:>8}  {rate_s:>14}")
    _emit("\n".join(lines), args.out)
    return 0


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, help="signal mean photon number")
    p.add_argument("--epsilon", type=float, help="per-window send probability")
    p.add_argument("--delta-deg", dest="delta_deg", type=float, help="phase threshold in degrees")
    p.add_argument("--pt", type=float, help="test-set fraction")
    p.add_argument("--f-ec", dest="f_ec", type=float, help="error-correction inefficiency")
    p.add_argument("--config", help="JSON config file (flags still win)")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--distance-km", dest="distance_km", type=float, help="total fibre length")
    p.add_argument("--visibility", type=float, help="interference visibility override")
    p.add_argument("--dark-prob", dest="dark_prob", type=float, help="per-window dark-click probability")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scfqkd",
        description="Simulate and analyse the sending-or-not-sending protocol with phase post-selection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyse a raw tally file (bundled dataset by default)")
    _add_param_flags(p)
    p.add_argument("--in", dest="infile", help="raw tally file (default: bundled 50 km dataset)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--swap-detectors", action="store_true", help="map L=ch1, R=ch0")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo session; writes a raw tally file")
    _add_param_flags(p)
    _add_model_flags(p)
    p.add_argument("--windows", type=float, help="signal windows to simulate (default 1e7)")
    p.add_argument("--seed", type=int, help="random seed (default 1)")
    p.add_argument("--workers", type=int, help="parallel worker processes (default 1)")
    p.add_argument("--out", required=True, help="raw tally output file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--swap-detectors", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="expected-value key rate versus distance")
    _add_param_flags(p)
    _add_model_flags(p)
    p.add_argument("--distances", help="start:stop:step in km, or comma list (default 0:80:5)")
    p.add_argument("--windows", type=float, help="windows per evaluation (default 1e12)")
    p.add_argument("--target-qber", dest="target_qber", type=float,
                   help="both-send QBER target for visibility calibration")
    p.add_argument("--no-calibrate", action="store_true",
                   help="keep the model's visibility instead of calibrating")
    p.add_argument("--out", help="CSV output file (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="search mu, epsilon, delta for the best rate")
    _add_param_flags(p)
    _add_model_flags(p)
    p.add_argument("--mu-range", dest="mu_range", help="lo:hi (default 2e-4:2e-2)")
    p.add_argument("--epsilon-range", dest="epsilon_range", help="lo:hi (default 2e-3:2e-1)")
    p.add_argument("--delta-deg-range", dest="delta_deg_range", help="lo:hi degrees (default 5:90)")
    p.add_argument("--windows", type=float, help="windows per evaluation (default 1e12)")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("qber-table", help="both-send QBER and detections per threshold")
    _add_param_flags(p)
    _add_model_flags(p)
    p.add_argument("--in", dest="infile", action="append",
                   help="raw tally file; repeat for several thresholds")
    p.add_argument("--simulate", action="store_true", help="simulate instead of reading files")
    p.add_argument("--delta-list", dest="delta_list",
                   help="comma-separated thresholds in degrees for simulation mode")
    p.add_argument("--windows", type=float, help="windows in simulation mode (default 1e7)")
    p.add_argument("--seed", type=int, help="seed in simulation mode (default 1)")
    p.add_argument("--workers", type=int)
    p.add_argument("--swap-detectors", action="store_true")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_qber_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (dataio.ParseError, EstimationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
