"""Command-line interface: ``scfqkd analyze``, ``simulate``, ``sweep``,
``optimize`` and ``qber-table``.

Each subcommand and each of its options is declared once, in
:data:`COMMANDS`, with its help and built-in default; ``--help`` shows each
default. Options resolve as flags over config file over built-in defaults.
The config file is a JSON object whose keys are the long flag names with
dashes replaced by underscores (for example ``{"mu": 0.002, "distance_km":
50, "no_calibrate": true}``). Every long flag is a config key; a value its
flag would refuse is an error naming the key, and keys the subcommand does
not take are ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import __version__, dataio, defaults, estimator, keyrate
from .channelsim import ChannelModel, ProtocolParams, simulate_session, window_count
from .estimator import EstimationError

_PARAMS = defaults.reference_params()
_MODEL = defaults.reference_model()
_BUNDLED = defaults.bundled_tally_path()

# Option groups shared by several subcommands: config key -> (help, built-in
# default, argparse keywords). The flag is the key with underscores as dashes.
COMMON = {
    "config": ("JSON config file (flags still win)", None, {}),
    "out": ("write the output here instead of stdout", None, {}),
    "mu": ("signal mean photon number", _PARAMS.mu, {"type": float}),
    "epsilon": ("per-window send probability", _PARAMS.epsilon, {"type": float}),
    "delta_deg": ("phase threshold in degrees", math.degrees(_PARAMS.delta_threshold), {"type": float}),
    "pt": ("test-set fraction", _PARAMS.p_t, {"type": float}),
    "f_ec": ("error-correction inefficiency", _PARAMS.f_ec, {"type": float}),
}
MODEL = {
    "distance_km": ("total fibre length in km", 50.0, {"type": float}),
    "visibility": ("interference visibility", _MODEL.visibility, {"type": float}),
    "dark_prob": ("per-window dark-click probability", _MODEL.dark_prob, {"type": float}),
}
# ``windows`` has no argparse type: window_count() checks a flag and a config value alike.
SESSION = {
    "windows": ("signal windows to simulate", 1e8, {}),
    "seed": ("random seed", 1, {"type": int}),
    "workers": ("processes that compute chunks, this one included, at most one per 3 chunks",
                1, {"type": int}),
}
EXPECTED = {"windows": ("windows per evaluation", 1e12, {})}
REPORT = {
    "format": ("report format", "table", {"choices": ("table", "json")}),
    "swap_detectors": ("map L=ch1, R=ch0", False, {"action": "store_true"}),
}


def _params(o: dict) -> ProtocolParams:
    return ProtocolParams(mu=o["mu"], epsilon=o["epsilon"], f_ec=o["f_ec"], p_t=o["pt"],
                          delta_threshold=math.radians(o["delta_deg"]))


def _model(o: dict) -> ChannelModel:
    model = defaults.reference_model(o["distance_km"])
    return replace(model, visibility=o["visibility"], dark_prob=o["dark_prob"])


def _session(o: dict, params: ProtocolParams, thresholds=None):
    """Simulate the session the options describe: (windows, result)."""
    model, n_windows = _model(o), window_count(o["windows"], "windows")
    return n_windows, simulate_session(params, model, n_windows, o["seed"],
                                       workers=o["workers"], thresholds=thresholds)


def _analyse(o: dict, params: ProtocolParams, tallies, n_total, delta_threshold=None):
    """The (test, key) tally sets of ``tallies`` and their key-rate report,
    or the :class:`EstimationError` that stands in for the report."""
    u, v = estimator.tallies_to_sets(tallies, swap_detectors=o["swap_detectors"])
    try:
        report = keyrate.analyze_tallies(u, v, params, n_total_pulses=n_total,
                                         delta_threshold=delta_threshold)
    except EstimationError as exc:
        report = exc
    return u, v, report


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


def _cmd_analyze(o: dict) -> None:
    params = _params(o)
    raw = dataio.load_raw_tallies(o["in"], strict=True)
    _, _, report = _analyse(o, params, raw.tallies, raw.n_total_pulses, raw.delta_threshold)
    if isinstance(report, EstimationError):
        raise report
    _emit(dataio.emit_report(report, fmt=o["format"]), o["out"])


def _cmd_simulate(o: dict) -> None:
    params = _params(o)
    n_windows, result = _session(o, params)
    dataio.write_raw_tallies(o["out"], result.tallies, {
        "Delta-Degrees": math.degrees(params.delta_threshold), "Mu": params.mu,
        "Epsilon": params.epsilon, "Pt": params.p_t, "F-EC": params.f_ec,
        "Windows": n_windows, "Seed": o["seed"],
    })
    _, _, report = _analyse(o, params, result.tallies, n_windows)
    if isinstance(report, EstimationError):
        print(f"tally file written; no key-rate report: {report}")
    else:
        print(dataio.emit_report(report, fmt=o["format"]))


_MAX_DISTANCES = 10**6


def _parse_distances(text: str) -> list:
    ranged = ":" in text
    values = [float(x) for x in text.split(":" if ranged else ",") if x.strip()]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"--distances must be finite, got {text!r}")
    if ranged:
        if len(values) != 3 or values[2] <= 0:
            raise ValueError(f"--distances range must be start:stop:step, step > 0, got {text!r}")
        start, stop, step = values
        steps = (stop + 1e-9 - start) / step
        if start + step == start or not steps < _MAX_DISTANCES:
            raise ValueError(
                f"--distances range must advance by its step and give at most "
                f"{_MAX_DISTANCES} distances, got {text!r}"
            )
        values = [round(start + k * step, 9) for k in range(math.floor(steps) + 1)]
    if not values:
        raise ValueError(f"--distances gives no distance, got {text!r}")
    return values


def _cmd_sweep(o: dict) -> None:
    points = keyrate.sweep_distance(
        _params(o), _model(o), _parse_distances(o["distances"]),
        n_windows=float(window_count(o["windows"], "windows")),
        target_qber=None if o["no_calibrate"] else o["target_qber"],
    )
    _emit(dataio.emit_sweep_csv(points), o["out"])


def _parse_range(text: str, name: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{name} must be lo:hi, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not 0 < lo < hi:
        raise ValueError(f"{name} must satisfy 0 < lo < hi, got {text!r}")
    return lo, hi


def _cmd_optimize(o: dict) -> None:
    params, model = _params(o), _model(o)
    d_lo, d_hi = _parse_range(o["delta_deg_range"], "--delta-deg-range")
    result = keyrate.optimize_params(
        model, params,
        mu_bounds=_parse_range(o["mu_range"], "--mu-range"),
        epsilon_bounds=_parse_range(o["epsilon_range"], "--epsilon-range"),
        delta_bounds=(math.radians(d_lo), math.radians(d_hi)),
        n_windows=float(window_count(o["windows"], "windows")),
    )
    p = result.params
    lines = [
        f"best mu          {p.mu:.6g}",
        f"best epsilon     {p.epsilon:.6g}",
        f"best delta [deg] {math.degrees(p.delta_threshold):.4f}",
        f"rate per window  {result.rate_per_pulse:.6e}",
        f"evaluations      {result.evaluations}",
    ]
    _emit("\n".join(lines), o["out"])


def _cmd_qber_table(o: dict) -> None:
    params = _params(o)
    # (threshold in degrees, tallies, total windows) per row, from a simulation or files.
    sources = []
    if o["simulate"]:
        deltas = [float(x) for x in o["delta_list"].split(",")]
        thresholds = [math.radians(d) for d in deltas]
        n_windows, result = _session(o, params, thresholds)
        sources = [(deg, result.by_threshold[thr], n_windows) for deg, thr in zip(deltas, thresholds)]
    else:
        for path in o["in"]:
            raw = dataio.load_raw_tallies(path, strict=False)
            if raw.delta_threshold is None:
                raise dataio.ParseError(f"{path}: missing Delta-Degrees metadata needed to "
                                        "label the row", key="Delta-Degrees")
            sources.append((math.degrees(raw.delta_threshold), raw.tallies, raw.n_total_pulses))
    rows = []
    for deg, tallies, n_total in sorted(sources, key=lambda source: source[0]):
        u, v, report = _analyse(o, params, tallies, n_total)
        rate = None if isinstance(report, EstimationError) else report.rate_per_pulse
        rows.append((deg, estimator.qber_both_send(u, v), rate))

    if o["format"] == "json":
        payload = [{"delta_deg": deg, "detections": stats.detections, "qber": stats.qber,
                    "rate_per_pulse": rate} for deg, stats, rate in rows]
        _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), o["out"])
        return
    lines = [f"{'delta_deg':>9}  {'detections':>10}  {'qber':>8}  {'rate_per_pulse':>14}"]
    for deg, stats, rate in rows:
        qber = f"{stats.qber:.4%}" if stats.qber is not None else "n/a"
        rate_s = f"{rate:.4e}" if rate is not None else "n/a"
        lines.append(f"{deg:>9.4g}  {stats.detections:>10.0f}  {qber:>8}  {rate_s:>14}")
    _emit("\n".join(lines), o["out"])


# Subcommand -> (help, handler, options), options keyed as the groups above.
COMMANDS = {
    "analyze": ("analyse a raw tally file (bundled dataset by default)", _cmd_analyze, {
        **COMMON, **REPORT, "in": ("raw tally file", _BUNDLED, {})}),
    "simulate": ("Monte Carlo session; writes a raw tally file", _cmd_simulate, {
        **COMMON, **MODEL, **SESSION, **REPORT,
        "out": ("raw tally output file", None, {"required": True})}),
    "sweep": ("expected-value key rate versus distance", _cmd_sweep, {
        **COMMON, **MODEL, **EXPECTED,
        "distances": ("start:stop:step in km, or comma list", "0:80:5", {}),
        "target_qber": ("both-send QBER target for visibility calibration",
                        defaults.REFERENCE_BOTH_SEND_QBER, {"type": float}),
        "no_calibrate": ("keep the model's visibility, do not calibrate", False, {"action": "store_true"}),
    }),
    "optimize": ("search mu, epsilon, delta for the best rate", _cmd_optimize, {
        **COMMON, **MODEL, **EXPECTED,
        "mu_range": ("lo:hi", "2e-4:2e-2", {}),
        "epsilon_range": ("lo:hi", "2e-3:2e-1", {}),
        "delta_deg_range": ("lo:hi degrees", "5:90", {}),
    }),
    "qber-table": ("both-send QBER and detections per threshold", _cmd_qber_table, {
        **COMMON, **MODEL, **SESSION, **REPORT,
        "in": ("raw tally file; repeat for several thresholds", [_BUNDLED], {"action": "append"}),
        "simulate": ("simulate instead of reading files", False, {"action": "store_true"}),
        "delta_list": ("thresholds in degrees for --simulate", "2,5,8,10,12,15,30,45", {}),
    }),
}


def _help(text: str, default) -> str:
    if default is None or isinstance(default, bool):
        return text
    if isinstance(default, list):
        default = ", ".join(default)
    shown = f"{default:g}" if isinstance(default, float) else default
    return f"{text} (default {shown})".replace("%", "%%")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scfqkd", description="Simulate and analyse the "
                                     "sending-or-not-sending protocol with phase post-selection.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, options) in COMMANDS.items():
        # Options not given stay out of the namespace, so that config values
        # and built-in defaults can fill them in main().
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for key, (help_text, default, kwargs) in options.items():
            p.add_argument("--" + key.replace("_", "-"), help=_help(help_text, default), **kwargs)
    return parser


def _config_value(key: str, value, kwargs: dict):
    """A config file's ``key``, checked and converted as its flag would be."""
    action = kwargs.get("action")
    items = value if action == "append" and isinstance(value, list) else [value]
    scalars = all(isinstance(x, (str, int, float)) and not isinstance(x, bool) for x in items)
    try:
        if action == "store_true" and isinstance(value, bool):
            return value
        if action != "store_true" and scalars:
            items = [kwargs.get("type", str)(str(x)) for x in items]
            if all(x in kwargs.get("choices", (x,)) for x in items):
                return items if action == "append" else items[0]
    except ValueError:
        pass
    raise ValueError(f"config key {key!r}: its flag refuses the value {value!r}")


def _load_config(path: str, options: dict) -> dict:
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return {key: _config_value(key, value, options[key][2])
            for key, value in loaded.items() if key in options}


def main(argv=None) -> int:
    given = vars(build_parser().parse_args(argv))
    _, handler, options = COMMANDS[given.pop("command")]
    try:
        config = _load_config(given["config"], options) if "config" in given else {}
        builtin = {key: default for key, (_, default, _) in options.items()}
        handler({**builtin, **config, **given})
    except (dataio.ParseError, EstimationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
