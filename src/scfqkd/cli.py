"""Command-line interface: ``scfqkd analyze``, ``simulate``, ``sweep``,
``optimize`` and ``qber-table``.

Each subcommand takes only the options that change its output, each
declared once in :data:`COMMANDS` with its help and built-in default, which
``--help`` shows; flags are not abbreviated. A call that names a subcommand
builds its parser only; any other call builds all five. Options resolve as
flags over config file over built-in defaults. The config file is a JSON
object whose keys are the long flag names with dashes as underscores (for
example ``{"mu": 0.002, "no_calibrate": true}``); a value its flag would
refuse, or one out of range, is an error naming the key, and keys the
subcommand does not take are ignored. A tally file's ``Delta-Degrees`` and
``Mu`` win over ``--delta-deg`` and ``--mu``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import __version__, dataio, defaults, estimator, keyrate, phasecore
from .channelsim import MIN_CHUNKS_PER_PROCESS, ChannelModel, ProtocolParams, simulate_session, window_count
from .estimator import EstimationError

_PARAMS = defaults.reference_params()
_MODEL = defaults.reference_model()
_BUNDLED = defaults.bundled_tally_path()

# Option groups shared by several subcommands: config key -> (help, built-in
# default, argparse keywords). The flag is the key with underscores as dashes.
COMMON = {
    "config": ("JSON config file (flags still win)", None, {}),
    "out": ("write the output here instead of stdout", None, {}),
}
# A subcommand takes the protocol options it reads; main() gives the others their
# defaults. The threshold's default is rounded to the 30 a user types and a file records.
PROTOCOL = {
    "mu": ("signal mean photon number", _PARAMS.mu, {"type": float}),
    "epsilon": ("per-window send probability", _PARAMS.epsilon, {"type": float}),
    "delta_deg": ("phase threshold in degrees", round(math.degrees(_PARAMS.delta_threshold), 9),
                  {"type": float}),
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
    "workers": ("processes that compute chunks, this one included, at most one per "
                f"{MIN_CHUNKS_PER_PROCESS} chunks",
                1, {"type": int}),
}
REPORT = {
    "format": ("report format", "table", {"choices": ("table", "json")}),
    "swap_detectors": ("map L=ch1, R=ch0", False, {"action": "store_true"}),
}


def _radians(degrees: list, flag: str, text: str) -> list:
    """``degrees`` in radians; a ValueError naming ``flag`` and the value as
    typed, ``text``, unless each obeys the ``delta_deg`` range rule."""
    rule, ok = phasecore.RANGES["delta_deg"]
    if not all(ok(d) for d in degrees):
        raise ValueError(f"{flag} must {rule}, got {text}")
    return [math.radians(d) for d in degrees]


def _params(o: dict) -> ProtocolParams:
    (delta,) = _radians([o["delta_deg"]], "--delta-deg", f"{o['delta_deg']:g}")
    return ProtocolParams(mu=o["mu"], epsilon=o["epsilon"], f_ec=o["f_ec"], p_t=o["pt"],
                          delta_threshold=delta)


def _recorded(params: ProtocolParams, raw) -> ProtocolParams:
    """``params`` with the mu that the tally file ``raw`` records, if any."""
    return replace(params, mu=raw.metadata["Mu"]) if "Mu" in raw.metadata else params


def _model(o: dict) -> ChannelModel:
    model = defaults.reference_model(o["distance_km"])
    return replace(model, visibility=o["visibility"], dark_prob=o["dark_prob"])


def _session(o: dict, params: ProtocolParams, thresholds=None):
    """Simulate the session the options describe: (windows, result)."""
    model, n_windows = _model(o), window_count(o["windows"], "windows")
    return n_windows, simulate_session(params, model, n_windows, o["seed"],
                                       workers=o["workers"], thresholds=thresholds)


def _analyse(o: dict, params: ProtocolParams, tallies, n_total, delta_threshold=None):
    """The (test, key) arrays of ``tallies`` and their key-rate report,
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
    _, _, report = _analyse(o, _recorded(params, raw), raw.tallies, raw.n_total_pulses, raw.delta_threshold)
    if isinstance(report, EstimationError):
        raise report
    _emit(dataio.emit_report(report, fmt=o["format"]), o["out"])


def _cmd_simulate(o: dict) -> None:
    params = _params(o)
    n_windows, result = _session(o, params)
    dataio.write_raw_tallies(o["out"], result.tallies, {
        "Delta-Degrees": o["delta_deg"], "Mu": params.mu,
        "Epsilon": params.epsilon, "Pt": params.p_t, "F-EC": params.f_ec,
        "Windows": n_windows, "Seed": o["seed"],
    })
    _, _, report = _analyse(o, params, result.tallies, n_windows)
    if isinstance(report, EstimationError):
        # JSON stdout holds a report or nothing, so the notice goes to stderr there.
        print(f"tally file written; no key-rate report: {report}",
              file=sys.stderr if o["format"] == "json" else sys.stdout)
    else:
        print(dataio.emit_report(report, fmt=o["format"]))


_MAX_DISTANCES = 10**6


def _numbers(text: str, flag: str, sep: str = ",") -> list:
    """The numbers of ``text`` between ``sep``, blank items skipped; a
    non-number or none at all raises a ValueError naming ``flag``."""
    try:
        values = [float(x) for x in text.split(sep) if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"{flag} must list numbers separated by {sep!r}, got {text!r}")
    return values


def _parse_distances(text: str) -> list:
    ranged = ":" in text
    values = _numbers(text, "--distances", ":" if ranged else ",")
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


def _parse_range(text: str, name: str, param: str):
    """The (lo, hi) of ``text``; a ValueError naming the flag ``name`` unless ``param``'s bounds rule holds."""
    values = _numbers(text, name, ":")
    if len(values) != 2 or text.count(":") != 1:
        raise ValueError(f"{name} must be lo:hi, got {text!r}")
    if rule := phasecore.broken_bounds_rule(param, *values):
        raise ValueError(f"{name} must {rule}, got {text!r}")
    return tuple(values)


def _cmd_optimize(o: dict) -> None:
    params, model = _params(o), _model(o)
    result = keyrate.optimize_params(
        model, params,
        mu_bounds=_parse_range(o["mu_range"], "--mu-range", "mu"),
        epsilon_bounds=_parse_range(o["epsilon_range"], "--epsilon-range", "epsilon"),
        delta_bounds=tuple(map(math.radians, _parse_range(o["delta_deg_range"], "--delta-deg-range",
                                                          "delta_deg"))),
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
    # (degrees, tallies, total windows, parameters) per row, from a simulation or files.
    sources = []
    if o["simulate"]:
        deltas = _numbers(o["delta_list"], "--delta-list")
        thresholds = _radians(deltas, "--delta-list", repr(o["delta_list"]))
        n_windows, result = _session(o, params, thresholds)
        sources = [(deg, result.by_threshold[thr], n_windows, params) for deg, thr in zip(deltas, thresholds)]
    else:
        for path in o["in"]:
            raw = dataio.load_raw_tallies(path, strict=False)
            if raw.delta_threshold is None:
                raise dataio.ParseError(f"{path}: missing Delta-Degrees metadata needed to "
                                        "label the row", key="Delta-Degrees")
            sources.append((float(raw.metadata["Delta-Degrees"]), raw.tallies, raw.n_total_pulses,
                            _recorded(params, raw)))
    rows = []
    for deg, tallies, n_total, row_params in sorted(sources, key=lambda source: source[0]):
        u, v, report = _analyse(o, row_params, tallies, n_total)
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
        **COMMON, **{k: PROTOCOL[k] for k in ("mu", "delta_deg", "f_ec")}, **REPORT,
        "in": ("raw tally file", _BUNDLED, {})}),
    "simulate": ("Monte Carlo session; writes a raw tally file", _cmd_simulate, {
        **COMMON, **PROTOCOL, **MODEL, **SESSION, **REPORT,
        "out": ("raw tally output file", None, {"required": True})}),
    "sweep": ("expected-value key rate versus distance", _cmd_sweep, {
        **COMMON, **PROTOCOL, **MODEL, "windows": ("windows per evaluation", 1e12, {}),
        "distances": ("start:stop:step in km, or comma list", "0:80:5", {}),
        "target_qber": ("both-send QBER target for visibility calibration",
                        defaults.REFERENCE_BOTH_SEND_QBER, {"type": float}),
        "no_calibrate": ("keep the model's visibility, do not calibrate", False, {"action": "store_true"}),
    }),
    "optimize": ("search mu, epsilon, delta for the best rate", _cmd_optimize, {
        **COMMON, **{k: PROTOCOL[k] for k in ("pt", "f_ec")}, **MODEL,
        "mu_range": ("lo:hi", "2e-4:2e-2", {}),
        "epsilon_range": ("lo:hi", "2e-3:2e-1", {}),
        "delta_deg_range": ("lo:hi degrees", "5:90", {}),
    }),
    "qber-table": ("both-send QBER and detections per threshold", _cmd_qber_table, {
        **COMMON, **{k: PROTOCOL[k] for k in ("mu", "epsilon", "pt", "f_ec")}, **MODEL, **SESSION, **REPORT,
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  When ``command`` names a subcommand, only
    that subcommand's parser is built; otherwise every subcommand's is, for
    the top-level help and the errors that list the subcommands."""
    parser = argparse.ArgumentParser(prog="scfqkd", description="Simulate and analyse the "
                                     "sending-or-not-sending protocol with phase post-selection.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    chosen = {command: COMMANDS[command]} if command in COMMANDS else COMMANDS
    sub = parser.add_subparsers(dest="command", required=True)
    if chosen is not COMMANDS:  # the usage line a stray argument prints lists them all
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    for name, (text, _, options) in chosen.items():
        # Options not given stay out of the namespace, for main() to fill in. No
        # flag is abbreviated, so optimize does not read --mu as --mu-range.
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS, allow_abbrev=False)
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


# Library parameters whose flag is named otherwise.
_KEY_OF = {"p_t": "pt", "total_km": "distance_km", "distance": "distances"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    given = vars(build_parser(argv[0] if argv else None).parse_args(argv))
    _, handler, options = COMMANDS[given.pop("command")]
    config = {}
    try:
        if "config" in given:
            config = _load_config(given["config"], options)
        builtin = {key: default for key, (_, default, _) in {**PROTOCOL, **options}.items()}
        handler({**builtin, **config, **given})
    except (dataio.ParseError, EstimationError, ValueError, OSError) as exc:
        # A range error starts with its parameter's name or flag; print the
        # flag, or the config key when the value came from the config file.
        name, _, rest = str(exc).partition(" ")
        key = _KEY_OF.get(name, name.removeprefix("--").replace("-", "_"))
        if key in options and rest.startswith("must "):
            exc = (f"config key {key!r}: {key}" if key in config.keys() - given.keys()
                   else "--" + key.replace("_", "-")) + " " + rest
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
