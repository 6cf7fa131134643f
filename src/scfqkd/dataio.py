"""Reading and writing raw tally files, reports and sweep tables.

Raw tally files are line oriented: one ``name value`` pair per line,
separated by whitespace, with ``#`` comments and blank lines ignored.  The
cell names mirror the layout of the reference experiment's count tables:

    Sent-<CD>             windows produced, by joint state CD
    Sent-<CD>-Δ           windows surviving the phase threshold
    Sent-SS<CD>-Δ         surviving windows assigned to the key set
    Sent-TT<CD>-Δ         surviving windows assigned to the test set
    Detected-SS<CD>-ch<k> effective key-set windows on physical channel k
    Detected-TT<CD>-ch<k> effective test-set windows on physical channel k

CD is two digits, the first party's digit first, 1 = sent.  The Greek
letter may be spelled ``Delta`` (``Sent-00-Delta``); files written here use
the glyph.  Every cell is one entry of the package's one tally layout,
:attr:`SessionTallies.counts <scfqkd.channelsim.SessionTallies>` (state by
sent, selected and (subset, cell) columns), and :data:`CELL_INDEX` maps
each name to its flat index there; reading and writing both go through
that table.  Physical channels are kept as recorded: the estimator reads
channel 0 as detector side L unless told to swap.

A file's counts obey the tally rules, per state selected <= sent, SS + TT =
selected and detections <= windows, except that SS + TT may miss by
max(:data:`SPLIT_TOLERANCE` * selected, 1) windows, as recorded data are
rounded (:func:`~scfqkd.channelsim.broken_tally_rule`).  A rule on an absent
windows, sent or selected cell holds; an absent detection channel counts as 0.

Metadata keys (``Delta-Degrees``, ``Mu``, ``Epsilon``, ``Pt``, ``F-EC``,
``Windows``, ``Seed``) may precede the cells.  Unknown keys produce a
warning, never a failure.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

import numpy as np

from .channelsim import STATE_LABELS, SessionTallies, broken_tally_rule
from .estimator import KeyRateReport, _mu_rule, tallies_to_sets
from .phasecore import RANGES

_DELTA = "Δ"

METADATA_KEYS = ("Delta-Degrees", "Mu", "Epsilon", "Pt", "F-EC", "Windows", "Seed")

CELL_INDEX = {
    name.format(cd=cd, k=k): 8 * i + column + k
    for name, column, channels in (
        ("Sent-{cd}", 0, (0,)),
        (f"Sent-{{cd}}-{_DELTA}", 1, (0,)),
        (f"Sent-SS{{cd}}-{_DELTA}", 5, (0,)),
        (f"Sent-TT{{cd}}-{_DELTA}", 2, (0,)),
        ("Detected-SS{cd}-ch{k}", 6, (0, 1)),
        ("Detected-TT{cd}-ch{k}", 3, (0, 1)),
    )
    for i, cd in enumerate(STATE_LABELS)
    for k in channels
}
"""Raw-file cell name -> index into ``SessionTallies.counts.ravel()``, in
file order."""

CELL_KEYS = tuple(CELL_INDEX)
_KEYS_BY_INDEX = sorted(CELL_INDEX, key=CELL_INDEX.get)
# Each name a file may give -> its key: the cells, the metadata keys and the
# ``-Delta`` spelling of each cell named with ``-Δ``.
_NAMES = {name: name for name in (*CELL_INDEX, *METADATA_KEYS)}
_NAMES.update({name.replace(_DELTA, "Delta"): name for name in CELL_INDEX if _DELTA in name})
# The metadata that the analysis reads -> the rule a value breaks, or None.
_BROKEN_RULE = {"Delta-Degrees": lambda v: None if RANGES["delta_deg"][1](v) else RANGES["delta_deg"][0],
                "Mu": _mu_rule}

SPLIT_TOLERANCE = 0.005
"""Allowed relative mismatch between SS + TT and the selected total,
covering rounded counts in recorded data sets."""


class ParseError(ValueError):
    """A raw tally file could not be parsed; names the offending key/line."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        super().__init__(message)
        self.key = key
        self.line = line


class ConsistencyError(ParseError):
    """A raw tally file parsed but its counts contradict each other."""


@dataclass
class RawTallies:
    """A loaded raw tally file: session-shaped counts plus metadata."""

    tallies: SessionTallies
    metadata: dict = field(default_factory=dict)

    @property
    def n_total_pulses(self) -> float:
        return self.tallies.n_windows

    @property
    def delta_threshold(self) -> float | None:
        """Post-selection threshold in radians, if the file recorded it."""
        deg = self.metadata.get("Delta-Degrees")
        return math.radians(deg) if deg is not None else None

    def tally_sets(self, swap_detectors: bool = False):
        """:func:`~scfqkd.estimator.tallies_to_sets` of these tallies."""
        return tallies_to_sets(self.tallies, swap_detectors=swap_detectors)


def _parse_lines(text: str, source: str):
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ParseError(f"{source}:{lineno}: expected 'name value', got {raw!r}", line=lineno)
        key = _NAMES.get(parts[0])
        name = key or (parts[0][:-6] + "-" + _DELTA if parts[0].endswith("-Delta") else parts[0])
        try:
            value = int(parts[1])
        except ValueError:
            try:
                value = float(parts[1])
            except ValueError:
                raise ParseError(f"{source}:{lineno}: value of {name!r} is not a number: "
                                 f"{parts[1]!r}", key=name, line=lineno) from None
        if key is None:
            warnings.warn(f"{source}: ignoring unknown key {name!r}", stacklevel=3)
            continue
        if key in values:
            raise ParseError(f"{source}: duplicate key {key!r}", key=key, line=lineno)
        if isinstance(value, float) and not math.isfinite(value):
            raise ParseError(f"{source}:{lineno}: value of {key!r} is not finite: {parts[1]!r}",
                             key=key, line=lineno)
        if value < 0 and key in CELL_INDEX:
            raise ParseError(f"{source}: negative count for {key!r}: {value}", key=key, line=lineno)
        # Counts and the metadata the analysis reads must fit a float.
        if value > sys.float_info.max and (key in CELL_INDEX or key in _BROKEN_RULE):
            what = "count for" if key in CELL_INDEX else "value of"
            raise ParseError(f"{source}:{lineno}: {what} {key!r} is too large for a float: "
                             f"{parts[1]!r}", key=key, line=lineno)
        if key in _BROKEN_RULE and (rule := _BROKEN_RULE[key](value)):
            raise ParseError(f"{source}:{lineno}: {key!r} must {rule}, got {value}", key=key, line=lineno)
        values[key] = value
    return values


def load_raw_tallies(path, strict: bool = True) -> RawTallies:
    """Load a raw tally file.

    With ``strict=True`` every cell of the full table must be present;
    missing keys raise a :class:`ParseError` that lists all of them.  With
    ``strict=False`` any subset of cells is accepted (partial tables still
    support the both-send QBER summaries).  Both modes apply the tally
    rules of the module docstring, with its split allowance.
    """
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    values = _parse_lines(text, path)
    if strict:
        missing = [k for k in CELL_KEYS if k not in values]
        if missing:
            raise ParseError(
                f"{path}: missing {len(missing)} required cells: {', '.join(missing)}",
                key=missing[0],
            )
    cells = [values.get(k) for k in _KEYS_BY_INDEX]
    if broken := broken_tally_rule(cells, SPLIT_TOLERANCE):
        key = _KEYS_BY_INDEX[broken[0]]
        raise ConsistencyError(f"{path}: {key}: {broken[1]}", key=key)

    # int64 when every cell is an integer that fits it, else float64.
    counts = np.array([0 if c is None else c for c in cells]).reshape(4, 8)
    if counts.dtype == object:
        counts = counts.astype(float)
    tallies = SessionTallies(
        n_windows=sum(counts[:, 0].tolist()),
        threshold=math.radians(values["Delta-Degrees"]) if "Delta-Degrees" in values else math.nan,
        counts=counts,
    )
    metadata = {k: values[k] for k in METADATA_KEYS if k in values}
    return RawTallies(tallies=tallies, metadata=metadata)


def _format_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    f = float(v)
    return str(int(f)) if f.is_integer() and abs(f) < 2**53 else repr(f)


def write_raw_tallies(path, tallies: SessionTallies, metadata: Mapping | None = None) -> None:
    """Write session tallies in the raw file format.

    Cells are emitted in canonical order, metadata first, so equal inputs
    produce byte-identical files.
    """
    lines = []
    for k in METADATA_KEYS:
        if metadata and k in metadata:
            lines.append(f"{k}\t{_format_value(metadata[k])}")
    flat = tallies.counts.ravel().tolist()
    lines += [f"{k}\t{_format_value(flat[i])}" for k, i in CELL_INDEX.items()]
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Reports and sweep tables
# ---------------------------------------------------------------------------

def report_to_dict(report: KeyRateReport) -> dict:
    """The report's fields; ``e_u`` and ``rate_per_pulse`` hold None, not NaN, where undefined."""
    return dict(vars(report))


def _json_object(d: dict, indent: str = "\n") -> str:
    """``d`` as ``json.dumps(d, indent=2, sort_keys=True, allow_nan=False)``
    writes it, ``indent`` being the line break before its closing brace, for
    str keys and float, int, bool, None or dict values. As there, a
    non-finite float raises ValueError and any other value TypeError."""
    inner, items = indent + "  ", []
    for key in sorted(d):
        v = d[key]
        if isinstance(v, float):
            if not math.isfinite(v):
                raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
            text = float.__repr__(v)
        elif isinstance(v, dict):
            text = _json_object(v, inner)
        elif v is None or isinstance(v, bool):
            text = "null" if v is None else "true" if v else "false"
        elif isinstance(v, int):
            text = int.__repr__(v)
        else:
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
        items.append(f"{inner}{encode_basestring_ascii(key)}: {text}")
    return "{" + ",".join(items) + indent + "}" if items else "{}"


def emit_report(report: KeyRateReport, fmt: str = "table") -> str:
    """Render an analysis report as an aligned table or as JSON.

    The JSON form is machine readable and NaN-free: one object, keys sorted
    at both levels and indented by 2 spaces per level, undefined values
    null and clamping/flag states explicit booleans. Its bytes are those of
    ``json.dumps(report_to_dict(report), indent=2, sort_keys=True)``.
    """
    if fmt == "json":
        return _json_object(report_to_dict(report))
    if fmt != "table":
        raise ValueError(f"unknown report format {fmt!r}")
    rows = [
        ("signal mean photon number", f"{report.mu:g}"),
        ("error-correction factor", f"{report.f_ec:g}"),
        ("phase threshold [deg]", _fmt_optional(report.delta_threshold, lambda v: f"{math.degrees(v):.4g}")),
        ("total signal windows", _fmt_optional(report.n_total_pulses, lambda v: f"{v:.6e}")),
        ("test-set counting rate", _fmt_optional(report.s_u, lambda v: f"{v:.6e}")),
        ("test-set error rate", _fmt_optional(report.e_u, lambda v: f"{v:.4%}")),
        ("mismatched-send yield", f"{report.s_tilde_z:.6e}"),
        ("raw key pool", f"{report.n_tilde_z:,.1f}"),
        ("phase-flip upper bound", f"{report.e_ph_upper:.4%}" + (" [flagged]" if report.e_ph_flagged else "")),
        ("key-set bit error", f"{report.e_v:.4%}"),
        ("key-set detections", f"{report.n_v:,.1f}"),
        (
            "asymptotic secure key length",
            f"{report.n_f:,.1f}" + (f" (raw {report.n_f_raw:,.1f})" if report.n_f_raw < 0 else ""),
        ),
        ("key rate per window", _fmt_optional(report.rate_per_pulse, lambda v: f"{v:.6e}")),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def _fmt_optional(v, fmt) -> str:
    return "n/a" if v is None else fmt(v)


SWEEP_CSV_COLUMNS = (
    "distance_km", "rate_per_pulse", "s_tilde_z", "n_tilde_z",
    "e_ph_upper", "e_v", "n_v", "n_f",
)


def emit_sweep_csv(points: Sequence) -> str:
    """Render sweep points as CSV with full-precision floats."""
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for p in points:
        row = (p.distance_km, p.rate_per_pulse, *(getattr(p.report, c) for c in SWEEP_CSV_COLUMNS[2:]))
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
