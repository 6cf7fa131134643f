"""The command line's usage, help and argument-error text, byte for byte.

Each entry is ``scfqkd <argv>``: (exit code, stdout, stderr), at a terminal
80 columns wide and with the bundled file's path shown as ``BUNDLED``, so
that the text does not depend on where the package is installed.
"""

import pytest

from scfqkd import cli


def _neutral(default):
    if default == cli._BUNDLED:
        return "BUNDLED"
    return ["BUNDLED"] if default == [cli._BUNDLED] else default


CLI_TEXT = {
    '': (2, "", """\
usage: scfqkd [-h] [--version]
              {analyze,simulate,sweep,optimize,qber-table} ...
scfqkd: error: the following arguments are required: command
"""),
    'bogus': (2, "", """\
usage: scfqkd [-h] [--version]
              {analyze,simulate,sweep,optimize,qber-table} ...
scfqkd: error: argument command: invalid choice: 'bogus' (choose from 'analyze', 'simulate', 'sweep', 'optimize', 'qber-table')
"""),
    '--help': (0, """\
usage: scfqkd [-h] [--version]
              {analyze,simulate,sweep,optimize,qber-table} ...

Simulate and analyse the sending-or-not-sending protocol with phase post-
selection.

positional arguments:
  {analyze,simulate,sweep,optimize,qber-table}
    analyze             analyse a raw tally file (bundled dataset by default)
    simulate            Monte Carlo session; writes a raw tally file
    sweep               expected-value key rate versus distance
    optimize            search mu, epsilon, delta for the best rate
    qber-table          both-send QBER and detections per threshold

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""", ""),
    '--version': (0, """\
scfqkd 0.1.0
""", ""),
    'analyze extra': (2, "", """\
usage: scfqkd [-h] [--version]
              {analyze,simulate,sweep,optimize,qber-table} ...
scfqkd: error: unrecognized arguments: extra
"""),
    'analyze --version': (2, "", """\
usage: scfqkd [-h] [--version]
              {analyze,simulate,sweep,optimize,qber-table} ...
scfqkd: error: unrecognized arguments: --version
"""),
    'analyze --format xml': (2, "", """\
usage: scfqkd analyze [-h] [--config CONFIG] [--out OUT] [--mu MU]
                      [--delta-deg DELTA_DEG] [--f-ec F_EC]
                      [--format {table,json}] [--swap-detectors] [--in IN]
scfqkd analyze: error: argument --format: invalid choice: 'xml' (choose from 'table', 'json')
"""),
    'analyze --mu x': (2, "", """\
usage: scfqkd analyze [-h] [--config CONFIG] [--out OUT] [--mu MU]
                      [--delta-deg DELTA_DEG] [--f-ec F_EC]
                      [--format {table,json}] [--swap-detectors] [--in IN]
scfqkd analyze: error: argument --mu: invalid float value: 'x'
"""),
    'analyze --help': (0, """\
usage: scfqkd analyze [-h] [--config CONFIG] [--out OUT] [--mu MU]
                      [--delta-deg DELTA_DEG] [--f-ec F_EC]
                      [--format {table,json}] [--swap-detectors] [--in IN]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file (flags still win)
  --out OUT             write the output here instead of stdout
  --mu MU               signal mean photon number (default 0.002)
  --delta-deg DELTA_DEG
                        phase threshold in degrees (default 30)
  --f-ec F_EC           error-correction inefficiency (default 1.1)
  --format {table,json}
                        report format (default table)
  --swap-detectors      map L=ch1, R=ch0
  --in IN               raw tally file (default BUNDLED)
""", ""),
    'simulate --help': (0, """\
usage: scfqkd simulate [-h] [--config CONFIG] --out OUT [--mu MU]
                       [--epsilon EPSILON] [--delta-deg DELTA_DEG] [--pt PT]
                       [--f-ec F_EC] [--distance-km DISTANCE_KM]
                       [--visibility VISIBILITY] [--dark-prob DARK_PROB]
                       [--windows WINDOWS] [--seed SEED] [--workers WORKERS]
                       [--format {table,json}] [--swap-detectors]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file (flags still win)
  --out OUT             raw tally output file
  --mu MU               signal mean photon number (default 0.002)
  --epsilon EPSILON     per-window send probability (default 0.021)
  --delta-deg DELTA_DEG
                        phase threshold in degrees (default 30)
  --pt PT               test-set fraction (default 0.1)
  --f-ec F_EC           error-correction inefficiency (default 1.1)
  --distance-km DISTANCE_KM
                        total fibre length in km (default 50)
  --visibility VISIBILITY
                        interference visibility (default 1)
  --dark-prob DARK_PROB
                        per-window dark-click probability (default 1e-08)
  --windows WINDOWS     signal windows to simulate (default 1e+08)
  --seed SEED           random seed (default 1)
  --workers WORKERS     processes that compute chunks, this one included, at
                        most one per 4 chunks (default 1)
  --format {table,json}
                        report format (default table)
  --swap-detectors      map L=ch1, R=ch0
""", ""),
    'sweep --help': (0, """\
usage: scfqkd sweep [-h] [--config CONFIG] [--out OUT] [--mu MU]
                    [--epsilon EPSILON] [--delta-deg DELTA_DEG] [--pt PT]
                    [--f-ec F_EC] [--distance-km DISTANCE_KM]
                    [--visibility VISIBILITY] [--dark-prob DARK_PROB]
                    [--windows WINDOWS] [--distances DISTANCES]
                    [--target-qber TARGET_QBER] [--no-calibrate]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file (flags still win)
  --out OUT             write the output here instead of stdout
  --mu MU               signal mean photon number (default 0.002)
  --epsilon EPSILON     per-window send probability (default 0.021)
  --delta-deg DELTA_DEG
                        phase threshold in degrees (default 30)
  --pt PT               test-set fraction (default 0.1)
  --f-ec F_EC           error-correction inefficiency (default 1.1)
  --distance-km DISTANCE_KM
                        total fibre length in km (default 50)
  --visibility VISIBILITY
                        interference visibility (default 1)
  --dark-prob DARK_PROB
                        per-window dark-click probability (default 1e-08)
  --windows WINDOWS     windows per evaluation (default 1e+12)
  --distances DISTANCES
                        start:stop:step in km, or comma list (default 0:80:5)
  --target-qber TARGET_QBER
                        both-send QBER target for visibility calibration
                        (default 0.0586651)
  --no-calibrate        keep the model's visibility, do not calibrate
""", ""),
    'optimize --help': (0, """\
usage: scfqkd optimize [-h] [--config CONFIG] [--out OUT] [--pt PT]
                       [--f-ec F_EC] [--distance-km DISTANCE_KM]
                       [--visibility VISIBILITY] [--dark-prob DARK_PROB]
                       [--mu-range MU_RANGE] [--epsilon-range EPSILON_RANGE]
                       [--delta-deg-range DELTA_DEG_RANGE]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file (flags still win)
  --out OUT             write the output here instead of stdout
  --pt PT               test-set fraction (default 0.1)
  --f-ec F_EC           error-correction inefficiency (default 1.1)
  --distance-km DISTANCE_KM
                        total fibre length in km (default 50)
  --visibility VISIBILITY
                        interference visibility (default 1)
  --dark-prob DARK_PROB
                        per-window dark-click probability (default 1e-08)
  --mu-range MU_RANGE   lo:hi (default 2e-4:2e-2)
  --epsilon-range EPSILON_RANGE
                        lo:hi (default 2e-3:2e-1)
  --delta-deg-range DELTA_DEG_RANGE
                        lo:hi degrees (default 5:90)
""", ""),
    'qber-table --help': (0, """\
usage: scfqkd qber-table [-h] [--config CONFIG] [--out OUT] [--mu MU]
                         [--epsilon EPSILON] [--pt PT] [--f-ec F_EC]
                         [--distance-km DISTANCE_KM] [--visibility VISIBILITY]
                         [--dark-prob DARK_PROB] [--windows WINDOWS]
                         [--seed SEED] [--workers WORKERS]
                         [--format {table,json}] [--swap-detectors] [--in IN]
                         [--simulate] [--delta-list DELTA_LIST]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file (flags still win)
  --out OUT             write the output here instead of stdout
  --mu MU               signal mean photon number (default 0.002)
  --epsilon EPSILON     per-window send probability (default 0.021)
  --pt PT               test-set fraction (default 0.1)
  --f-ec F_EC           error-correction inefficiency (default 1.1)
  --distance-km DISTANCE_KM
                        total fibre length in km (default 50)
  --visibility VISIBILITY
                        interference visibility (default 1)
  --dark-prob DARK_PROB
                        per-window dark-click probability (default 1e-08)
  --windows WINDOWS     signal windows to simulate (default 1e+08)
  --seed SEED           random seed (default 1)
  --workers WORKERS     processes that compute chunks, this one included, at
                        most one per 4 chunks (default 1)
  --format {table,json}
                        report format (default table)
  --swap-detectors      map L=ch1, R=ch0
  --in IN               raw tally file; repeat for several thresholds (default
                        BUNDLED)
  --simulate            simulate instead of reading files
  --delta-list DELTA_LIST
                        thresholds in degrees for --simulate (default
                        2,5,8,10,12,15,30,45)
""", ""),
}


@pytest.mark.parametrize("argv", list(CLI_TEXT))
def test_cli_text_is_unchanged(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "COMMANDS", {
        name: (text, handler, {key: (help_text, _neutral(default), kwargs)
                               for key, (help_text, default, kwargs) in options.items()})
        for name, (text, handler, options) in cli.COMMANDS.items()
    })
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out, out.err) == CLI_TEXT[argv]
