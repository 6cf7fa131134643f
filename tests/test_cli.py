import argparse
import contextlib
import functools
import io
import json
import math
import os

import pytest

from scfqkd import channelsim, cli, dataio, defaults, keyrate
from scfqkd.cli import build_parser, main
from scfqkd.keyrate import analyze_tallies


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_defaults_to_bundled_dataset(capsys):
    code, out, err = run(capsys, "analyze")
    assert code == 0
    assert err == ""
    assert "key rate per window" in out
    assert "asymptotic secure key length" in out
    assert "2,248,625" in out


def test_analyze_json_matches_library(capsys):
    code, out, _ = run(capsys, "analyze", "--format", "json")
    assert code == 0
    got = json.loads(out)
    raw = dataio.load_raw_tallies(defaults.bundled_tally_path())
    u, v = raw.tally_sets()
    rep = analyze_tallies(u, v, defaults.reference_params(),
                          n_total_pulses=raw.n_total_pulses,
                          delta_threshold=raw.delta_threshold)
    assert got["rate_per_pulse"] == pytest.approx(rep.rate_per_pulse, rel=1e-15)
    assert got["n_v"] == rep.n_v


def test_analyze_is_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", "--format", "json")
    _, second, _ = run(capsys, "analyze", "--format", "json")
    assert first == second


def test_analyze_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--format", "json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["n_v"] == 2_248_625


def test_analyze_missing_file_fails(capsys):
    code, _, err = run(capsys, "analyze", "--in", "/nonexistent/tallies.tsv")
    assert code != 0
    assert "error:" in err


def test_analyze_corrupted_file_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("Sent-00\t-4\n")
    code, _, err = run(capsys, "analyze", "--in", str(bad))
    assert code != 0
    assert "Sent-00" in err


@pytest.mark.parametrize("line, bad", [
    ("Delta-Degrees\t30", "Delta-Degrees\t0"),
    ("Delta-Degrees\t30", "Delta-Degrees\tnan"),
    ("Sent-00\t578835000000", "Sent-00\tinf"),
    ("Delta-Degrees\t30", "Mu\t0\nDelta-Degrees\t30"),
    pytest.param("Delta-Degrees\t30", "Mu\t1" + "0" * 400 + "\nDelta-Degrees\t30",
                 id="Mu-integer-too-large-for-a-float"),
])
def test_analyze_rejects_bad_values(tmp_path, capsys, line, bad):
    """A bad value of the file is refused by its key and the file, not by a
    flag: a file's ``Mu 0`` is not reported as ``--mu``."""
    text = open(defaults.bundled_tally_path(), encoding="utf-8").read()
    assert line in text
    path = tmp_path / "bad.tsv"
    path.write_text(text.replace(line, bad), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}:")
    assert bad.split("\t")[0] in err


def test_analyze_refuses_an_inconsistent_file_by_key_and_rule(tmp_path, capsys):
    text = open(defaults.bundled_tally_path(), encoding="utf-8").read()
    assert "Sent-01-Δ\t4436985713\n" in text
    path = tmp_path / "inconsistent.tsv"
    path.write_text(text.replace("Sent-01-Δ\t4436985713\n", "Sent-01-Δ\t12438400001\n"),
                    encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: Sent-01-Δ: selected count exceeds sent count for state 01 "
                   "(12438400001 > 12438400000)\n")


@pytest.mark.parametrize("command", ["analyze", "qber-table"])
def test_count_too_large_for_a_float_exits_2(tmp_path, capsys, command):
    """A cell of 401 digits is a parse error naming its key and line, not
    an OverflowError."""
    text = open(defaults.bundled_tally_path(), encoding="utf-8").read()
    line = next(x for x in text.splitlines() if x.startswith("Sent-00\t"))
    path = tmp_path / "huge.tsv"
    path.write_text(text.replace(line, "Sent-00\t1" + "0" * 400), encoding="utf-8")
    lineno = text.splitlines().index(line) + 1
    code, out, err = run(capsys, command, "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:{lineno}: count for 'Sent-00' is too large for a float: ")


@pytest.mark.parametrize("mu, message", [
    ("800", "mu must be small enough that exp(-mu) > 0, got 800.0"),
    ("inf", "mu must be finite and non-negative, got inf"),
])
def test_analyze_rejects_unusable_mu(capsys, mu, message):
    code, out, err = run(capsys, "analyze", "--mu", mu)
    assert code == 2
    assert out == ""
    assert err == f"error: --{message}\n"


@pytest.mark.parametrize("argv, config, message", [
    (["analyze"], {"f_ec": 0.5}, "config key 'f_ec': f_ec must be finite and at least 1, got 0.5"),
    (["analyze"], {"delta_deg": 200},
     "config key 'delta_deg': delta_deg must lie in (0, 180] degrees, got 200"),
    (["sweep"], {"distance_km": -5},
     "config key 'distance_km': distance_km must be finite and non-negative, got -5.0"),
    (["analyze", "--f-ec", "0.5"], {"f_ec": 2}, "--f-ec must be finite and at least 1, got 0.5"),
    (["optimize"], {"epsilon_range": "0.1:2"},
     "config key 'epsilon_range': epsilon_range must lie in [0, 1], got '0.1:2'"),
    (["optimize"], {"mu_range": "1e-3:1e400"},
     "config key 'mu_range': mu_range must be finite and non-negative, got '1e-3:1e400'"),
    (["optimize", "--epsilon-range", "0.1:2"], {"epsilon_range": "0.1:0.2"},
     "--epsilon-range must lie in [0, 1], got '0.1:2'"),
], ids=["library-check", "cli-check", "model-check", "flag-overrides", "range-key", "range-key-inf",
        "range-flag"])
def test_config_value_out_of_range_names_its_key(tmp_path, capsys, argv, config, message):
    """A config value refused for its range is named by its config key, a
    flag that overrides it by the flag."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(capsys, *argv, "--config", str(cfg)) == (2, "", f"error: {message}\n")


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": 0.5}))
    _, out, _ = run(capsys, "analyze", "--config", str(cfg), "--format", "json")
    assert json.loads(out)["mu"] == 0.5
    _, out, _ = run(capsys, "analyze", "--config", str(cfg), "--mu", "0.002",
                    "--format", "json")
    assert json.loads(out)["mu"] == 0.002


@pytest.mark.parametrize("config, argv, flags", [
    ({"format": "json"}, ["analyze"], ["--format", "json"]),
    ({"swap_detectors": True, "in": defaults.bundled_tally_path()}, ["analyze"],
     ["--swap-detectors"]),
    ({"no_calibrate": True}, ["sweep", "--distances", "50"], ["--no-calibrate"]),
    ({"in": [defaults.bundled_tally_path()] * 2}, ["qber-table"],
     ["--in", defaults.bundled_tally_path(), "--in", defaults.bundled_tally_path()]),
])
def test_every_long_flag_is_a_config_key(tmp_path, capsys, config, argv, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, from_config, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, err) == (0, "")
    _, from_flags, _ = run(capsys, *argv, *flags)
    _, from_defaults, _ = run(capsys, *argv)
    assert from_config == from_flags != from_defaults


@pytest.mark.parametrize("config", [
    {"format": "xml"}, {"no_calibrate": "yes"}, {"no_calibrate": 1}, {"mu": True},
    {"mu": "small"}, {"mu": [0.002]}, {"seed": 2.5}, {"windows": True}, {"in": ["a.tsv", None]},
])
def test_config_value_its_flag_refuses_is_rejected_by_name(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    [key] = config
    command = {"no_calibrate": "sweep", "seed": "simulate", "windows": "simulate",
               "in": "qber-table"}.get(key, "analyze")
    target = tmp_path / "out.tsv"
    code, out, err = run(capsys, command, "--config", str(cfg), "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: config key {key!r}")
    assert not target.exists()


def test_help_shows_each_default(capsys):
    for argv, shown in [
        (["simulate"], "signal windows to simulate (default 1e+08)"),
        (["qber-table"], "signal windows to simulate (default 1e+08)"),
        (["sweep"], "(default 0:80:5)"),
        (["sweep"], "windows per evaluation (default 1e+12)"),
        (["analyze"], "phase threshold in degrees (default 30)"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert shown in " ".join(capsys.readouterr().out.split())


def test_simulate_writes_loadable_file(tmp_path, capsys):
    target = tmp_path / "sim.tsv"
    code, out, _ = run(capsys, "simulate", "--windows", "2e5", "--seed", "4",
                       "--out", str(target))
    assert code == 0
    raw = dataio.load_raw_tallies(target)
    assert raw.metadata["Seed"] == 4
    assert sum(raw.tallies.sent.values()) == 200_000


def test_simulate_seed_reproducibility(tmp_path, capsys):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    run(capsys, "simulate", "--windows", "3e5", "--seed", "9", "--out", str(a))
    run(capsys, "simulate", "--windows", "3e5", "--seed", "9", "--workers", "2",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_simulate_epsilon_zero_has_no_key(tmp_path, capsys):
    target = tmp_path / "eps0.tsv"
    code, out, _ = run(capsys, "simulate", "--windows", "1e5", "--seed", "1",
                       "--epsilon", "0", "--out", str(target))
    assert code == 0
    assert "no key-rate report" in out
    raw = dataio.load_raw_tallies(target)
    assert raw.tallies.sent["01"] == 0
    assert raw.tallies.sent["10"] == 0


def test_simulate_json_without_report_keeps_stdout_empty(tmp_path, capsys):
    """A JSON reader of stdout gets a report or nothing; the notice that no
    report exists goes to stderr, and the tally file is still written."""
    target = tmp_path / "eps0.tsv"
    code, out, err = run(capsys, "simulate", "--windows", "1e5", "--seed", "1",
                         "--epsilon", "0", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert err.startswith("tally file written; no key-rate report: ")
    assert dataio.load_raw_tallies(target).tallies.sent["01"] == 0


def test_simulate_then_analyze_roundtrip(tmp_path, capsys):
    """Integration: a simulated session file feeds the analysis chain.

    At mu = 0.02 the test set expects about 18 mismatched-send detections
    and every one of 100 seeds gives a report; at the reference mu = 0.002
    it expects 1.8, and 7 to 15 seeds in 60 give none and no report."""
    target = tmp_path / "s50.tsv"
    code, out, _ = run(capsys, "simulate", "--windows", "1e7", "--seed", "2",
                       "--mu", "0.02", "--out", str(target))
    assert code == 0
    assert "key rate per window" in out
    code, out2, _ = run(capsys, "analyze", "--in", str(target), "--mu", "0.02",
                        "--format", "json")
    assert code == 0
    rep = json.loads(out2)
    assert rep["n_total_pulses"] == 10_000_000
    assert rep["e_v"] is not None


def test_sweep_csv_output(capsys):
    code, out, _ = run(capsys, "sweep", "--distances", "0:20:10", "--no-calibrate")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("distance_km,")
    rates = [float(l.split(",")[1]) for l in lines[1:]]
    assert rates[0] > rates[1] > rates[2] > 0


def test_sweep_calibrated_out_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--distances", "50", "--out", str(target))
    assert code == 0
    line = target.read_text().strip().split("\n")[1]
    rate = float(line.split(",")[1])
    assert rate == pytest.approx(4.80e-7, rel=1.0)  # within factor 2


@pytest.mark.parametrize("distances", [
    "0:inf:5", "-inf:10:5", "0:10:nan", "80:0:5", ",", "0:10", "0:10:0", "inf",
    "1e20:1e20:1", "0:1e15:1e-3", "-1e308:1e308:1",
])
def test_sweep_rejects_bad_distances_by_name(capsys, distances):
    code, out, err = run(capsys, "sweep", f"--distances={distances}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --distances")


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--distances", "1,x"], "--distances"),
    (["sweep", "--distances", "0:y:5"], "--distances"),
    (["optimize", "--mu-range", "1e-3:x"], "--mu-range"),
    (["optimize", "--epsilon-range", "a:0.1"], "--epsilon-range"),
    (["optimize", "--delta-deg-range", "5:ninety"], "--delta-deg-range"),
    (["optimize", "--mu-range", "1e-3::4e-3"], "--mu-range"),
    (["qber-table", "--simulate", "--windows", "2000", "--delta-list", "5,x"], "--delta-list"),
    (["qber-table", "--simulate", "--windows", "2000", "--delta-list", ""], "--delta-list"),
])
def test_number_lists_name_their_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ") and repr(argv[-1]) in err


@pytest.mark.parametrize("argv, value", [
    (["sweep", "--pt", "1.5"], "1.5"),
    (["sweep", "--pt", "-0.1"], "-0.1"),
    (["analyze", "--delta-deg", "200"], "200"),
    (["analyze", "--delta-deg", "0"], "0"),
    (["optimize", "--delta-deg-range", "5:200"], "'5:200'"),
    (["qber-table", "--simulate", "--windows", "2000", "--delta-list", "0,30"], "'0,30'"),
    (["analyze", "--f-ec", "0.5"], "0.5"),
    (["sweep", "--dark-prob", "-1"], "-1.0"),
    (["sweep", "--target-qber", "0.7"], "0.7"),
    (["sweep", "--distance-km", "-5"], "-5.0"),
    (["sweep", "--distances", "-5"], "-5.0"),
    (["simulate", "--out", os.devnull, "--seed", "-3"], "-3"),
    (["optimize", "--epsilon-range", "0.1:2"], "'0.1:2'"),
    (["optimize", "--mu-range", "1e-3:1e400"], "'1e-3:1e400'"),
])
def test_out_of_range_options_name_their_flag(capsys, argv, value):
    """Range errors, the library's included, name the flag and the value."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {argv[-2]} must ") and err.endswith(f", got {value}\n")


def test_optimize_reports_best_point(capsys):
    code, out, _ = run(capsys, "optimize",
                       "--mu-range", "1e-3:4e-3",
                       "--epsilon-range", "0.01:0.04",
                       "--delta-deg-range", "20:40")
    assert code == 0
    assert "best mu" in out
    fields = dict(
        line.rsplit(None, 1) for line in out.strip().split("\n")
    )
    assert 1e-3 <= float(fields["best mu"]) <= 4e-3
    assert 20 <= float(fields["best delta [deg]"]) <= 40
    assert float(fields["rate per window"]) > 0


def test_optimize_rejects_bad_range(capsys):
    code, _, err = run(capsys, "optimize", "--mu-range", "5e-3:1e-3")
    assert code != 0
    assert "error:" in err


def test_qber_table_from_files(tmp_path, capsys):
    partial = tmp_path / "t45.tsv"
    partial.write_text(
        "Delta-Degrees\t45\n"
        "Detected-SS11-ch0\t64000\nDetected-SS11-ch1\t5800\n"
        "Detected-TT11-ch0\t4376\nDetected-TT11-ch1\t552\n"
    )
    code, out, _ = run(capsys, "qber-table", "--in", str(partial),
                       "--in", defaults.bundled_tally_path(), "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["delta_deg"] for r in rows] == pytest.approx([30.0, 45.0])
    assert rows[0]["detections"] == 50_490
    assert rows[0]["qber"] == pytest.approx(0.0587, abs=0.001)
    assert rows[0]["rate_per_pulse"] == pytest.approx(4.80e-7, rel=0.03)
    assert rows[1]["detections"] == 74_728
    assert rows[1]["rate_per_pulse"] is None


def test_qber_table_file_without_threshold_fails(tmp_path, capsys):
    bad = tmp_path / "nothr.tsv"
    bad.write_text("Detected-SS11-ch0\t10\nDetected-SS11-ch1\t1\n")
    code, _, err = run(capsys, "qber-table", "--in", str(bad))
    assert code != 0
    assert "Delta-Degrees" in err


def test_qber_table_simulation_mode(capsys):
    code, out, _ = run(capsys, "qber-table", "--simulate", "--windows", "3e5",
                       "--seed", "3", "--delta-list", "30,90", "--mu", "0.1",
                       "--epsilon", "0.3", "--distance-km", "10",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["delta_deg"] for r in rows] == [30.0, 90.0]
    assert rows[0]["detections"] < rows[1]["detections"]
    assert all(r["qber"] is not None for r in rows)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_qber_table_does_not_hide_key_errors(monkeypatch):
    """A KeyError inside the analysis is a program error, not a missing rate."""
    def broken(*args, **kwargs):
        raise KeyError("broken")

    monkeypatch.setattr(keyrate, "analyze_tallies", broken)
    with pytest.raises(KeyError):
        main(["qber-table", "--in", defaults.bundled_tally_path()])


@pytest.mark.parametrize("command", [
    ["simulate"], ["sweep", "--distances", "50"],
    ["qber-table", "--simulate", "--format", "json"], ["qber-table", "--simulate"],
])
@pytest.mark.parametrize("windows", ["inf", "-inf", "nan", "1000.7", "0", "-5"])
def test_bad_windows_rejected_by_name(tmp_path, capsys, command, windows):
    target = tmp_path / "out.tsv"
    code, out, err = run(capsys, *command, f"--windows={windows}", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --windows must be a whole number")
    assert not target.exists()


def test_bad_windows_in_config_rejected_by_name(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"windows": "many"}))
    code, _, err = run(capsys, "sweep", "--config", str(cfg), "--distances", "50")
    assert code == 2
    assert "windows must be a whole number" in err and "'many'" in err


def test_whole_float_windows_accepted(tmp_path, capsys):
    target = tmp_path / "sim.tsv"
    code, _, _ = run(capsys, "simulate", "--windows", "1800.0", "--seed", "4", "--out", str(target))
    assert code == 0
    assert sum(dataio.load_raw_tallies(target).tallies.sent.values()) == 1800


# `scfqkd sweep` with every default: visibility calibrated to the reference
# both-send QBER, 0:80:5 km.
DEFAULT_SWEEP_STDOUT = (
    "distance_km,rate_per_pulse,s_tilde_z,n_tilde_z,e_ph_upper,e_v,n_v,n_f\n"
    "0.0,1.5593867041691318e-06,0.0008433607321659382,5201595.987779857,0.12093095047781462,0.021468407014062624,5315715.941176169,1559386.7041691318\n"
    "5.0,1.3375549595153318e-06,0.0007516999985920615,4636260.081316258,0.12476612524674047,0.02153358338460077,4738292.497920866,1337554.9595153318\n"
    "10.0,1.1433789437714233e-06,0.0006699966369255533,4132338.257565735,0.12884121355607972,0.021606547458741975,4223595.57582125,1143378.9437714233\n"
    "15.0,9.736460010569657e-07,0.0005971699812630713,3683165.2934362446,0.13317158217227126,0.021688263522876148,3764817.6507615363,973646.0010569657\n"
    "20.0,8.255027120614365e-07,0.0005322564371363263,3282798.0273257196,0.13777369080467258,0.021779810997419213,3355888.6478032586,825502.7120614365\n"
    "25.0,6.964157201396168e-07,0.00047439684257984913,2925937.4059797353,0.14266517451532734,0.021882398500007314,2991396.3326011742,696415.7201396169\n"
    "30.0,5.841367404507192e-07,0.00042282518467119147,2607858.8914965075,0.14786493364402775,0.02199737955638982,2666515.2393084737,584136.7404507191\n"
    "35.0,4.86671318779092e-07,0.00037685852803898113,2324350.343386024,0.15339323196013202,0.022126270150264353,2376943.2314570863,486671.31877909193\n"
    "40.0,4.022509490581583e-07,0.0003358880266394814,2071656.5819043296,0.15927180383225037,0.022270768323299786,2118844.8854614506,402250.94905815826\n"
    "45.0,3.293081973967494e-07,0.00029937090346166255,1846429.921280496,0.16552397129516652,0.02243277605827618,1888800.9704696978,329308.1973967494\n"
    "50.0,2.664545157649163e-07,0.0002668232948579097,1645686.0356951295,0.17217477199122236,0.022614423701637795,1683763.374049177,266454.5157649163\n"
    "55.0,2.1246046064303283e-07,0.00023781386702939774,1466764.5876772164,0.17925109907198677,0.022818097206765458,1501014.89137747,212460.46064303283\n"
    "60.0,1.6623806109311546e-07,0.000211958121931648,1307294.1086378254,0.18678185426658717,0.023046468505819644,1338133.3569043074,166238.06109311545\n"
    "65.0,1.2682510709737852e-07,0.00018891331860905114,1165160.6751850448,0.19479811545699627,0.023302529345890197,1192959.652495791,126825.10709737852\n"
    "70.0,9.337115284648846e-08,0.00016837394381174426,1038479.9732476951,0.20333332024933554,0.0235896289541031,1063569.1754639104,93371.15284648846\n"
    "75.0,6.512505116270052e-08,0.00015006767278119418,925572.3854125714,0.21242346719558206,0.023911515925818576,948246.3941683276,65125.05116270052\n"
    "80.0,4.142385461634773e-08,0.00013375176739192647,824940.7757431848,0.22210733650378606,0.02427238475945309,845462.1585551944,41423.85461634773\n"
    "\n"
)


def test_sweep_default_stdout_is_unchanged(capsys):
    code, out, err = run(capsys, "sweep")
    assert code == 0
    assert out == DEFAULT_SWEEP_STDOUT
    assert err == ""


# `scfqkd analyze` with every default: the bundled 50 km file.
DEFAULT_ANALYZE_STDOUT = (
    "signal mean photon number     0.002\n"
    "error-correction factor       1.1\n"
    "phase threshold [deg]         30\n"
    "total signal windows          6.039602e+11\n"
    "test-set counting rate        1.163764e-05\n"
    "test-set error rate           2.1209%\n"
    "mismatched-send yield         2.767704e-04\n"
    "raw key pool                  2,207,341.4\n"
    "phase-flip upper bound        19.0562%\n"
    "key-set bit error             2.1325%\n"
    "key-set detections            2,248,625.0\n"
    "asymptotic secure key length  288,267.8\n"
    "key rate per window           4.772960e-07\n"
)

# `scfqkd analyze --format json` on the bundled file.
DEFAULT_ANALYZE_JSON_STDOUT = (
    "{\n"
    '  "delta_threshold": 0.5235987755982988,\n'
    '  "e_ph_flagged": false,\n'
    '  "e_ph_upper": 0.1905615553530922,\n'
    '  "e_u": 0.02120938988107108,\n'
    '  "e_v": 0.021325031963977985,\n'
    '  "f_ec": 1.1,\n'
    '  "mu": 0.002,\n'
    '  "n_f": 288267.7709396712,\n'
    '  "n_f_raw": 288267.7709396712,\n'
    '  "n_tilde_z": 2207341.4024429754,\n'
    '  "n_total_pulses": 603960200000,\n'
    '  "n_v": 2248625,\n'
    '  "rate_per_pulse": 4.772959723830663e-07,\n'
    '  "rates_u_by_cell": {\n'
    '    "00/L": 7.2157843085827266e-09,\n'
    '    "00/R": 6.101938408600158e-09,\n'
    '    "01/L": 0.00013678448299515546,\n'
    '    "01/R": 0.00013731638508754064,\n'
    '    "10/L": 0.00014021431959972732,\n'
    '    "10/R": 0.00013922570267494054,\n'
    '    "11/L": 0.0004968220412450563,\n'
    '    "11/R": 3.310045325553991e-05\n'
    "  },\n"
    '  "rates_u_by_state": {\n'
    '    "00": 1.3317722717182885e-08,\n'
    '    "01": 0.0002741008680826961,\n'
    '    "10": 0.0002794400222746679,\n'
    '    "11": 0.0005299224945005961\n'
    "  },\n"
    '  "s_tilde_z": 0.00027677044517868197,\n'
    '  "s_u": 1.1637643929685553e-05,\n'
    '  "x_lower_clamped": false,\n'
    '  "x_lower_left": 0.00010121371275833878,\n'
    '  "x_upper_right": 1.537036040371218e-05\n'
    "}\n"
)

# `scfqkd optimize` with every default.
DEFAULT_OPTIMIZE_STDOUT = (
    "best mu          0.0034231\n"
    "best epsilon     0.0256166\n"
    "best delta [deg] 32.0685\n"
    "rate per window  5.643970e-07\n"
    "evaluations      553\n"
)

# `scfqkd qber-table` with every default: one row from the bundled file.
DEFAULT_QBER_TABLE_STDOUT = (
    "delta_deg  detections      qber  rate_per_pulse\n"
    "       30       50490   5.8665%      4.7730e-07\n"
)

# `scfqkd qber-table --format json`: the file's `Delta-Degrees 30` reads 30.0,
# as a --simulate row does.
DEFAULT_QBER_TABLE_JSON_STDOUT = (
    "[\n"
    "  {\n"
    '    "delta_deg": 30.0,\n'
    '    "detections": 50490,\n'
    '    "qber": 0.058665082194493956,\n'
    '    "rate_per_pulse": 4.772959723830663e-07\n'
    "  }\n"
    "]\n"
)

# `scfqkd simulate --windows 2e6 --seed 3 --out FILE`: stdout, then FILE.
SIMULATE_2E6_SEED3_STDOUT = (
    "tally file written; no key-rate report: mismatched-send yield is zero; no key material\n"
)

SIMULATE_2E6_SEED3_FILE = (
    "Delta-Degrees\t30\n"
    "Mu\t0.002\n"
    "Epsilon\t0.021\n"
    "Pt\t0.1\n"
    "F-EC\t1.1\n"
    "Windows\t2000000\n"
    "Seed\t3\n"
    "Sent-00\t1916952\n"
    "Sent-01\t41463\n"
    "Sent-10\t40734\n"
    "Sent-11\t851\n"
    "Sent-00-Δ\t160681\n"
    "Sent-01-Δ\t3414\n"
    "Sent-10-Δ\t3426\n"
    "Sent-11-Δ\t79\n"
    "Sent-SS00-Δ\t144757\n"
    "Sent-SS01-Δ\t3042\n"
    "Sent-SS10-Δ\t3082\n"
    "Sent-SS11-Δ\t75\n"
    "Sent-TT00-Δ\t15924\n"
    "Sent-TT01-Δ\t372\n"
    "Sent-TT10-Δ\t344\n"
    "Sent-TT11-Δ\t4\n"
    "Detected-SS00-ch0\t0\n"
    "Detected-SS00-ch1\t0\n"
    "Detected-SS01-ch0\t2\n"
    "Detected-SS01-ch1\t0\n"
    "Detected-SS10-ch0\t0\n"
    "Detected-SS10-ch1\t0\n"
    "Detected-SS11-ch0\t0\n"
    "Detected-SS11-ch1\t0\n"
    "Detected-TT00-ch0\t0\n"
    "Detected-TT00-ch1\t0\n"
    "Detected-TT01-ch0\t0\n"
    "Detected-TT01-ch1\t0\n"
    "Detected-TT10-ch0\t0\n"
    "Detected-TT10-ch1\t0\n"
    "Detected-TT11-ch0\t0\n"
    "Detected-TT11-ch1\t0\n"
)


@pytest.mark.parametrize("argv, stdout", [
    (["analyze"], DEFAULT_ANALYZE_STDOUT),
    (["analyze", "--format", "json"], DEFAULT_ANALYZE_JSON_STDOUT),
    (["optimize"], DEFAULT_OPTIMIZE_STDOUT),
    (["qber-table"], DEFAULT_QBER_TABLE_STDOUT),
    (["qber-table", "--format", "json"], DEFAULT_QBER_TABLE_JSON_STDOUT),
])
def test_default_stdout_is_unchanged(capsys, argv, stdout):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == stdout
    assert err == ""


def test_simulated_thresholds_lie_on_keep_level_edges(tmp_path, capsys, monkeypatch):
    """The thresholds the command line simulates by default and for whole
    degrees are edges of the simulator's keep-level bins, where a threshold
    needs no split of a bin."""
    seen = []

    def spy(params, model, n_windows, seed, workers=1, thresholds=None):
        seen.extend([params.delta_threshold, *(thresholds or [])])
        return channelsim.simulate_session(params, model, n_windows, seed, workers, thresholds)

    monkeypatch.setattr(cli, "simulate_session", spy)
    degrees = ",".join(str(k) for k in range(1, 181))
    for argv in (["simulate", "--out", str(tmp_path / "sim.tsv")], ["qber-table", "--simulate"],
                 ["qber-table", "--simulate", "--delta-list", degrees]):
        assert run(capsys, *argv, "--windows", "2000")[0] == 0
    assert len(seen) == 1 + 9 + 181
    assert set(seen) <= set(channelsim._KEEP_EDGES.tolist())


def test_simulate_stdout_and_file_are_unchanged(tmp_path, capsys):
    target = tmp_path / "sim.tsv"
    code, out, err = run(capsys, "simulate", "--windows", "2e6", "--seed", "3", "--out", str(target))
    assert code == 0
    assert out == SIMULATE_2E6_SEED3_STDOUT
    assert err == ""
    assert target.read_bytes() == SIMULATE_2E6_SEED3_FILE.encode("utf-8")


# Each subcommand's long flags; a trailing "!" marks a required one.
CLI_FLAGS = {
    "analyze": "--config --delta-deg --f-ec --format --help --in --mu --out --swap-detectors",
    "simulate": "--config --dark-prob --delta-deg --distance-km --epsilon --f-ec --format --help "
                "--mu --out! --pt --seed --swap-detectors --visibility --windows --workers",
    "sweep": "--config --dark-prob --delta-deg --distance-km --distances --epsilon --f-ec --help "
             "--mu --no-calibrate --out --pt --target-qber --visibility --windows",
    "optimize": "--config --dark-prob --delta-deg-range --distance-km --epsilon-range --f-ec --help "
                "--mu-range --out --pt --visibility",
    "qber-table": "--config --dark-prob --delta-list --distance-km --epsilon --f-ec --format --help "
                  "--in --mu --out --pt --seed --simulate --swap-detectors --visibility --windows "
                  "--workers",
}


def _flags(parser):
    """Each subcommand's long flags, as in CLI_FLAGS."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return {
        name: " ".join(sorted(
            flag + ("!" if action.required else "")
            for action in sub._actions for flag in action.option_strings if flag.startswith("--")
        ))
        for name, sub in commands.items()
    }


def test_subcommand_flags_are_unchanged():
    assert _flags(build_parser()) == CLI_FLAGS


@pytest.mark.parametrize("command", list(CLI_FLAGS))
def test_parser_for_one_subcommand_adds_only_its_options(command):
    """The parser for one subcommand holds that subcommand alone, with all of
    its options."""
    assert _flags(build_parser(command)) == {command: CLI_FLAGS[command]}


@pytest.mark.parametrize("argv, built", [
    (["analyze", "--in", defaults.bundled_tally_path()], 2),
    (["--help"], 6),
])
def test_main_builds_only_the_parsers_it_needs(monkeypatch, capsys, argv, built):
    """A subcommand's call builds the top-level parser and its own; the
    top-level help builds all five subcommands' too."""
    init, calls = argparse.ArgumentParser.__init__, []

    def counted(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert len(calls) == built


# Each subcommand run in a mode that reads every one of its float options.
_FLOAT_RUNS = {
    "analyze": [],
    "simulate": ["--out", os.devnull, "--windows", "2000"],
    "sweep": [],
    "optimize": [],
    "qber-table": ["--simulate", "--windows", "2000"],
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", [
    (command, "--" + key.replace("_", "-"))
    for command, extra in _FLOAT_RUNS.items()
    for key, (_, _, kwargs) in cli.COMMANDS[command][2].items() if kwargs.get("type") is float
])
def test_non_finite_float_options_name_their_flag(capsys, command, flag, value):
    """NaN or infinity in any float option is refused by the option's name."""
    code, out, err = run(capsys, command, *_FLOAT_RUNS[command], flag, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} ") and err.endswith(f", got {value}\n")


@pytest.fixture(scope="module")
def tally_files(tmp_path_factory):
    """The bundled file without its ``Delta-Degrees`` line and with 45 in
    it, and a path for the files that runs write."""
    text = open(defaults.bundled_tally_path(), encoding="utf-8").read()
    assert "Delta-Degrees\t30\n" in text
    folder = tmp_path_factory.mktemp("tallies")
    for name, line in (("no-delta", ""), ("45", "Delta-Degrees\t45\n")):
        (folder / f"{name}.tsv").write_text(text.replace("Delta-Degrees\t30\n", line), encoding="utf-8")
    return {name: str(folder / f"{name}.tsv") for name in ("no-delta", "45", "out")}


def _modes(files):
    """Each subcommand's modes, the arguments each of its runs starts with.
    A session of 10⁷ windows at mu 0.05 has both-send clicks, through which
    the visibility shows, and key rates, through which --pt and --f-ec show;
    at the default mu 0.002 it has no both-send click."""
    session = ["--windows", "1e7", "--mu", "0.05"]
    return {
        "analyze": [[], ["--in", files["no-delta"]]],
        "simulate": [[*session, "--out", files["out"]]],
        "sweep": [["--distances", "50"], ["--distances", "50", "--no-calibrate"]],
        "optimize": [[]],
        "qber-table": [[], ["--simulate", *session]],
    }


# A second valid value of each option; None for a switch.
_SECOND = {
    "mu": "0.1", "epsilon": "0.05", "delta_deg": "45", "pt": "0.3", "f_ec": "1.2",
    "distance_km": "40", "visibility": "0.5", "dark_prob": "1e-4", "windows": "5e6", "seed": "2",
    "format": "json", "swap_detectors": None, "distances": "40", "target_qber": "0.05",
    "no_calibrate": None, "mu_range": "1e-3:1e-2", "epsilon_range": "1e-2:1e-1",
    "delta_deg_range": "10:60", "simulate": None, "delta_list": "30,45",
}


@functools.cache
def _output(argv: tuple):
    """The exit code, stdout and written file of ``scfqkd <argv>``."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    written = b""
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            written = fh.read()
    return code, out.getvalue(), written


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, _, options) in cli.COMMANDS.items()
    for key in options if key not in ("config", "out", "workers")
])
def test_every_option_changes_the_output(tally_files, command, key):
    """Each option a subcommand takes, apart from --config, --out and
    --workers, changes stdout or the written file in one of its modes."""
    second = tally_files["45"] if key == "in" else _SECOND[key]
    flag = ["--" + key.replace("_", "-"), *([] if second is None else [second])]
    changed = []
    for mode in _modes(tally_files)[command]:
        base, varied = _output((command, *mode)), _output((command, *mode, *flag))
        assert base[0] == varied[0] == 0
        changed.append(base != varied)
    assert any(changed)


def test_analyze_takes_mu_from_the_file(tmp_path, capsys):
    """A file's ``Mu`` wins over --mu, as its ``Delta-Degrees`` wins over
    --delta-deg: analysing a simulated session reports what the session did,
    and a qber-table row from the file gives the same rate."""
    target = tmp_path / "f.tsv"
    code, simulated, _ = run(capsys, "simulate", "--windows", "1e8", "--seed", "7", "--mu", "0.003",
                             "--out", str(target))
    assert code == 0
    assert "signal mean photon number     0.003\n" in simulated
    assert run(capsys, "analyze", "--in", str(target)) == (0, simulated, "")
    assert run(capsys, "analyze", "--in", str(target), "--mu", "0.1") == (0, simulated, "")
    _, report, _ = run(capsys, "analyze", "--in", str(target), "--format", "json")
    _, table, _ = run(capsys, "qber-table", "--in", str(target), "--format", "json")
    assert json.loads(table)[0]["rate_per_pulse"] == json.loads(report)["rate_per_pulse"]
