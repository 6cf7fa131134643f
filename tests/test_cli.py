import json
import math

import pytest

from scfqkd import dataio, defaults, keyrate
from scfqkd.cli import main
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
])
def test_analyze_rejects_bad_values(tmp_path, capsys, line, bad):
    text = open(defaults.bundled_tally_path(), encoding="utf-8").read()
    assert line in text
    path = tmp_path / "bad.tsv"
    path.write_text(text.replace(line, bad), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--in", str(path))
    assert code == 2
    assert out == ""
    assert bad.split("\t")[0] in err


@pytest.mark.parametrize("mu, message", [
    ("800", "mu must be small enough that exp(-mu) > 0, got 800.0"),
    ("inf", "mu must be finite and non-negative, got inf"),
])
def test_analyze_rejects_unusable_mu(capsys, mu, message):
    code, out, err = run(capsys, "analyze", "--mu", mu)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": 0.5}))
    _, out, _ = run(capsys, "analyze", "--config", str(cfg), "--format", "json")
    assert json.loads(out)["mu"] == 0.5
    _, out, _ = run(capsys, "analyze", "--config", str(cfg), "--mu", "0.002",
                    "--format", "json")
    assert json.loads(out)["mu"] == 0.002


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
    ["simulate"], ["sweep", "--distances", "50"], ["optimize"], ["qber-table", "--simulate"],
])
@pytest.mark.parametrize("windows", ["inf", "-inf", "nan", "1000.7", "0", "-5"])
def test_bad_windows_rejected_by_name(tmp_path, capsys, command, windows):
    target = tmp_path / "out.tsv"
    code, out, err = run(capsys, *command, f"--windows={windows}", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: windows must be a whole number")
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
