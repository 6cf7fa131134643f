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
