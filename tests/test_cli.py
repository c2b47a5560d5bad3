"""Command-line surface: exit codes, determinism, file formats."""

import json

import pytest

from resowave import cli


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_f_cases(capsys):
    assert cli.main(["analyze-f", "--coeffs", "3=1"]) == 0
    out = capsys.readouterr().out
    assert "odd-power" in out
    assert "omega>1" in out
    assert "minimal dilation index: 1" in out

    assert cli.main(["analyze-f", "--coeffs", "2=1"]) == 0
    out = capsys.readouterr().out
    assert "n2" in out and "omega<1" in out

    # d = 2p - 1 with small positive b sits inside the both-sides window
    assert cli.main(["analyze-f", "--coeffs", "2=1,3=0.2"]) == 0
    out = capsys.readouterr().out
    assert "both-sides window" in out and "inside" in out

    assert cli.main(["analyze-f", "--coeffs", "2=1,3=5"]) == 0
    out = capsys.readouterr().out
    assert "outside" in out


def test_analyze_f_rejects_degenerate(capsys):
    assert cli.main(["analyze-f", "--coeffs", "1=1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_freq_reports_margin_and_cap(capsys):
    assert cli.main(["freq", "--omega", "1.06", "--lmax", "5"]) == 0
    out = capsys.readouterr().out
    assert "gamma^(L) at L = 5: 0.9399" in out

    assert cli.main([
        "freq", "--omega", "1.0001", "--lmax", "32",
        "--coeffs", "3=1", "--constant", "0.05",
    ]) == 0
    out = capsys.readouterr().out
    assert "admissible dilation indices" in out
    assert "n = 1.." in out

    # wrong side for the cubic: no admissible indices
    assert cli.main([
        "freq", "--omega", "0.9999", "--lmax", "32", "--coeffs", "3=1",
    ]) == 0
    assert "none" in capsys.readouterr().out


def test_freq_out_of_range_is_config_error(capsys):
    assert cli.main(["freq", "--omega", "2.5", "--lmax", "8"]) == 2
    assert "error:" in capsys.readouterr().err


def solve_config(tmp_path, **over):
    doc = {"coeffs": "3=1", "eps": 1e-3, "n": 1, "lmax": 24, "dim": 3,
           "restarts": 3, "seed": 0}
    doc.update(over)
    return write_json(tmp_path / "solve.json", doc)


def test_solve_single_record_and_byte_identical_rerun(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    cfg1 = solve_config(tmp_path, output=str(out1))
    assert cli.main(["solve", "--config", cfg1]) == 0
    text = capsys.readouterr().out
    assert "n = 1: accepted" in text
    cfg2 = solve_config(tmp_path, output=str(out2))
    assert cli.main(["solve", "--config", cfg2]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["n"] == 1 and doc["accepted"] is True


def test_solve_branch_writes_per_level_files(tmp_path, capsys):
    outdir = tmp_path / "records"
    cfg = write_json(tmp_path / "branch.json", {
        "coeffs": "3=1", "eps": 1e-3, "n_max": 2, "lmax": 24,
        "dim": 3, "restarts": 3, "seed": 0, "output": str(outdir),
    })
    assert cli.main(["solve", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "n = 1: accepted" in out and "n = 2: accepted" in out
    assert (outdir / "record_n1.json").exists()
    assert (outdir / "record_n2.json").exists()


def test_solve_config_errors(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"coeffs": "3=1", "eps": 1e-3,
                                             "n": 1, "bogus_key": 7})
    assert cli.main(["solve", "--config", bad]) == 2
    assert "unknown solve config keys" in capsys.readouterr().err

    both = write_json(tmp_path / "both.json",
                      {"coeffs": "3=1", "eps": 1e-3, "omega": 1.01, "n": 1})
    assert cli.main(["solve", "--config", both]) == 2
    capsys.readouterr()

    neither_n = write_json(tmp_path / "nn.json", {"coeffs": "3=1", "eps": 1e-3})
    assert cli.main(["solve", "--config", neither_n]) == 2
    capsys.readouterr()

    missing = write_json(tmp_path / "m.json", {"eps": 1e-3, "n": 1})
    assert cli.main(["solve", "--config", missing]) == 2
    capsys.readouterr()

    assert cli.main(["solve", "--config", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


_RECORD_DOC = {
    "version": 1, "omega": 1.001, "eps": 0.0010005, "gamma": 0.9, "n": 1,
    "q": 3, "case": "odd-power", "xi": [0.01], "w_coeffs": [[0.0], [0.0]],
    "h1": 0.0314, "sup": 0.01, "energy": 1e-4, "residual": 0.0, "phi": 0.0,
    "predicted_level": 0.0, "accepted": True,
}


@pytest.mark.parametrize("command, override", [
    ("solve", {"restarts": 0}),
    ("solve", {"dim": 0}),
    ("solve", {"gtol": -1}),
    ("solve", {"n": 0}),
    ("solve", {"lmax": 0}),
    ("solve", {"side": 0}),
    ("solve", {"C": 0}),
    ("solve", {"residual_tol": 0.0}),
    ("scan", {"restarts": 0}),
    ("scan", {"n_max": 0}),
    ("scan", {"gtol": -1e-12}),
    ("evolve", {"steps_per_period": 0}),
    ("evolve", {"min_modes": -3}),
], ids=lambda p: p if isinstance(p, str) else ",".join(f"{k}={v}" for k, v in p.items()))
def test_out_of_range_config_exits_two(tmp_path, capsys, command, override):
    if command == "solve":
        argv = ["solve", "--config", solve_config(tmp_path, **override)]
    elif command == "scan":
        doc = {"coeffs": "3=1", "omega_range": [1.001, 1.002, 0.001],
               "solve": True, **override}
        argv = ["scan", "--config", write_json(tmp_path / "scan.json", doc)]
    else:
        record = write_json(tmp_path / "rec.json", _RECORD_DOC)
        argv = ["evolve", "--record", record, "--coeffs", "3=1",
                "--config", write_json(tmp_path / "ev.json", override)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert repr(next(iter(override))) in err


def test_solve_resonant_frequency_is_refusal(tmp_path, capsys):
    cfg = write_json(tmp_path / "res.json", {
        "coeffs": "3=1", "omega": 1.5, "n": 1, "lmax": 8,
    })
    assert cli.main(["solve", "--config", cfg]) == 1
    assert "resonant" in capsys.readouterr().out


def test_solve_wrong_side_refused(tmp_path, capsys):
    cfg = solve_config(tmp_path, eps=-1e-3)
    assert cli.main(["solve", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "not admissible" in out


def test_scan_table_shape_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "scan1.csv"
    cfg = write_json(tmp_path / "scan.json", {
        "coeffs": "3=1",
        "omega_range": [1.0001, 1.0005, 0.0001],
        "lmax": 24, "n_max": 3, "output": str(out1),
    })
    assert cli.main(["scan", "--config", cfg]) == 0
    capsys.readouterr()
    lines = out1.read_text().splitlines()
    assert lines[0] == "omega,eps,gamma,n_admissible,n,status,h1,energy"
    assert len(lines) > 1
    assert all(line.split(",")[5] == "admissible" for line in lines[1:])
    omegas = [float(line.split(",")[0]) for line in lines[1:]]
    assert omegas == sorted(omegas)

    out2 = tmp_path / "scan2.csv"
    cfg2 = write_json(tmp_path / "scanb.json", {
        "coeffs": "3=1",
        "omega_range": [1.0001, 1.0005, 0.0001],
        "lmax": 24, "n_max": 3, "output": str(out2),
    })
    assert cli.main(["scan", "--config", cfg2]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_empty_range_gives_header_only(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    cfg = write_json(tmp_path / "scan.json", {
        "coeffs": "3=1",
        # wrong side of omega = 1 for the cubic
        "omega_range": [0.9991, 0.9995, 0.0001],
        "lmax": 24, "output": str(out),
    })
    assert cli.main(["scan", "--config", cfg]) == 0
    capsys.readouterr()
    assert out.read_text() == "omega,eps,gamma,n_admissible,n,status,h1,energy\n"


def test_scan_bad_range_rejected(tmp_path, capsys):
    cfg = write_json(tmp_path / "scan.json", {
        "coeffs": "3=1", "omega_range": [1.1, 1.0],
    })
    assert cli.main(["scan", "--config", cfg]) == 2
    capsys.readouterr()


def test_verify_single_check(capsys):
    assert cli.main(["verify", "--suite", "check_kappa"]) == 0
    out = capsys.readouterr().out
    assert "PASS check_kappa" in out
    assert "1/1 checks passed" in out


def test_verify_unknown_check(capsys):
    assert cli.main(["verify", "--suite", "check_nope"]) == 2
    assert "unknown checks" in capsys.readouterr().err


def test_evolve_and_export_round_trip(tmp_path, capsys):
    record_path = tmp_path / "rec.json"
    cfg = solve_config(tmp_path, output=str(record_path))
    assert cli.main(["solve", "--config", cfg]) == 0
    capsys.readouterr()

    assert cli.main([
        "evolve", "--record", str(record_path), "--coeffs", "3=1",
        "--probe-minimal-period",
    ]) == 0
    out = capsys.readouterr().out
    assert "return_error" in out and "off_period_distance" in out

    grid = tmp_path / "grid.csv"
    assert cli.main(["export", "--record", str(record_path),
                     "--format", "csv", "--out", str(grid)]) == 0
    capsys.readouterr()
    glines = grid.read_text().splitlines()
    assert glines[0] == "t,x,u"
    assert len(glines) == 1 + 64 * 65

    spec = tmp_path / "spec.csv"
    assert cli.main(["export", "--record", str(record_path),
                     "--format", "spectrum", "--out", str(spec)]) == 0
    capsys.readouterr()
    slines = spec.read_text().splitlines()
    assert slines[0] == "l,j,coeff"
    doc = json.loads(record_path.read_text())
    n_rows = len(doc["w_coeffs"])
    n_cols = len(doc["w_coeffs"][0])
    assert len(slines) == 1 + n_rows * n_cols


def test_evolve_rejects_bad_record(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"omega": 1.0})
    assert cli.main(["evolve", "--record", bad, "--coeffs", "3=1"]) == 2
    capsys.readouterr()
    assert cli.main(["evolve", "--record", str(tmp_path / "none.json"),
                     "--coeffs", "3=1"]) == 2
    capsys.readouterr()


def test_export_loglog_from_scan(tmp_path, capsys):
    scan_out = tmp_path / "scan.csv"
    cfg = write_json(tmp_path / "scan.json", {
        "coeffs": "3=1",
        "omega_range": [1.0002, 1.001, 0.0002],
        "lmax": 24, "n_max": 1, "solve": True, "dim": 3, "restarts": 3,
        "output": str(scan_out),
    })
    assert cli.main(["scan", "--config", cfg]) == 0
    capsys.readouterr()
    ll = tmp_path / "ll.csv"
    assert cli.main(["export", "--record", str(scan_out),
                     "--format", "loglog", "--out", str(ll)]) == 0
    capsys.readouterr()
    lines = ll.read_text().splitlines()
    assert lines[0] == "log10_abs_eps,log10_h1"
    assert len(lines) > 2
    # the slope of the written pairs is the branch exponent 1/(q - 1)
    import numpy as np
    data = np.array([[float(a), float(b)] for a, b in
                     (line.split(",") for line in lines[1:])])
    slope = np.polyfit(data[:, 0], data[:, 1], 1)[0]
    assert abs(slope - 0.5) < 0.05


def test_export_loglog_rejects_wrong_table(tmp_path, capsys):
    not_scan = tmp_path / "x.csv"
    not_scan.write_text("a,b\n1,2\n")
    assert cli.main(["export", "--record", str(not_scan),
                     "--format", "loglog", "--out", str(tmp_path / "y.csv")]) == 2
    capsys.readouterr()


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["export", "--record", "x", "--format", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        cli.main(["no-such-command"])
    assert exc2.value.code == 2
