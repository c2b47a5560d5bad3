"""Command-line surface: exit codes, determinism, file formats."""

import argparse
import contextlib
import csv
import io
import json
import os
import re
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resowave import cli, evolve, fields, search


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
    argv = ["freq", "--omega", "1.001", "--lmax", "16", "--coeffs", "3=1"]
    assert cli.main([*argv, "--constant", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_huge_smallness_constant_exits_two(tmp_path, capsys):
    # C = 1e200 overflowed the level cap of frequency.max_admissible_n
    argv = ["freq", "--omega", "0.999", "--lmax", "16", "--coeffs", "2=1"]
    assert cli.main([*argv, "--constant", "1e200"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    doc = {"coeffs": "2=1", "omega": 0.999, "n_max": 2, "C": 1e200, "dim": 3,
           "restarts": 2}
    assert cli.main(["solve", "--config", write_json(tmp_path / "solve.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'C'" in err
    # the ceiling C = 1 is itself admitted
    assert cli.main([*argv, "--constant", "1"]) == 0
    assert "admissible dilation indices at C = 1:" in capsys.readouterr().out


@pytest.mark.parametrize("coeffs, eps", [("2=1e300", -4e-4), ("3=1e-300", 4e-4),
                                         ("2=1e300,3=1", 4e-4), ("3=1e300", 4e-4)])
def test_extreme_leading_coefficient_solve_exits_one(tmp_path, capsys, coeffs, eps):
    # a^2 overflows G (2=1e300) and the both-sides threshold of n3 (2=1e300,3=1);
    # a tiny m overflows t*^(q+1) (3=1e-300); a huge a leaves G and its
    # gradient finite but overflows the gradient's H^1 norm (3=1e300)
    doc = {"coeffs": coeffs, "eps": eps, "n": 1, "dim": 4, "restarts": 4}
    assert cli.main(["solve", "--config", write_json(tmp_path / "solve.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err and "Traceback" not in err


def test_extreme_leading_coefficient_scan_rows_fail(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    cfg = write_json(tmp_path / "scan.json", {
        "coeffs": "2=1e300", "omega_range": [0.996, 0.998, 0.001], "n_max": 1,
        "solve": True, "dim": 4, "restarts": 4, "output": str(out),
    })
    assert cli.main(["scan", "--config", cfg]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows and all(row[5] == "failed" for row in rows)


def scan_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_readme_scan_leaves_stderr_empty(tmp_path, capsys):
    # the levels the contraction guard refuses are failed rows of the table,
    # not warnings on stderr
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    doc = next(json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)
               if "omega_range" in block)
    out = tmp_path / "scan.csv"
    cfg = write_json(tmp_path / "scan.json", {**doc, "output": str(out)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["scan", "--config", cfg]) == 0
    assert caught == [] and capsys.readouterr().err == ""
    rows = scan_rows(out)
    assert [row["status"] for row in rows].count("failed") == 11
    # each failed row says why: here every one is a contraction-domain abort
    assert {row["reason"] for row in rows if row["status"] == "failed"} == {
        "iterate left the contraction domain during refinement"}
    assert all(row["reason"] == "" for row in rows if row["status"] != "failed")


def test_scan_failed_rows_keep_their_reason(tmp_path, capsys):
    # levels 2 and 3 do not fit lmax 8 at dim 8: their rows name the
    # truncation refusal, not only "failed"
    out = tmp_path / "scan.csv"
    cfg = write_json(tmp_path / "scan.json", {
        "coeffs": "3=1", "omega_range": [1.001, 1.01, 0.001], "n_max": 3,
        "solve": True, "lmax": 8, "dim": 8, "output": str(out),
    })
    assert cli.main(["scan", "--config", cfg]) == 0
    capsys.readouterr()
    rows = scan_rows(out)
    failed = [row["reason"] for row in rows if row["status"] == "failed"]
    assert sorted(failed) == (
        ["config key 'lmax' must be >= n * dim = 16, got 8"] * 10
        + ["config key 'lmax' must be >= n * dim = 24, got 8"] * 5)
    assert all(row["reason"] == "" for row in rows if row["status"] != "failed")


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

    # a document that is no JSON object, and a non-finite coefficient, which
    # json reads from Infinity: one error line each
    array = write_json(tmp_path / "array.json", [{"coeffs": "3=1", "eps": 1e-3, "n": 1}])
    infinite = write_json(tmp_path / "inf.json",
                          {"coeffs": [0, 0, 0, float("inf")], "eps": 1e-3, "n": 1})
    for path, reason in ((array, "config document must be a JSON object"),
                         (infinite, "nonlinearity coefficients must be finite")):
        assert cli.main(["solve", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {reason}") and err.count("\n") == 1


_RECORD_DOC = {
    "version": 1, "omega": 1.001, "eps": 0.0010005, "gamma": 0.9, "n": 1,
    "q": 3, "case": "odd-power", "xi": [0.01], "w_coeffs": [[0.0], [0.0]],
    "h1": 0.0314, "sup": 0.01, "energy": 1e-4, "residual": 0.0, "phi": 0.0,
    "predicted_level": 0.0, "accepted": True,
}


def _override_id(p):
    return p if isinstance(p, str) else ",".join(f"{k}={v}" for k, v in p.items())


def _config_argv(tmp_path, command, override):
    """The argv of command with override in its config."""
    if command == "solve":
        return ["solve", "--config", solve_config(tmp_path, **override)]
    if command == "scan":
        doc = {"coeffs": "3=1", "omega_range": [1.001, 1.002, 0.001],
               "solve": True, **override}
        return ["scan", "--config", write_json(tmp_path / "scan.json", doc)]
    record = write_json(tmp_path / "rec.json", _RECORD_DOC)
    return ["evolve", "--record", record, "--coeffs", "3=1", "--probe-minimal-period",
            "--config", write_json(tmp_path / "ev.json", override)]


def _assert_evolve_config_refused(tmp_path, capsys, override):
    # evolve has no config: argparse refuses --config, whatever the document
    # holds, before the record or the document is read
    with pytest.raises(SystemExit) as exc:
        cli.main(_config_argv(tmp_path, "evolve", override))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --config" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, override", [
    ("solve", {"restarts": 0}),
    ("solve", {"dim": 0}),
    # gtol is no config key: any value of it is refused as unknown
    ("solve", {"gtol": -1}),
    ("solve", {"gtol": 1e-12}),
    ("solve", {"n": 0}),
    # a boolean is no level, though Python counts it as an int
    ("solve", {"n": True}),
    ("solve", {"lmax": 0}),
    ("solve", {"C": 0}),
    ("solve", {"C": float("inf")}),
    ("scan", {"C": float("inf")}),
    ("solve", {"C": 1.5}),
    ("scan", {"C": 1e200}),
    ("scan", {"restarts": 0}),
    ("scan", {"n_max": 0}),
    ("scan", {"gtol": -1e-12}),
    ("scan", {"gtol": 1e-12}),
    ("scan", {"omega_range": [1.001, float("nan"), 0.001]}),
    # a reversed window and one wholly outside frequency.OMEGA_RANGE
    ("scan", {"omega_range": [1.01, 1.001, 0.001]}),
    ("scan", {"omega_range": [0.1, 0.2, 0.01]}),
    # a boolean is no frequency, though Python counts it as an int
    ("scan", {"omega_range": [True, 1.01, 0.001]}),
    ("solve", {"seed": -5000}),
    ("scan", {"seed": -1}),
    ("solve", {"lt": 4, "n": 2, "dim": 6}),
    ("solve", {"lx": 5, "dim": 3, "n": 2}),
    ("solve", {"lt": 16, "lx": 20}),
    ("solve", {"lmax": 8, "n": 3, "dim": 3}),
    ("evolve", {"steps_per_period": 0}),
], ids=_override_id)
def test_out_of_range_config_exits_two(tmp_path, capsys, command, override):
    if command == "evolve":
        return _assert_evolve_config_refused(tmp_path, capsys, override)
    assert cli.main(_config_argv(tmp_path, command, override)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert repr(next(iter(override))) in err


@pytest.mark.parametrize("command, override", [
    # the side is the one omega is on, the residual bar and the integrator's
    # mode counts are constants: any value of these keys is refused
    ("solve", {"side": 0}),
    ("solve", {"side": -1}),
    ("solve", {"residual_tol": 0.0}),
    ("solve", {"residual_tol": 1e-8}),
    ("scan", {"residual_tol": 1e-8}),
    ("evolve", {"min_modes": -3}),
    ("evolve", {"min_modes": 10**12}),
    ("evolve", {"min_modes": 32}),
    ("evolve", {"mode_factor": 10**6}),
    ("evolve", {"mode_factor": 4}),
], ids=_override_id)
def test_removed_config_key_exits_two(tmp_path, capsys, command, override):
    if command == "evolve":
        return _assert_evolve_config_refused(tmp_path, capsys, override)
    assert cli.main(_config_argv(tmp_path, command, override)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown {command} config keys:")
    assert repr(next(iter(override))) in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("flags", [
    ["--periods", "2"],
    ["--periods", "1"],
    ["--periods", "0"],
    ["--periods", "-1"],
], ids=lambda flags: flags[0].lstrip("-") + "=" + flags[1])
def test_removed_evolve_option_exits_two(tmp_path, capsys, flags):
    # evolve checks one period: it has no period count, and argparse refuses
    # the flag before a record is read
    record = write_json(tmp_path / "rec.json", _RECORD_DOC)
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", "--record", record, "--coeffs", "3=1", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(flags)}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("coeffs", ["3=x", "1=1", "1000000000000000=1", "3=inf", "3=nan"])
@pytest.mark.parametrize("command", ["analyze-f", "freq", "solve", "scan", "evolve"])
def test_junk_coefficients_exit_two(tmp_path, capsys, command, coeffs):
    if command == "analyze-f":
        argv = ["analyze-f", "--coeffs", coeffs]
    elif command == "freq":
        argv = ["freq", "--omega", "1.001", "--lmax", "16", "--coeffs", coeffs]
    elif command == "solve":
        argv = ["solve", "--config", solve_config(tmp_path, coeffs=coeffs)]
    elif command == "scan":
        doc = {"coeffs": coeffs, "omega_range": [1.001, 1.002, 0.001]}
        argv = ["scan", "--config", write_json(tmp_path / "scan.json", doc)]
    else:
        record = write_json(tmp_path / "rec.json", _RECORD_DOC)
        argv = ["evolve", "--record", record, "--coeffs", coeffs]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("override", [
    {"lt": 12, "n_max": 2},
    {"lx": 6, "n_max": 2},
    {"lt": 12, "lx": 6, "n_max": 2},
], ids=lambda d: json.dumps(d))
def test_branch_refuses_level_truncations(tmp_path, capsys, override):
    doc = {"coeffs": "3=1", "eps": 1e-3, "lmax": 24, "dim": 3, **override}
    argv = ["solve", "--config", write_json(tmp_path / "branch.json", doc)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    for key in override:
        assert repr(key) in captured.err


@pytest.mark.parametrize("command", ["freq", "solve", "scan"])
def test_lmax_above_max_l_exits_two_at_once(tmp_path, capsys, command):
    # gamma^(L) reads every row up to L, so 10^8 rows would take minutes;
    # the key is refused before any is read
    if command == "freq":
        argv = ["freq", "--omega", "1.01", "--lmax", "100000000"]
    elif command == "solve":
        argv = ["solve", "--config", solve_config(tmp_path, lmax=10**8)]
    else:
        doc = {"coeffs": "3=1", "omega_range": [1.001, 1.01, 0.001], "lmax": 10**8}
        argv = ["scan", "--config", write_json(tmp_path / "scan.json", doc)]
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "'lmax' must be in [1, MAX_L = 65536]" in captured.err


def test_scan_grid_too_fine_exits_two(tmp_path, capsys):
    # 9e9 frequencies: refused before numpy is asked for them
    doc = {"coeffs": "3=1", "omega_range": [1.001, 1.01, 1e-12]}
    assert cli.main(["scan", "--config", write_json(tmp_path / "scan.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'omega_range': ")
    assert "MAX_SCAN_ROWS" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("command, doc, key", [
    ("solve", {"coeffs": "3=1", "eps": 4e-4, "n_max": 2, "dim": 10**8}, "dim"),
    ("solve", {"coeffs": "3=1", "eps": 4e-4, "n_max": 2, "restarts": 10**9}, "restarts"),
    ("scan", {"coeffs": "3=1", "omega_range": [1.001, 1.002, 0.001], "solve": True,
              "dim": 10**8}, "dim"),
], ids=["solve-branch-dim", "solve-branch-restarts", "scan-dim"])
def test_sphere_above_its_caps_exits_two(tmp_path, capsys, monkeypatch, command, doc, key):
    # no truncation check reads dim or restarts in a branch or a scan: the
    # maximizer's random starts once asked numpy for restarts x dim/2 floats
    def never(*args, **kw):
        raise AssertionError("maximized on a refused sphere")

    monkeypatch.setattr(search, "maximize_U", never)
    path = write_json(tmp_path / f"{command}.json", doc)
    assert cli.main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    cap = {"dim": "MAX_DIM = 256", "restarts": "MAX_RESTARTS = 64"}[key]
    assert captured.err.startswith(f"error: config key {key!r} must be in [1, {cap}]")
    assert "Traceback" not in captured.err


def test_evolve_step_checked_only_at_the_times_it_integrates(tmp_path, capsys, monkeypatch):
    # the step is checked by the 2M- and (M + 1)-step runs of the return,
    # the one time integrated here; an odd step count is no special case
    monkeypatch.setattr(evolve, "STEPS_PER_PERIOD", 101)
    record = write_json(tmp_path / "rec.json", _RECORD_DOC)
    assert cli.main(["evolve", "--record", record, "--coeffs", "3=1"]) != 2
    assert "return_error" in capsys.readouterr().out


def _wide_record(columns):
    """_RECORD_DOC with a range part of zeros that many sine columns wide."""
    return dict(_RECORD_DOC, w_coeffs=[[0.0] * columns] * 2)


@pytest.mark.parametrize("steps, columns", [
    (1, 1),
    (64, 1),
    (101, 1),
    (evolve.STEPS_PER_PERIOD, 500),
], ids=["steps_per_period=1", "steps_per_period=64", "steps_per_period=101", "columns=500"])
def test_evolve_has_no_step_bound(tmp_path, capsys, monkeypatch, steps, columns):
    # the linear flow is exact, so no step or mode count is unstable: these
    # steps were refused by the CFL bound of the explicit scheme before.
    # A 500-column record runs 2000 modes on the sine-FFT path, with nothing
    # of size N^2
    monkeypatch.setattr(evolve, "STEPS_PER_PERIOD", steps)
    record = write_json(tmp_path / "rec.json", _wide_record(columns))
    argv = ["evolve", "--record", record, "--coeffs", "3=1", "--probe-minimal-period"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert "return_error" in captured.out and "off_period_distance" in captured.out
    assert captured.err == ""


def test_evolve_refuses_a_record_too_wide_for_max_modes(tmp_path, capsys, monkeypatch):
    # 4097 sine columns need 4 x 4097 modes, above evolve.MAX_MODES: refused
    # before the integrator builds its transforms or takes a step
    def unreachable(*args):
        raise AssertionError("the integrator ran")

    monkeypatch.setattr(evolve, "_transforms", unreachable)
    monkeypatch.setattr(evolve, "_impulse", unreachable)
    record = write_json(tmp_path / "rec.json", _wide_record(4097))
    assert cli.main(["evolve", "--record", record, "--coeffs", "3=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "4097 sine columns" in captured.err


def test_evolve_runs_a_wide_record_on_its_sub_lattice(tmp_path, capsys):
    # the 4097-column record with its xi moved to j = 8 sits on j in 8Z:
    # MAX_MODES bounds the 2048 modes of that class, not the 16388 of the
    # full run, so it is integrated.  Its omega is 1.0001, where the mode
    # j = 8 returns within the bar, and w_coeffs has the rows xi needs
    doc = dict(_wide_record(4097), omega=1.0001, xi=[0.0] * 7 + [0.01],
               w_coeffs=[[0.0] * 4097] * 9)
    record = write_json(tmp_path / "rec.json", doc)
    argv = ["evolve", "--record", record, "--coeffs", "3=1", "--probe-minimal-period"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert "modes = 16391" in captured.out and "off_period_distance" in captured.out
    assert captured.err == ""


def test_evolve_too_coarse_for_the_record_exits_two(tmp_path, capsys):
    # at amplitude 0.5 the 128- and 65-step returns differ by more than a
    # tenth of the return bar (3.6e-5): the oracle cannot decide.  At 0.1
    # they agree to well below it
    def evolve_one_mode(amplitude):
        record = write_json(tmp_path / "rec.json", dict(_RECORD_DOC, xi=[amplitude]))
        return cli.main(["evolve", "--record", record, "--coeffs", "3=1"])

    assert evolve_one_mode(0.5) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the return check cannot decide this record")
    assert "a tenth of the return bar 0.0001" in captured.err
    assert evolve_one_mode(0.1) == 0
    assert "error_bar" in capsys.readouterr().out


@pytest.mark.parametrize("override", [
    {"eps": -0.7},
    {"coeffs": ["a", 1]},
    {"coeffs": {"x": 1}},
    {"coeffs": {"-3": 1}},
    {"coeffs": [0, 0, 0, None]},
], ids=lambda d: json.dumps(d))
def test_unreadable_solve_inputs_exit_two(tmp_path, capsys, override):
    assert cli.main(["solve", "--config", solve_config(tmp_path, **override)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("override", [{"lt": 400, "lx": 400}, {"dim": 200}], ids=lambda d: json.dumps(d))
def test_oversized_newton_system_exits_two(tmp_path, capsys, monkeypatch, override):
    # 40000 unknowns, the entries k and m odd of the 401 x 400 frame:
    # refused before anything is sampled
    def never(*args, **kw):
        raise AssertionError("sampled a refused truncation")

    monkeypatch.setattr(fields, "planned_polynomials", never)
    monkeypatch.setattr(fields, "planned_poly_matrix", never)
    monkeypatch.setattr(search, "maximize_U", never)
    cfg = solve_config(tmp_path, **{"eps": 4e-4, "dim": 4, "restarts": 2, "lmax": 400, **override})
    assert cli.main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "lt=400, lx=400 has 40000 Newton unknowns" in err


def test_branch_level_refused_by_its_truncation_fails_as_a_single_level(tmp_path, capsys,
                                                                        monkeypatch):
    # lmax 8 holds level 1 of dim 8 but not n * dim at levels 2 and 3: the
    # branch lists them as failed, unmaximized, with the message and the
    # exit 2 that the single level gets
    doc = {"coeffs": "3=1", "omega": 1.001, "dim": 8, "lmax": 8}
    assert cli.main(["solve", "--config", write_json(tmp_path / "one.json", {**doc, "n": 2})]) == 2
    err = capsys.readouterr().err
    assert err == "error: config key 'lmax' must be >= n * dim = 16, got 8\n"
    maximized = []
    real = search.maximize_U
    monkeypatch.setattr(search, "maximize_U",
                        lambda recipe, *a, **kw: maximized.append(recipe.n) or real(recipe, *a, **kw))
    assert cli.main(["solve", "--config", write_json(tmp_path / "br.json", {**doc, "n_max": 3})]) == 1
    out = capsys.readouterr().out
    assert "n = 1: accepted " in out
    assert out.endswith(f"n = 2: failed ({err[7:-1]})\n"
                        "n = 3: failed (config key 'lmax' must be >= n * dim = 24, got 8)\n")
    assert maximized == [1]


def test_scan_maximizes_each_level_once(tmp_path, capsys, monkeypatch):
    # G does not depend on omega: over the five frequencies each u^2 level
    # (the quadratic form: one maximum per n) is maximized once, and the
    # table is the one a new maximizer at every row writes
    doc = {"coeffs": "2=1", "omega_range": [0.999, 0.9998, 0.0002], "n_max": 3,
           "solve": True, "dim": 8, "restarts": 8}
    maximized = []
    real = search.maximize_U
    monkeypatch.setattr(search, "maximize_U",
                        lambda recipe, *a, **kw: maximized.append(recipe.n) or real(recipe, *a, **kw))

    def scan(name):
        out = tmp_path / f"{name}.csv"
        argv = ["scan", "--config", write_json(tmp_path / "scan.json", {**doc, "output": str(out)})]
        assert cli.main(argv) == 0
        return out.read_bytes()

    shared = scan("shared")
    assert maximized == [1, 2, 3]
    assert shared.count(b"\n") == 10 and shared.count(b",accepted,") == 7
    # each frequency of a level solved alone, with a new maximizer
    stack = search.solve_frequencies
    monkeypatch.setattr(search, "solve_frequencies", lambda ctxs, f, n, m: [
        next(stack([ctx], f, n, search.LevelMaximizer(m.dim, m.seed, m.restarts))) for ctx in ctxs])
    maximized.clear()
    assert scan("fresh") == shared
    assert len(maximized) == 9


def test_scan_sizes_each_level_once(tmp_path, capsys, monkeypatch):
    # the README window: each of its three levels makes its dilation frame
    # once, for the 10, 10 and 5 frequencies solved on it as one stack
    made = []
    real = search._dilation_frame
    monkeypatch.setattr(search, "_dilation_frame", lambda f, n, v=None: made.append(n) or real(f, n, v))
    doc = {"coeffs": "3=1", "omega_range": [1.001, 1.01, 0.001], "n_max": 3, "solve": True,
           "output": str(tmp_path / "scan.csv")}
    assert cli.main(["scan", "--config", write_json(tmp_path / "scan.json", doc)]) == 0
    rows = (tmp_path / "scan.csv").read_text().splitlines()[1:]
    assert made == [1, 2, 3]
    assert [sum(row.split(",")[4] == str(n) for row in rows) for n in (1, 2, 3)] == [10, 10, 5]


def test_explicit_truncation_in_range_is_solved(tmp_path, capsys):
    # lx alone may exceed the default temporal truncation; lt follows it
    cfg = solve_config(tmp_path, lx=20, output=str(tmp_path / "r.json"))
    assert cli.main(["solve", "--config", cfg]) == 0
    capsys.readouterr()
    assert len(json.loads((tmp_path / "r.json").read_text())["xi"]) == 20


def test_single_level_starts_from_the_branch_maximizer(tmp_path, capsys):
    # solve with n: 2 and with n_max: 2 share the seed rule, so the n = 2
    # records are the same bytes
    single = tmp_path / "single.json"
    assert cli.main(["solve", "--config", solve_config(
        tmp_path, n=2, seed=4, output=str(single))]) == 0
    outdir = tmp_path / "branch"
    cfg = write_json(tmp_path / "branch.json", {
        "coeffs": "3=1", "eps": 1e-3, "n_max": 2, "lmax": 24,
        "dim": 3, "restarts": 3, "seed": 4, "output": str(outdir),
    })
    assert cli.main(["solve", "--config", cfg]) == 0
    capsys.readouterr()
    assert single.read_bytes() == (outdir / "record_n2.json").read_bytes()


def test_forced_branch_attempts_levels_below_the_minimal_index(tmp_path, capsys):
    # u^4 is covered from n = 2; force waives the minimal index on a branch too
    cfg = write_json(tmp_path / "branch.json", {
        "coeffs": "4=1", "eps": -1e-4, "n_max": 2, "lmax": 24, "dim": 3,
        "force": True, "output": str(tmp_path / "records"),
    })
    # exit 1: the n = 2 record misses the energy-drift bar
    assert cli.main(["solve", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "n = 1: accepted outside-theorem" in out
    assert "n = 2: " in out


def test_scan_row_is_the_single_level_solve(tmp_path, capsys):
    # a solved scan row and solve with n at that row's omega run the same
    # pipeline, so they print the same size and energy
    scan_out = tmp_path / "scan.csv"
    cfg = write_json(tmp_path / "scan.json", {
        "coeffs": "3=1", "omega_range": [1.0004, 1.0004, 0.0001], "lmax": 24,
        "n_max": 2, "solve": True, "dim": 3, "restarts": 3, "seed": 2,
        "output": str(scan_out),
    })
    assert cli.main(["scan", "--config", cfg]) == 0
    capsys.readouterr()
    row = scan_out.read_text().splitlines()[-1].split(",")
    assert row[4] == "2" and row[5] == "accepted"
    record = tmp_path / "r.json"
    solve = write_json(tmp_path / "solve.json", {
        "coeffs": "3=1", "omega": float(row[0]), "n": 2, "lmax": 24, "dim": 3,
        "restarts": 3, "seed": 2, "output": str(record),
    })
    assert cli.main(["solve", "--config", solve]) == 0
    capsys.readouterr()
    doc = json.loads(record.read_text())
    assert [cli._fmt(doc["h1"]), cli._fmt(doc["energy"])] == row[6:8]


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
    assert "bifurcates to omega>1" in out


@pytest.mark.parametrize("coeffs, eps, n_max, reason", [
    ("3=1", -1e-3, 2, "case odd-power bifurcates to omega>1"),
    ("4=1", -1e-5, 1, "n_max below the minimal index 2"),
])
def test_branch_without_admissible_level_says_why(tmp_path, capsys, coeffs, eps,
                                                  n_max, reason):
    cfg = write_json(tmp_path / "branch.json", {
        "coeffs": coeffs, "eps": eps, "n_max": n_max, "lmax": 24, "dim": 3,
    })
    assert cli.main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().out == f"no admissible level ({reason})\n"


def test_branch_without_output_writes_one_record_per_line(tmp_path, capsys):
    # with no output directory every record is one JSON line on stdout,
    # after its summary line, with the bytes record_n<k>.json would hold
    doc = {"coeffs": "3=1", "eps": 1e-3, "n_max": 2, "lmax": 24, "dim": 3, "restarts": 3}
    assert cli.main(["solve", "--config", write_json(tmp_path / "branch.json", doc)]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    out_dir = tmp_path / "records"
    doc["output"] = str(out_dir)
    assert cli.main(["solve", "--config", write_json(tmp_path / "branch.json", doc)]) == 0
    summaries = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[0::2] == summaries and len(summaries) == 2
    assert lines[1::2] == [(out_dir / f"record_n{n}.json").read_text() for n in (1, 2)]
    for line in lines[1::2]:
        assert search.SolutionRecord.from_document(json.loads(line)).accepted


def test_forced_wrong_side_rejects_trivial_solution(tmp_path, capsys):
    # no branch exists on this side, where the refinement could only find
    # u = 0: force waives admissibility, but the side is read off omega and
    # g_recipe refuses it before anything is solved
    cfg = write_json(tmp_path / "forced.json", {
        "coeffs": "3=1", "eps": -1e-3, "n": 1, "lmax": 24, "dim": 3, "force": True,
    })
    assert cli.main(["solve", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: case odd-power bifurcates to omega>1, not omega<1\n"


def test_either_side_case_solves_on_the_side_of_omega(tmp_path, capsys, monkeypatch):
    # 2=1,3=0.1 bifurcates to both sides of omega = 1 (n3 with small b > 0):
    # below omega = 1 it is solved with the sign of omega < 1, no side key
    cfg = write_json(tmp_path / "either.json", {
        "coeffs": "2=1,3=0.1", "eps": -1e-4, "n": 1, "dim": 4, "restarts": 4,
    })
    assert cli.main(["solve", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[1])["accepted"] is True

    sides = []
    maximize = search.maximize_U

    def counted(recipe, *args, **kwargs):
        sides.append(recipe.side)
        return maximize(recipe, *args, **kwargs)

    monkeypatch.setattr(search, "maximize_U", counted)
    table = tmp_path / "either.csv"
    cfg = write_json(tmp_path / "scan.json", {
        "coeffs": "2=1,3=0.1", "omega_range": [0.9998, 1.0002, 0.0001],
        "n_max": 2, "solve": True, "output": str(table),
    })
    assert cli.main(["scan", "--config", cfg]) == 0
    rows = [line.split(",") for line in table.read_text().splitlines()[1:]]
    below = [row[5] for row in rows if float(row[0]) < 1.0]
    above = [row[5] for row in rows if float(row[0]) > 1.0]
    assert below == ["accepted"] * 4
    # at dim 4 G has no positive value above omega = 1; the one refusal
    # serves every row there
    assert above == ["failed"] * 4
    assert sorted(sides) == [-1, 1]


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
    assert lines[0] == "omega,eps,gamma,n_admissible,n,status,h1,energy,reason"
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
    assert out.read_text() == "omega,eps,gamma,n_admissible,n,status,h1,energy,reason\n"


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


def test_verify_negative_seed_exits_two(capsys):
    assert cli.main(["verify", "--suite", "check_kappa", "--seed", "-1"]) == 2
    assert "error: 'seed' must be >= 0" in capsys.readouterr().err


def test_evolve_and_export_round_trip(tmp_path, capsys):
    record_path = tmp_path / "rec.json"
    cfg = solve_config(tmp_path, output=str(record_path))
    assert cli.main(["solve", "--config", cfg]) == 0
    capsys.readouterr()

    # evolve prints these keys in this order, each "key = value", and the
    # off-period distance only when asked for
    keys = ["periods", "dt", "steps", "modes", "return_error", "bar", "error_bar"]
    for flags, want in [([], keys), (["--probe-minimal-period"], keys + ["off_period_distance"])]:
        argv = ["evolve", "--record", str(record_path), "--coeffs", "3=1", *flags]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        pairs = [item.split(" = ") for line in out.splitlines() for item in line.split("  ")]
        assert [key for key, _ in pairs] == want

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


@pytest.mark.parametrize("table", ["eps,h1\nabc,1\n", "eps,h1\n1e-3,x\n", "h1,eps\n1\n"])
def test_export_loglog_rejects_non_numeric_cells(tmp_path, capsys, table):
    scan = tmp_path / "scan.csv"
    scan.write_text(table)
    assert cli.main(["export", "--record", str(scan), "--format", "loglog"]) == 2
    assert "non-numeric eps or h1" in capsys.readouterr().err


# a well-formed record document, which each case below spoils in one place
GOOD_RECORD = {
    "version": 1, "omega": 1.004, "eps": 0.004008, "gamma": 0.996, "n": 1, "q": 2,
    "case": "odd-power", "xi": [0.1, 0.0], "w_coeffs": [[0.0, 0.0], [0.0, 1e-5], [0.0, 0.0]],
    "h1": 0.3, "sup": 0.1, "energy": 0.01, "residual": 0.0, "phi": 1e-4,
    "predicted_level": 1e-4, "accepted": True,
}


@pytest.mark.parametrize("doc, reason", [
    ([[1]], "JSON object"),
    (dict(GOOD_RECORD, xi=["a", 0.0]), "'xi' is not a numeric array"),
    (dict(GOOD_RECORD, w_coeffs=[[0.0, "x"], [0.0, 0.0]]), "'w_coeffs' is not a numeric array"),
    (dict(GOOD_RECORD, w_coeffs=[[0.0, 0.0], [0.0]]), "'w_coeffs' is not a numeric array"),
    (dict(GOOD_RECORD, xi=[[0.1, 0.0]]), "'xi' must be 1-d"),
    (dict(GOOD_RECORD, w_coeffs=[0.0, 1e-5]), "'w_coeffs' must be 2-d"),
    # json reads NaN and Infinity into arrays
    (dict(GOOD_RECORD, xi=[float("nan"), 0.0]), "'xi' has a non-finite entry"),
    (dict(GOOD_RECORD, w_coeffs=[[0.0, float("inf")], [0.0, 0.0], [0.0, 0.0]]),
     "'w_coeffs' has a non-finite entry"),
    (dict(GOOD_RECORD, w_coeffs=[[], [], []]), "'w_coeffs' must have at least one column"),
    (dict(GOOD_RECORD, omega="1.0001"), "'omega' must be a finite number"),
    (dict(GOOD_RECORD, omega=None), "'omega' must be a finite number"),
    (dict(GOOD_RECORD, omega=1e300), "'omega' = 1e+300 outside"),
    (dict(GOOD_RECORD, h1=float("nan")), "'h1' must be a finite number"),
    (dict(GOOD_RECORD, phi=True), "'phi' must be a finite number"),
    (dict(GOOD_RECORD, energy=10**400), "'energy' must be a finite number"),
    (dict(GOOD_RECORD, n="1"), "'n' must be an integer >= 1"),
    (dict(GOOD_RECORD, n=-1), "'n' must be an integer >= 1"),
    (dict(GOOD_RECORD, n=0), "'n' must be an integer >= 1"),
    (dict(GOOD_RECORD, n=1.5), "'n' must be an integer >= 1"),
    # a level-n record keeps its kernel entries at j = n, 2n, ... of xi
    (dict(GOOD_RECORD, n=len(GOOD_RECORD["xi"]) + 1), "'n' = 3 exceeds the 2 entries of 'xi'"),
    (dict(GOOD_RECORD, n=10**30), f"'n' = {10**30} exceeds"),
    # the field is xi on the diagonal of w_coeffs, so xi holds no entry past it
    (dict(GOOD_RECORD, xi=[0.1, 0.0, 0.0, 1e-9]), "'xi' has a nonzero entry past j = 2"),
    (dict(GOOD_RECORD, q=True), "'q' must be an integer >= 2"),
    (dict(GOOD_RECORD, version=1.0), "'version' must be an integer >= 1"),
    (dict(GOOD_RECORD, version=2), "'version' = 2: this reader knows version 1 only"),
    (dict(GOOD_RECORD, case="quartic"), "'case' must be one of"),
    (dict(GOOD_RECORD, accepted="yes"), "'accepted' must be true or false"),
], ids=["not-object", "xi-text", "w-text", "w-ragged", "xi-2d", "w-1d", "xi-nan", "w-inf",
        "w-no-column", "omega-text",
        "omega-null", "omega-huge", "h1-nan", "phi-bool", "energy-huge-int", "n-text",
        "n-negative", "n-zero", "n-fraction", "n-beyond-xi", "n-huge", "xi-past-w", "q-bool",
        "version-float",
        "version-2", "case-unknown",
        "accepted-text"])
@pytest.mark.parametrize("command", ["export", "evolve"])
def test_malformed_record_exits_two(tmp_path, capsys, command, doc, reason):
    path = write_json(tmp_path / "rec.json", doc)
    argv = {"export": ["export", "--record", path, "--format", "csv"],
            "evolve": ["evolve", "--record", path, "--coeffs", "3=1"]}[command]
    assert cli.main(argv) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("command", ["export", "evolve"])
def test_good_record_is_read(tmp_path, capsys, command):
    path = write_json(tmp_path / "rec.json", GOOD_RECORD)
    argv = {"export": ["export", "--record", path, "--format", "csv",
                       "--out", str(tmp_path / "grid.csv")],
            "evolve": ["evolve", "--record", path, "--coeffs", "3=1"]}[command]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def _input_argv(command, path):
    return {"solve": ["solve", "--config", path],
            "scan": ["scan", "--config", path],
            "evolve": ["evolve", "--record", path, "--coeffs", "3=1"],
            "export-csv": ["export", "--record", path, "--format", "csv"],
            "export-loglog": ["export", "--record", path, "--format", "loglog"]}[command]


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("command", ["solve", "scan", "evolve", "export-csv", "export-loglog"])
def test_unreadable_input_file_exits_two(tmp_path, capsys, command, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        # a UTF-16 byte-order mark: no UTF-8 text starts with 0xff
        path.write_bytes(b"\xff\xfe{\x00}\x00")
    assert cli.main(_input_argv(command, str(path))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "not found: " if kind == "missing" else "cannot read "
    assert captured.err.startswith("error: ") and message in captured.err
    assert str(path) in captured.err and "Traceback" not in captured.err


def test_scan_table_with_an_oversized_cell_exits_two(tmp_path, capsys):
    # a cell beyond the csv module's field limit is a read failure
    scan = tmp_path / "scan.csv"
    scan.write_text("eps,h1\n" + "1" * 200000 + ",1\n")
    assert cli.main(_input_argv("export-loglog", str(scan))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read scan table ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "scan", "evolve", "export-csv"])
def test_input_file_that_is_not_json_exits_two(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_text("{")
    assert cli.main(_input_argv(command, str(path))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not valid JSON: " in err


@pytest.mark.parametrize("case", ["solve", "branch", "export"])
def test_unwritable_output_exits_two(tmp_path, capsys, case):
    taken = tmp_path / "taken"
    taken.write_text("")
    if case == "solve":
        # a directory where the record file should go; the level is solved first
        argv = ["solve", "--config", solve_config(tmp_path, output=str(tmp_path))]
    elif case == "branch":
        # a file where the branch's record directory should go
        argv = ["solve", "--config", write_json(tmp_path / "branch.json", {
            "coeffs": "3=1", "eps": 1e-3, "n_max": 2, "lmax": 24,
            "dim": 3, "restarts": 3, "output": str(taken)})]
    else:
        record = write_json(tmp_path / "rec.json", GOOD_RECORD)
        argv = ["export", "--record", record, "--format", "csv", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    assert taken.read_text() == ""


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["export", "--record", "x", "--format", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        cli.main(["no-such-command"])
    assert exc2.value.code == 2


# ---------------------------------------------------------------------------
# config fuzzing: every document is solved or refused, never a traceback

# wrong types and out-of-range numbers
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-6000, 0),
    st.floats(allow_nan=True, allow_infinity=True), st.lists(st.integers(), max_size=2),
)


def _or_junk(strategy):
    """Mostly a valid value; one draw in 16 is junk (not the first value,
    which is the one the generator favours)."""
    return st.integers(0, 15).flatmap(lambda i: _JUNK if i == 7 else strategy)


_COEFFS = st.sampled_from([
    "3=1", "3=1", "3=-1", "2=1", "2=1,3=-1", "2=1,3=0.2", "4=1,5=1",
    [0, 0, 0, 1], {"3": 1}, "1=1", "3=x", [], ["a"], {"-3": 1},
    # term orders above nonlinearity.MAX_ORDER, in each of the three forms
    "1000000000000000=1", "3=1,65=1", {"1000000000000000": 1}, [0] * 66 + [1],
])
_OMEGA = st.one_of(st.floats(0.995, 1.005), st.floats(0.4, 1.6))
_EPS = st.sampled_from([1e-3, 1e-4, -1e-3, -2e-4, 0.0, -0.7, 0.5])


@st.composite
def _exclusive(draw, first, second):
    """Mostly exactly one of two exclusive keys; both or neither now and then."""
    pick = draw(st.integers(0, 9))
    doc = {}
    for (key, values), picks in ((first, (0, 1, 2, 3, 8)), (second, (4, 5, 6, 7, 8))):
        if pick in picks:
            doc[key] = draw(_or_junk(values))
    return doc


def _merged(*parts):
    return st.tuples(*parts).map(lambda ds: {k: v for d in ds for k, v in d.items()})


_SOLVE_DOCS = _merged(
    st.fixed_dictionaries({"coeffs": _or_junk(_COEFFS)}, optional={
        "lmax": _or_junk(st.integers(1, 32)),
        "lt": _or_junk(st.integers(1, 32)),
        "lx": _or_junk(st.integers(1, 32)),
        "dim": _or_junk(st.integers(1, 3)),
        "restarts": _or_junk(st.integers(1, 2)),
        "seed": _or_junk(st.integers(0, 6000)),
        "C": _or_junk(st.floats(0.001, 0.2)),
        "force": _or_junk(st.booleans()),
    }),
    _exclusive(("omega", _OMEGA), ("eps", _EPS)),
    _exclusive(("n", st.integers(1, 3)), ("n_max", st.integers(1, 3))),
)

_SCAN_DOCS = st.fixed_dictionaries({
    "coeffs": _or_junk(_COEFFS),
    "omega_range": _or_junk(st.tuples(
        st.sampled_from([1.001, 1.004, 0.997, 1.0]) | st.floats(0.995, 1.005),
        st.sampled_from([0.004, 0.002, 0.0, -0.002]),
        st.sampled_from([0.001, 0.002, 0.0, -0.001]),
    ).map(lambda t: [t[0], t[0] + t[1], t[2]])),
    "solve": _or_junk(st.sampled_from([True, True, False])),
}, optional={
    "lmax": _or_junk(st.integers(1, 24)),
    "n_max": _or_junk(st.integers(1, 2)),
    "C": _or_junk(st.floats(0.001, 0.2)),
    "dim": _or_junk(st.integers(1, 2)),
    "restarts": _or_junk(st.integers(1, 2)),
    "seed": _or_junk(st.integers(0, 6000)),
})


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_contract(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def _fuzz(examples):
    # derandomized, so tier-1 runs the same documents every time; together
    # the two tests take about 15 s on 2 cores
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    database=None)


@_fuzz(100)
@given(doc=_SOLVE_DOCS)
def test_fuzzed_solve_config_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        doc["output"] = os.path.join(tmp, "out")
        path = os.path.join(tmp, "solve.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        _assert_contract(*_run_quietly(["solve", "--config", path]))


@_fuzz(50)
@given(doc=_SCAN_DOCS)
def test_fuzzed_scan_config_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        doc["output"] = os.path.join(tmp, "scan.csv")
        path = os.path.join(tmp, "scan.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        _assert_contract(*_run_quietly(["scan", "--config", path]))


def test_readme_scan_twice_writes_the_same_table(tmp_path, capsys):
    # the second scan reads every sampling plan from the warm cache and
    # writes the first scan's bytes, which were built from a cold one
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    doc = next(json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)
               if "omega_range" in block)
    tables = []
    for cold in (True, False):
        if cold:
            fields._sampling.cache_clear()
        out = tmp_path / f"scan_{cold}.csv"
        assert cli.main(["scan", "--config", write_json(tmp_path / "scan.json",
                                                        {**doc, "output": str(out)})]) == 0
        tables.append(out.read_bytes())
        if cold:
            misses = fields._sampling.cache_info().misses
    assert tables[0] == tables[1]
    info = fields._sampling.cache_info()
    assert info.hits > 0 and info.misses == misses


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # the parser is built once per process, not at every call, and each
    # call keeps its output and exit code
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    outputs = []
    for _ in range(2):
        assert cli.main(["analyze-f", "--coeffs", "3=1"]) == 0
        outputs.append(capsys.readouterr())
    assert built.count("resowave") == 1 and outputs[0] == outputs[1]
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze-f"])
    assert exc.value.code == 2 and "--coeffs" in capsys.readouterr().err
    assert built.count("resowave") == 1
