"""Command-line surface: classify, survey, solve, verify, evolve, export.

Every command is deterministic under a fixed config and seed; reruns produce
byte-identical files.  Exit codes: 0 success, 1 compute failure or refusal,
2 configuration or usage error, which includes an input file that cannot be
read (each is read through _read_input) and an output that cannot be written.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import evolve, fields, frequency, nonlinearity, search, verify
from .errors import ClassificationError, ConfigError, ResowaveError

__all__ = ["main"]


def _fmt(x):
    return f"{float(x):.17g}"


def _parse_coeffs(value):
    """Accept a flag string "3=1,5=-2", a JSON list, or a JSON object.

    Every refusal, a classification one included, is a ConfigError.
    """
    try:
        if isinstance(value, str):
            coeffs = nonlinearity.parse_coeff_string(value)
        elif isinstance(value, list):
            coeffs = [float(c) for c in value]
        elif isinstance(value, dict):
            coeffs = {int(k): float(v) for k, v in value.items()}
        else:
            raise TypeError(type(value).__name__)
        values = coeffs.values() if isinstance(coeffs, dict) else coeffs
        if not all(math.isfinite(c) for c in values):
            raise ConfigError(f"nonlinearity coefficients must be finite: {value!r}")
        return nonlinearity.classify(coeffs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot interpret nonlinearity coefficients: {value!r}") from exc
    except ClassificationError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# input files and config documents


def _read_input(path, what, parse=json.load):
    """Read the input file at path (a config, a record or a scan table) with parse.

    `what` names the file in messages.  Every failure to read it is a
    ConfigError: a missing file, a directory, an unreadable file, bytes that
    are not UTF-8, or text that parse refuses.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _load_config(path):
    doc = _read_input(path, "config file")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def _validate(doc, schema, command):
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ConfigError(f"unknown {command} config keys: {unknown}")
    out = {}
    for key, (types, required, default, check) in schema.items():
        if key in doc:
            val = doc[key]
            if types is not None and not isinstance(val, types):
                raise ConfigError(f"config key {key!r} has the wrong type")
            if isinstance(val, bool) and bool not in (
                types if isinstance(types, tuple) else (types,)
            ):
                raise ConfigError(f"config key {key!r} has the wrong type")
            if check is not None and not check[0](val):
                raise ConfigError(f"config key {key!r} must be {check[1]}, got {val!r}")
            out[key] = val
        elif required:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            out[key] = default
    return out


_NUM = (int, float)

# range checks (predicate, description): counts are at least 1, seeds at
# least 0
_COUNT = (lambda v: v >= 1, ">= 1")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
# C is the smallness constant the admissibility bound (|omega - 1| n^2)^e/gamma
# is held to: above 1 the bound it admits is not small, and a huge C
# overflows the level cap
_SMALLNESS = (lambda v: 0 < v <= 1, "in (0, 1]")
# the temporal truncation gamma is computed over, and search.maximize_U's sphere
_LMAX = (lambda v: 1 <= v <= frequency.MAX_L, f"in [1, MAX_L = {frequency.MAX_L}]")
_DIM = (lambda v: 1 <= v <= search.MAX_DIM, f"in [1, MAX_DIM = {search.MAX_DIM}]")
_RESTARTS = (lambda v: 1 <= v <= search.MAX_RESTARTS,
             f"in [1, MAX_RESTARTS = {search.MAX_RESTARTS}]")

SOLVE_SCHEMA = {
    "coeffs": ((str, list, dict), True, None, None),
    "omega": (_NUM, False, None, None),
    "eps": (_NUM, False, None, None),
    "n": (int, False, None, _COUNT),
    "n_max": (int, False, None, _COUNT),
    "lmax": (int, False, 48, _LMAX),
    "lt": (int, False, None, _COUNT),
    "lx": (int, False, None, _COUNT),
    "dim": (int, False, 8, _DIM),
    "restarts": (int, False, 16, _RESTARTS),
    "seed": (int, False, 0, _NONNEGATIVE),
    "C": (_NUM, False, frequency.DEFAULT_C, _SMALLNESS),
    "force": (bool, False, False, None),
    "output": (str, False, None, None),
}

SCAN_SCHEMA = {
    "coeffs": ((str, list, dict), True, None, None),
    "omega_range": (list, True, None, None),
    "lmax": (int, False, 32, _LMAX),
    "n_max": (int, False, 6, _COUNT),
    "C": (_NUM, False, frequency.DEFAULT_C, _SMALLNESS),
    "solve": (bool, False, False, None),
    "dim": (int, False, 4, _DIM),
    "restarts": (int, False, 4, _RESTARTS),
    "seed": (int, False, 0, _NONNEGATIVE),
    "output": (str, False, None, None),
}

def _context_from(cfg):
    if (cfg["omega"] is None) == (cfg["eps"] is None):
        raise ConfigError("exactly one of 'omega' and 'eps' must be given")
    try:
        omega = cfg["omega"] if cfg["omega"] is not None else frequency.omega_for_eps(cfg["eps"])
        return frequency.make_context(float(omega), cfg["lmax"])
    except ResowaveError as exc:
        raise ConfigError(str(exc)) from exc


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _record_json(record):
    # one line: without indent json runs its C encoder, several times faster
    return json.dumps(record.as_document()) + "\n"


def _load_record(path):
    doc = _read_input(path, "record file")
    try:
        return search.SolutionRecord.from_document(doc)
    except ResowaveError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands


def cmd_analyze_f(args):
    f = _parse_coeffs(args.coeffs)
    print(f.describe())
    print(f"bifurcation side: {frequency.side_required(f)}")
    print(f"minimal dilation index: {frequency.minimal_n(f)}")
    if f.case == "n3" and f.b is not None and f.b > 0:
        threshold = frequency.both_sides_threshold(f)
        print(
            "both-sides window: b < p pi^2 a^2 / 24 = "
            f"{_fmt(threshold)} ({'inside' if f.b < threshold else 'outside'})"
        )
    return 0


def cmd_freq(args):
    if not _SMALLNESS[0](args.constant):
        raise ConfigError(f"'constant' must be {_SMALLNESS[1]}, got {args.constant!r}")
    if not _LMAX[0](args.lmax):
        raise ConfigError(f"'lmax' must be {_LMAX[1]}, got {args.lmax!r}")
    try:
        ctx = frequency.make_context(args.omega, args.lmax)
    except ResowaveError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"omega = {_fmt(ctx.omega)}")
    print(f"eps = {_fmt(ctx.eps)}")
    print(f"gamma^(L) at L = {ctx.L}: {_fmt(ctx.gamma)}")
    if args.coeffs is not None:
        f = _parse_coeffs(args.coeffs)
        cap = frequency.max_admissible_n(ctx, f, C=args.constant)
        head = f"admissible dilation indices at C = {_fmt(args.constant)}:"
        if cap:
            print(f"{head} n = {frequency.minimal_n(f)}..{cap}")
        else:
            print(f"{head} none")
    return 0


def _summary_line(record):
    flag = "accepted" if record.accepted else "rejected"
    extra = " outside-theorem" if record.outside_theorem else ""
    return (
        f"n = {record.n}: {flag}{extra}  h1 = {_fmt(record.h1)}  "
        f"residual = {_fmt(record.residual)}  phi = {_fmt(record.phi)}"
    )


def _refusal(report):
    """Why an admissibility report refuses its level."""
    return "; ".join(report.notes) or f"bound {_fmt(report.bound)} > C"


def cmd_solve(args):
    cfg = _validate(_load_config(args.config), SOLVE_SCHEMA, "solve")
    f = _parse_coeffs(cfg["coeffs"])
    if (cfg["n"] is None) == (cfg["n_max"] is None):
        raise ConfigError("exactly one of 'n' and 'n_max' must be given")
    given = [key for key in ("lt", "lx") if cfg[key] is not None]
    if cfg["n_max"] is not None and given:
        keys = " and ".join(repr(k) for k in given)
        raise ConfigError(
            f"config {keys} cannot be combined with 'n_max': they truncate one "
            "level, and a branch sizes the truncation of each level itself"
        )
    ctx = _context_from(cfg)
    if ctx.gamma <= 0.0:
        print(f"omega = {_fmt(ctx.omega)} is resonant at this truncation "
              "(gamma = 0); nothing to solve")
        return 1

    if cfg["n"] is not None:
        n = cfg["n"]
        search.level_truncation(ctx, f, n, n * cfg["dim"], cfg["lt"], cfg["lx"])
        report = frequency.admissible(ctx, n, f, C=cfg["C"])
        if not report.ok and not cfg["force"]:
            print(f"n = {n}: not admissible ({_refusal(report)})")
            return 1
        maximizer = search.LevelMaximizer(cfg["dim"], cfg["seed"], cfg["restarts"])
        record = search.solve_level(ctx, f, n, maximizer, lt=cfg["lt"], lx=cfg["lx"])
        print(_summary_line(record))
        _write_text(cfg["output"], _record_json(record))
        return 0 if record.accepted else 1

    result = search.solve_branch(
        ctx, f, n_max=cfg["n_max"], C=cfg["C"], dim=cfg["dim"], seed=cfg["seed"],
        restarts=cfg["restarts"], force_n_min=1 if cfg["force"] else None,
    )
    for record in result.records:
        print(_summary_line(record))
        if cfg["output"] is not None:
            path = os.path.join(cfg["output"], f"record_n{record.n}.json")
            _write_text(path, _record_json(record))
        else:
            sys.stdout.write(_record_json(record))
    for n, reason in result.failures:
        print(f"n = {n}: failed ({reason})")
    if not result.records and not result.failures:
        report = frequency.admissible(ctx, frequency.minimal_n(f), f, C=cfg["C"])
        reason = (_refusal(report) if not report.ok
                  else f"n_max below the minimal index {report.n_min}")
        print(f"no admissible level ({reason})")
    ok = (
        bool(result.records)
        and all(r.accepted for r in result.records)
        and not result.failures
    )
    return 0 if ok else 1


def _scan_cell(result):
    """(status, h1, energy, reason) of a solved scan row, its record or its error."""
    if isinstance(result, ResowaveError):
        return "failed", "", "", str(result)
    return "accepted" if result.accepted else "rejected", _fmt(result.h1), _fmt(result.energy), ""


def cmd_scan(args):
    cfg = _validate(_load_config(args.config), SCAN_SCHEMA, "scan")
    f = _parse_coeffs(cfg["coeffs"])
    rng = cfg["omega_range"]
    if len(rng) != 3 or not all(isinstance(v, _NUM) and not isinstance(v, bool) for v in rng):
        raise ConfigError("'omega_range' must be [lo, hi, step]")
    try:
        lo, hi, step = (float(v) for v in rng)
        rows = frequency.scan_frequencies(lo, hi, step, cfg["lmax"], f, C=cfg["C"])
    except ResowaveError as exc:
        raise ConfigError(f"'omega_range': {exc}") from exc

    # one maximizer for the whole scan: G does not depend on omega, and
    # outside the quadratic-form cases not on n either; it keeps one
    # maximum per side of omega = 1
    maximizer = search.LevelMaximizer(cfg["dim"], cfg["seed"], cfg["restarts"])
    # every level up to the row's cap is admissible: the bound is monotone in n
    pairs = [(row, n) for row in rows
             for n in range(frequency.minimal_n(f), min(row["n_max"], cfg["n_max"]) + 1)]
    # each level's frequencies are solved as one stack on one frame
    cells = [("admissible", "", "", "")] * len(pairs)
    levels = sorted({n for _, n in pairs}) if cfg["solve"] else []
    for n in levels:
        at = [k for k, (_, m) in enumerate(pairs) if m == n]
        for k, result in zip(at, search.solve_frequencies([pairs[k][0]["ctx"] for k in at],
                                                          f, n, maximizer)):
            cells[k] = _scan_cell(result)
    table = [[_fmt(row["ctx"].omega), _fmt(row["ctx"].eps), _fmt(row["ctx"].gamma), row["n_max"],
              n, *cell] for (row, n), cell in zip(pairs, cells)]
    _write_text(cfg["output"], _csv_text(
        ["omega", "eps", "gamma", "n_admissible", "n", "status", "h1", "energy", "reason"], table))
    return 0


def cmd_verify(args):
    if args.seed < 0:
        raise ConfigError(f"'seed' must be >= 0, got {args.seed}")
    try:
        reports = verify.run_suite(args.suite, seed=args.seed)
    except ResowaveError as exc:
        raise ConfigError(str(exc)) from exc
    failed = 0
    for rep in reports:
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.name}")
        for label, value in rep.measured:
            print(f"    {label} = {_fmt(value) if isinstance(value, float) else value}")
        if not rep.passed:
            failed += 1
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return 0 if failed == 0 else 1


def cmd_evolve(args):
    record = _load_record(args.record)
    f = _parse_coeffs(args.coeffs)
    u = evolve.record_field(record)
    err, res = evolve.return_error(u, record.omega, f)
    # criterion 7's bar on the relative return error over one period
    bar = 1e-4
    # an oracle whose own error is not well below the bar decides nothing
    if not res.error_bar <= 0.1 * bar:
        raise ConfigError(
            f"the return check cannot decide this record: its reported and "
            f"check returns differ by {_fmt(res.error_bar)}, above a tenth of "
            f"the return bar {_fmt(bar)}"
        )
    print("periods = 1")
    print(f"dt = {_fmt(res.dt)}  steps = {res.steps}  modes = {res.n_modes}")
    print(f"return_error = {_fmt(err)}  bar = {_fmt(bar)}  "
          f"error_bar = {_fmt(res.error_bar)}")
    if args.probe_minimal_period:
        off, _ = evolve.nonreturn_probe(u, record.omega, f, record.n)
        print(f"off_period_distance = {_fmt(off)}")
    return 0 if err <= bar else 1


def _csv_text(header, rows):
    """A header row and rows as CSV text, one line each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _export_grid(record):
    nt, nx = 64, 64
    t = 2.0 * np.pi * np.arange(nt) / nt
    x = np.pi * np.arange(nx + 1) / nx
    vals = fields.eval_field(evolve.record_field(record), t, x)
    return _csv_text(["t", "x", "u"], ([_fmt(t[i]), _fmt(x[k]), _fmt(vals[i, k])]
                                       for i in range(nt) for k in range(nx + 1)))


def _export_spectrum(record):
    arr = evolve.record_field(record).coeffs
    return _csv_text(["l", "j", "coeff"], ([l, j, _fmt(arr[l, j - 1])]
                                           for l in range(arr.shape[0])
                                           for j in range(1, arr.shape[1] + 1)))


def _export_loglog(rows):
    if rows and not {"eps", "h1"} <= set(rows[0]):
        raise ConfigError("log-log export needs a scan table with eps and h1 columns")
    table = []
    for row in rows:
        if not row["h1"]:
            continue
        try:
            eps = abs(float(row["eps"]))
            h1 = float(row["h1"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("scan table has a non-numeric eps or h1 cell "
                              f"(eps={row['eps']!r}, h1={row['h1']!r})") from exc
        if eps <= 0.0 or h1 <= 0.0:
            continue
        table.append([_fmt(math.log10(eps)), _fmt(math.log10(h1))])
    return _csv_text(["log10_abs_eps", "log10_h1"], table)


def cmd_export(args):
    if args.format == "loglog":
        text = _export_loglog(_read_input(args.record, "scan table",
                                          lambda fh: list(csv.DictReader(fh))))
    else:
        record = _load_record(args.record)
        text = _export_grid(record) if args.format == "csv" else _export_spectrum(record)
    _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The command-line parser, built once: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="resowave",
        description="Periodic solutions of u_tt - u_xx + f(u) = 0 on (0, pi): "
                    "classification, admissibility, branch solving, identity "
                    "verification, time-domain cross-checks, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-f", help="classify a nonlinearity")
    p.add_argument("--coeffs", required=True,
                   help="Taylor terms, e.g. \"3=1\" for u^3 or \"2=1,3=0.5\"")
    p.set_defaults(func=cmd_analyze_f)

    p = sub.add_parser("freq", help="non-resonance margin of a frequency")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--coeffs", default=None)
    p.add_argument("--constant", type=float, default=frequency.DEFAULT_C,
                   help="smallness constant C for admissibility, in (0, 1]")
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("solve", help="construct and certify solution records")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("scan", help="survey a frequency range")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--suite", default="all",
                   help="'all' or a single check name")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evolve", help="time-domain return cross-check")
    p.add_argument("--record", required=True)
    p.add_argument("--coeffs", required=True,
                   help="Taylor terms of f (records do not store them)")
    p.add_argument("--probe-minimal-period", action="store_true")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("export", help="write grid, spectrum, or log-log data")
    p.add_argument("--record", required=True,
                   help="record file (csv/spectrum) or scan table (loglog)")
    p.add_argument("--format", required=True, choices=("csv", "spectrum", "loglog"))
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResowaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
