"""Command-line surface: classify, survey, solve, verify, evolve, export.

Every command is deterministic under a fixed config and seed; reruns produce
byte-identical files.  Exit codes: 0 success, 1 compute failure or refusal,
2 configuration or usage error.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import evolve, fields, frequency, kernel, nonlinearity, reduced, search, verify
from .errors import (
    ClassificationError,
    ConfigError,
    ConvergenceError,
    ResonanceError,
    ResowaveError,
)

__all__ = ["main"]


def _fmt(x):
    return f"{float(x):.17g}"


def _parse_coeffs(value):
    """Accept a flag string "3=1,5=-2", a JSON list, or a JSON object."""
    if isinstance(value, str):
        return nonlinearity.classify(nonlinearity.parse_coeff_string(value))
    if isinstance(value, list):
        return nonlinearity.classify([float(c) for c in value])
    if isinstance(value, dict):
        return nonlinearity.classify({int(k): float(v) for k, v in value.items()})
    raise ConfigError(f"cannot interpret nonlinearity coefficients: {value!r}")


# ---------------------------------------------------------------------------
# config documents


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
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

# range checks (predicate, description): counts are at least 1, tolerances
# and constants strictly positive
_COUNT = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: v > 0, "> 0")
_SIDE = (lambda v: v in (-1, 1), "-1 or +1")

SOLVE_SCHEMA = {
    "coeffs": ((str, list, dict), True, None, None),
    "omega": (_NUM, False, None, None),
    "eps": (_NUM, False, None, None),
    "n": (int, False, None, _COUNT),
    "n_max": (int, False, None, _COUNT),
    "side": (int, False, None, _SIDE),
    "lmax": (int, False, 48, _COUNT),
    "lt": (int, False, None, _COUNT),
    "lx": (int, False, None, _COUNT),
    "dim": (int, False, 8, _COUNT),
    "restarts": (int, False, 16, _COUNT),
    "seed": (int, False, 0, None),
    "C": (_NUM, False, 0.05, _POSITIVE),
    "gtol": (_NUM, False, 1e-12, _POSITIVE),
    "residual_tol": (_NUM, False, 1e-8, _POSITIVE),
    "force": (bool, False, False, None),
    "output": (str, False, None, None),
}

SCAN_SCHEMA = {
    "coeffs": ((str, list, dict), True, None, None),
    "omega_range": (list, True, None, None),
    "lmax": (int, False, 32, _COUNT),
    "n_max": (int, False, 6, _COUNT),
    "C": (_NUM, False, 0.05, _POSITIVE),
    "solve": (bool, False, False, None),
    "dim": (int, False, 4, _COUNT),
    "restarts": (int, False, 4, _COUNT),
    "seed": (int, False, 0, None),
    "gtol": (_NUM, False, 1e-12, _POSITIVE),
    "residual_tol": (_NUM, False, 1e-8, _POSITIVE),
    "output": (str, False, None, None),
}

EVOLVE_SCHEMA = {
    "steps_per_period": (int, False, 4096, _COUNT),
    "mode_factor": (int, False, 4, _COUNT),
    "min_modes": (int, False, 32, _COUNT),
}


def _context_from(cfg):
    if (cfg["omega"] is None) == (cfg["eps"] is None):
        raise ConfigError("exactly one of 'omega' and 'eps' must be given")
    omega = cfg["omega"] if cfg["omega"] is not None else frequency.omega_for_eps(cfg["eps"])
    try:
        return frequency.make_context(float(omega), cfg["lmax"])
    except ResowaveError as exc:
        raise ConfigError(str(exc)) from exc


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _record_json(record):
    return json.dumps(record.as_document(), indent=2) + "\n"


def _load_record(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"record file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"record file is not valid JSON: {exc}") from exc
    try:
        return search.SolutionRecord.from_document(doc)
    except ResowaveError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands


def cmd_analyze_f(args):
    try:
        f = _parse_coeffs(args.coeffs)
    except ClassificationError as exc:
        raise ConfigError(str(exc)) from exc
    print(f.describe())
    print(f"bifurcation side: {frequency.side_required(f)}")
    print(f"minimal dilation index: {frequency.minimal_n(f)}")
    if f.case == "n3" and f.b is not None and f.b > 0:
        threshold = f.p * np.pi**2 * f.a**2 / 24.0
        print(
            "both-sides window: b < p pi^2 a^2 / 24 = "
            f"{_fmt(threshold)} ({'inside' if f.b < threshold else 'outside'})"
        )
    return 0


def cmd_freq(args):
    try:
        ctx = frequency.make_context(args.omega, args.lmax)
    except ResowaveError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"omega = {_fmt(ctx.omega)}")
    print(f"eps = {_fmt(ctx.eps)}")
    print(f"gamma^(L) at L = {ctx.L}: {_fmt(ctx.gamma)}")
    if args.coeffs is not None:
        try:
            f = _parse_coeffs(args.coeffs)
        except ClassificationError as exc:
            raise ConfigError(str(exc)) from exc
        cap = frequency.max_admissible_n(ctx, f, C=args.constant)
        head = f"admissible dilation indices at C = {_fmt(args.constant)}:"
        if cap:
            print(f"{head} n = {frequency.minimal_n(f)}..{cap}")
        else:
            print(f"{head} none")
    return 0


def _solve_single(cfg, ctx, f, n):
    side = cfg["side"] if cfg["side"] is not None else search.default_side(f)
    report = frequency.admissible(ctx, n, f, C=cfg["C"])
    if not report.ok and not cfg["force"]:
        notes = "; ".join(report.notes) or f"bound {_fmt(report.bound)} > C"
        print(f"n = {n}: not admissible ({notes})")
        return None
    recipe = reduced.g_recipe(f, side, n=n)
    y, m, diag = search.maximize_U(
        recipe, cfg["dim"], seed=cfg["seed"] + 1000 * n, restarts=cfg["restarts"]
    )
    v0, level = search.initial_guess(y, m, recipe, ctx, diag)
    v_ref, w_ref, rep = search.refine(
        v0, ctx, f, gtol=cfg["gtol"], lt=cfg["lt"], lx=cfg["lx"]
    )
    return search.build_solution(
        v_ref, w_ref, ctx, f, recipe, level, newton=rep,
        residual_tol=cfg["residual_tol"],
        outside_theorem=n < frequency.minimal_n(f),
    )


def _summary_line(record):
    flag = "accepted" if record.accepted else "rejected"
    extra = " outside-theorem" if record.outside_theorem else ""
    return (
        f"n = {record.n}: {flag}{extra}  h1 = {_fmt(record.h1)}  "
        f"residual = {_fmt(record.residual)}  phi = {_fmt(record.phi)}"
    )


def cmd_solve(args):
    cfg = _validate(_load_config(args.config), SOLVE_SCHEMA, "solve")
    try:
        f = _parse_coeffs(cfg["coeffs"])
    except ClassificationError as exc:
        raise ConfigError(str(exc)) from exc
    if (cfg["n"] is None) == (cfg["n_max"] is None):
        raise ConfigError("exactly one of 'n' and 'n_max' must be given")
    ctx = _context_from(cfg)
    if ctx.gamma <= 0.0:
        print(f"omega = {_fmt(ctx.omega)} is resonant at this truncation "
              "(gamma = 0); nothing to solve")
        return 1

    if cfg["n"] is not None:
        record = _solve_single(cfg, ctx, f, cfg["n"])
        if record is None:
            return 1
        print(_summary_line(record))
        if cfg["output"] is not None:
            _write_text(cfg["output"], _record_json(record))
        else:
            sys.stdout.write(_record_json(record))
        return 0 if record.accepted else 1

    result = search.solve_branch(
        ctx, f, n_max=cfg["n_max"], C=cfg["C"], side=cfg["side"],
        dim=cfg["dim"], seed=cfg["seed"], restarts=cfg["restarts"],
        gtol=cfg["gtol"], residual_tol=cfg["residual_tol"],
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
    ok = (
        bool(result.records)
        and all(r.accepted for r in result.records)
        and not result.failures
    )
    return 0 if ok else 1


def cmd_scan(args):
    cfg = _validate(_load_config(args.config), SCAN_SCHEMA, "scan")
    try:
        f = _parse_coeffs(cfg["coeffs"])
    except ClassificationError as exc:
        raise ConfigError(str(exc)) from exc
    rng = cfg["omega_range"]
    if len(rng) != 3 or not all(isinstance(v, _NUM) for v in rng):
        raise ConfigError("'omega_range' must be [lo, hi, step]")
    lo, hi, step = (float(v) for v in rng)
    if step <= 0:
        raise ConfigError("'omega_range' step must be positive")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["omega", "eps", "gamma", "n_admissible", "n", "status", "h1", "energy"]
    )
    omegas = np.arange(lo, hi + 0.5 * step, step)
    for om in omegas:
        om = float(om)
        if not (frequency.OMEGA_RANGE[0] <= om <= frequency.OMEGA_RANGE[1]):
            continue
        ctx = frequency.make_context(om, cfg["lmax"])
        if ctx.gamma <= 0.0 or om == 1.0:
            continue
        cap = frequency.max_admissible_n(ctx, f, C=cfg["C"])
        for n in range(frequency.minimal_n(f), min(cap, cfg["n_max"]) + 1):
            if not frequency.admissible(ctx, n, f, C=cfg["C"]).ok:
                continue
            status, h1_txt, en_txt = "admissible", "", ""
            if cfg["solve"]:
                sub = dict(cfg)
                sub.update({"side": None, "force": False, "lt": None, "lx": None})
                try:
                    record = _solve_single(sub, ctx, f, n)
                    if record is None:
                        continue
                    status = "accepted" if record.accepted else "rejected"
                    h1_txt = _fmt(record.h1)
                    en_txt = _fmt(record.energy)
                except (ConvergenceError, ResonanceError, ResowaveError):
                    status = "failed"
            writer.writerow(
                [_fmt(om), _fmt(ctx.eps), _fmt(ctx.gamma), cap, n, status,
                 h1_txt, en_txt]
            )
    _write_text(cfg["output"], buf.getvalue())
    return 0


def cmd_verify(args):
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
    try:
        f = _parse_coeffs(args.coeffs)
    except ClassificationError as exc:
        raise ConfigError(str(exc)) from exc
    overrides = (
        _validate(_load_config(args.config), EVOLVE_SCHEMA, "evolve")
        if args.config is not None
        else {k: d for k, (_, _, d, _) in EVOLVE_SCHEMA.items()}
    )
    config = evolve.EvolutionConfig(
        steps_per_period=overrides["steps_per_period"],
        mode_factor=overrides["mode_factor"],
        min_modes=overrides["min_modes"],
    )
    u = evolve.record_field(record)
    err, res = evolve.return_error(
        u, record.omega, f, periods=args.periods, config=config
    )
    bar = 1e-4 * args.periods
    print(f"periods = {args.periods}")
    print(f"dt = {_fmt(res.dt)}  steps = {res.steps}  modes = {res.n_modes}")
    print(f"energy_drift = {_fmt(res.energy_drift)}")
    print(f"return_error = {_fmt(err)}  bar = {_fmt(bar)}")
    if args.probe_minimal_period:
        off, _ = evolve.nonreturn_probe(u, record.omega, f, record.n, config=config)
        print(f"off_period_distance = {_fmt(off)}")
    return 0 if err <= bar else 1


def _export_grid(record):
    u = evolve.record_field(record)
    arr = u.coeffs
    nt, nx = 64, 64
    t = 2.0 * np.pi * np.arange(nt) / nt
    x = np.pi * np.arange(nx + 1) / nx
    ct = np.cos(np.outer(t, np.arange(arr.shape[0])))
    sx = np.sin(np.outer(np.arange(1, arr.shape[1] + 1), x))
    vals = ct @ arr @ sx
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x", "u"])
    for i in range(nt):
        for k in range(nx + 1):
            writer.writerow([_fmt(t[i]), _fmt(x[k]), _fmt(vals[i, k])])
    return buf.getvalue()


def _export_spectrum(record):
    u = evolve.record_field(record)
    arr = u.coeffs
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["l", "j", "coeff"])
    for l in range(arr.shape[0]):
        for j in range(1, arr.shape[1] + 1):
            writer.writerow([l, j, _fmt(arr[l, j - 1])])
    return buf.getvalue()


def _export_loglog(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except FileNotFoundError as exc:
        raise ConfigError(f"scan table not found: {path}") from exc
    if rows and not {"eps", "h1"} <= set(rows[0]):
        raise ConfigError("log-log export needs a scan table with eps and h1 columns")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["log10_abs_eps", "log10_h1"])
    for row in rows:
        if not row["h1"]:
            continue
        eps = abs(float(row["eps"]))
        h1 = float(row["h1"])
        if eps <= 0.0 or h1 <= 0.0:
            continue
        writer.writerow([_fmt(math.log10(eps)), _fmt(math.log10(h1))])
    return buf.getvalue()


def cmd_export(args):
    if args.format == "loglog":
        text = _export_loglog(args.record)
    else:
        record = _load_record(args.record)
        text = _export_grid(record) if args.format == "csv" else _export_spectrum(record)
    _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------


def _build_parser():
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
    p.add_argument("--constant", type=float, default=0.05,
                   help="smallness constant C for admissibility")
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
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--coeffs", required=True,
                   help="Taylor terms of f (records do not store them)")
    p.add_argument("--config", default=None,
                   help="optional integrator overrides (JSON)")
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
    except (ConvergenceError, ResonanceError, ClassificationError, ResowaveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
