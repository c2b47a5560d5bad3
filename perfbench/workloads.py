"""The four benchmark workloads and the checks on their outputs.

Each workload is one closed loop: a single caller in one process issues the
next solve only after the previous one returns.  Frequencies and truncations
are fixed by the paper's acceptance criteria; the benchmark seed becomes the
solver seed (restart draws), so every seed yields the same admissible levels.

A workload has ``setup()`` (build the inputs, untimed), ``run_pass(inputs)``
(the timed unit: one complete set of results) and ``check(inputs, out)``,
which returns a ``Checked``.  A result the program presents as certified but
that fails its check makes the pass incorrect; a result the program could
not produce (refusal, aborted refine, rejected record) is a failure, counted
and never dropped.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from resowave import cli, evolve, fields, frequency, kernel, nonlinearity, reduced, search
from resowave.errors import ConvergenceError, ResowaveError

F3 = nonlinearity.classify([0.0, 0.0, 0.0, 1.0])
F2 = nonlinearity.classify([0.0, 0.0, 1.0])

RESIDUAL_BAR = 1e-8


@dataclass
class Checked:
    attempted: int = 0
    ok: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)

    def add(self, ok, claimed, note):
        """One result: ok counts it good; a claimed-but-bad result is wrong."""
        self.attempted += 1
        if ok:
            self.ok += 1
            return
        self.notes.append(note)
        if claimed:
            self.correct = False

    @property
    def failed(self):
        return self.attempted - self.ok


def _support_ok(record):
    v = kernel.KernelVector(record.xi)
    w = fields.SpectralField(record.w_coeffs)
    return search.temporal_support_index(v, w) == record.n


def _record_note(record, extra=""):
    return (f"n={record.n} accepted={record.accepted} "
            f"residual={record.residual:.2e}{extra}")


# ---------------------------------------------------------------------------
# cubic-branch: criterion 6, the headline multiplicity result


class CubicBranch:
    name = "cubic-branch"
    OMEGA, L, C, DIM, RESTARTS = 1.0001, 48, 0.004, 6, 8

    def __init__(self, seed, workdir):
        self.seed = seed

    def solve(self):
        ctx = frequency.make_context(self.OMEGA, L=self.L)
        return search.solve_branch(ctx, F3, C=self.C, dim=self.DIM,
                                   seed=self.seed, restarts=self.RESTARTS)

    def setup(self):
        ctx = frequency.make_context(self.OMEGA, L=self.L)
        cap = frequency.max_admissible_n(ctx, F3, C=self.C)
        levels = [n for n in range(1, cap + 1)
                  if frequency.admissible(ctx, n, F3, C=self.C).ok]
        # the H^1 prediction uses the n-invariant maximum of G for f = u^3
        recipe = reduced.g_recipe(F3, +1, 1)
        _, m_val, _ = search.maximize_U(recipe, self.DIM, seed=self.seed,
                                        restarts=self.RESTARTS)
        return {"ctx": ctx, "levels": levels, "m_val": m_val}

    def run_pass(self, inputs):
        return self.solve()

    def check(self, inputs, branch):
        chk = Checked()
        ctx = inputs["ctx"]
        by_n = {r.n: r for r in branch.records}
        if set(by_n) - set(inputs["levels"]):
            chk.correct = False
            chk.notes.append(f"records at non-admissible levels {sorted(by_n)}")
        for n in inputs["levels"]:
            rec = by_n.get(n)
            if rec is None:
                chk.add(False, False, f"n={n}: no record")
                continue
            _, _, h1_pred = search.branch_prediction(inputs["m_val"], 3, ctx.eps, n)
            dev = abs(rec.h1 - h1_pred) / h1_pred
            ok = (rec.accepted and rec.residual <= RESIDUAL_BAR
                  and _support_ok(rec) and dev <= 0.15)
            chk.add(ok, rec.accepted, _record_note(rec, f" h1_dev={dev:.3f}"))
        return chk


# ---------------------------------------------------------------------------
# quadratic-offsets: criterion 5, the quadratic branch below resonance


class QuadraticOffsets:
    name = "quadratic-offsets"
    OFFSETS = (2e-4, 4e-4, 8e-4, 1.6e-3)
    L, DIM, RESTARTS = 48, 6, 8

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        return {}

    def run_pass(self, inputs):
        recipe = reduced.g_recipe(F2, -1, 1)
        y_star, m_val, diag = search.maximize_U(recipe, self.DIM, seed=self.seed,
                                                restarts=self.RESTARTS)
        out = []
        for e in self.OFFSETS:
            ctx = frequency.make_context(1.0 - e, L=self.L)
            v0, level = search.initial_guess(y_star, m_val, recipe, ctx, diag)
            try:
                v, w, rep = search.refine(v0, ctx, F2)
            except ConvergenceError as exc:
                out.append((e, exc))
                continue
            out.append((e, search.build_solution(v, w, ctx, F2, recipe, level,
                                                 newton=rep)))
        return out

    def check(self, inputs, out):
        chk = Checked()
        good = []
        for e, rec in out:
            if isinstance(rec, Exception):
                chk.add(False, False, f"offset {e}: {rec}")
                continue
            ok = rec.accepted and rec.residual <= RESIDUAL_BAR and _support_ok(rec)
            chk.add(ok, rec.accepted, _record_note(rec))
            if ok:
                good.append((e, rec.h1))
        if len(good) == len(self.OFFSETS):
            offs, h1s = zip(*good)
            slope = float(np.polyfit(np.log(offs), np.log(h1s), 1)[0])
            if abs(slope - 0.5) > 0.05:
                chk.correct = False
                chk.notes.append(f"amplitude slope {slope:.4f} outside 0.5 +/- 0.05")
        return chk


# ---------------------------------------------------------------------------
# cubic-scan: the README scan window through the command line


class CubicScan:
    name = "cubic-scan"
    CONFIG = {"coeffs": "3=1", "omega_range": [1.001, 1.01, 0.001],
              "n_max": 3, "solve": True}
    STATUSES = ("accepted", "rejected", "failed")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.config_path = os.path.join(workdir, "scan.json")
        self.csv_path = os.path.join(workdir, "scan.csv")

    def setup(self):
        cfg = dict(self.CONFIG, seed=self.seed, output=self.csv_path)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return {"expected_rows": self._expected_rows()}

    def _expected_rows(self):
        """Admissible (omega, n) pairs of the window, counted independently."""
        lo, hi, step = self.CONFIG["omega_range"]
        lmax = cli.SCAN_SCHEMA["lmax"][2]
        c = cli.SCAN_SCHEMA["C"][2]
        rows = 0
        for om in np.arange(lo, hi + 0.5 * step, step):
            ctx = frequency.make_context(float(om), lmax)
            if ctx.gamma <= 0.0:
                continue
            cap = frequency.max_admissible_n(ctx, F3, C=c)
            top = min(cap, self.CONFIG["n_max"])
            rows += sum(frequency.admissible(ctx, n, F3, C=c).ok
                        for n in range(frequency.minimal_n(F3), top + 1))
        return rows

    def run_pass(self, inputs):
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)
        rc = cli.main(["scan", "--config", self.config_path])
        with open(self.csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return rc, rows

    def check(self, inputs, out):
        rc, rows = out
        chk = Checked()
        if rc != 0 or len(rows) != inputs["expected_rows"]:
            chk.correct = False
            chk.notes.append(f"exit {rc}, {len(rows)} rows, "
                             f"expected {inputs['expected_rows']}")
        for row in rows:
            status = row["status"]
            if status not in self.STATUSES:
                chk.correct = False
                chk.notes.append(f"unknown status {status!r}")
            claimed = status == "accepted"
            ok = claimed and _finite_positive(row["h1"]) and _finite(row["energy"])
            chk.add(ok, claimed, f"omega={row['omega']} n={row['n']}: {status}")
        return chk


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _finite_positive(text):
    return _finite(text) and float(text) > 0.0


# ---------------------------------------------------------------------------
# evolve-return: criterion 7, the time-domain cross-check


class EvolveReturn:
    name = "evolve-return"
    RETURN_BAR, MISS_BAR = 1e-4, 1e-3

    def __init__(self, seed, workdir):
        self.branch = CubicBranch(seed, workdir)

    def setup(self):
        records = self.branch.solve().records
        if not records:
            raise ResowaveError("evolve-return: the branch solve gave no records")
        return {"records": records}

    def run_pass(self, inputs):
        out = []
        for rec in inputs["records"]:
            u = evolve.record_field(rec)
            err, _ = evolve.return_error(u, rec.omega, F3)
            miss, _ = evolve.nonreturn_probe(u, rec.omega, F3, rec.n)
            out.append((rec.n, err, miss))
        return out

    def check(self, inputs, out):
        chk = Checked()
        for n, err, miss in out:
            ok = err <= self.RETURN_BAR and miss >= self.MISS_BAR
            chk.add(ok, True, f"n={n}: return {err:.2e}, foreign miss {miss:.2e}")
        return chk


WORKLOADS = {w.name: w for w in (CubicBranch, QuadraticOffsets, CubicScan, EvolveReturn)}
