"""One workload process: set up, warm up, then time passes.

Started by run.py in a fresh interpreter with ``src`` on ``PYTHONPATH``.  All
times are taken with a ``HostClock`` (hostclock.py) running for the whole
process: each is reported both as measured, with the clock's calibration
chunks taken out, and corrected for the host's speed (``ref_s``).  The
set-up time runs from the moment the parent started this process
(``--spawned-at``, a CLOCK_MONOTONIC reading, which is shared by all
processes on the machine) until the untimed warm-up pass has returned.  The
result is written as JSON to ``--out``.

Untraced (``--trace 0``): timed passes run back to back until the next one
would overrun ``--budget`` seconds (at least one).  Traced (``--trace 1``):
untraced and traced passes alternate in the same budget (at least one of
each), so the tracing overhead is measured in one process.
"""

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import scipy

import resowave

from hostclock import HostClock
from tracer import LAYERS, Tracer, is_count
from workloads import WORKLOADS

# BLAS environment variables a user may set; unset means the library default
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = set(re.findall(r"\S*openblas\S*\.so\S*", fh.read()))
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "resowave": os.path.dirname(resowave.__file__),
    }


def _timed(workload, inputs, clock, tracer=None):
    """One pass; with a tracer, spans are recorded for the pass, not its check.

    The pass's times are filled in by ``_settle`` once the clock has stopped."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        m0 = clock.mark()
        out = workload.run_pass(inputs)
        m1 = clock.mark()
    finally:
        if tracer is not None:
            tracer.uninstall()
    chk = workload.check(inputs, out)
    return {"marks": (m0, m1), "attempted": chk.attempted,
            "failed": chk.failed, "correct": chk.correct, "notes": chk.notes[:8]}


def _settle(clock, passes):
    for p in passes:
        p.update(clock.between(*p.pop("marks")))


def _layer_metrics(tracer):
    """The per-layer metrics of one traced pass."""
    st = tracer.stats()
    counts = tracer.counts
    m = {}

    def put(fn, *keys):
        for key in keys:
            m[f"{fn}.{key}"] = st[fn][key] if fn in st else 0

    put("psolve.solve_P_linearized", "calls", "total_s")
    put("search.refine", "calls", "total_s")
    for key in ("newton_iters", "damped", "krylov_fails"):
        m[f"search.refine.{key}"] = counts[f"search.refine.{key}"]
    refine = st.get("search.refine")
    m["search.refine.aborts"] = refine["errors"].get("ConvergenceError", 0) if refine else 0
    iters = counts["search.refine.newton_iters"]
    m["search.newton_step_s"] = refine["ok_total_s"] / iters if refine and iters else 0.0
    put("search.maximize_U", "calls", "total_s")
    put("reduced.G_eval", "calls", "total_s")
    put("reduced.power_integral", "calls", "total_s")
    put("fields.integrate_poly", "calls", "self_s")
    put("reduced.linv_qform", "calls", "total_s")
    put("psolve.apply_L_inv", "calls")
    put("psolve.solve_P", "calls", "total_s")
    m["psolve.solve_P.sweeps"] = counts["psolve.solve_P.sweeps"]
    m["psolve.solve_P.domain_warnings"] = tracer.domain_warnings
    for fn in ("fields.multiply_poly_project", "fields.apply_nonlinearity"):
        put(fn, "calls", "self_s")
        calls = m[f"{fn}.calls"]
        m[f"{fn}.per_call_us"] = 1e6 * m[f"{fn}.self_s"] / calls if calls else 0.0
    put("fields.norms", "calls", "total_s")
    put("fields.sup_norm", "calls", "total_s")
    put("kernel.embed", "calls")
    put("kernel.minimal_time_period_index", "calls")
    put("frequency.make_context", "calls", "total_s")
    put("frequency.admissible", "calls")
    put("cli.main", "calls", "total_s", "self_s")
    put("evolve.integrate", "calls", "self_s")
    steps = counts["evolve.integrate.steps"]
    m["evolve.integrate.steps"] = steps
    m["evolve.step_us"] = 1e6 * m["evolve.integrate.self_s"] / steps if steps else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in st.items()
                                   if k.startswith(layer + "."))
    return m


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-passes", type=int, default=None)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    clock = HostClock()
    clock.start()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.workdir)
        inputs = workload.setup()
        warm = workload.check(inputs, workload.run_pass(inputs))
        ready = time.monotonic()

        result = {"env": environment(),
                  "warmup": {"attempted": warm.attempted, "failed": warm.failed,
                             "correct": warm.correct}}
        if args.trace:
            result.update(_traced_passes(workload, inputs, clock, args))
        else:
            passes = []

            def step():
                passes.append(_timed(workload, inputs, clock))
                m0, m1 = passes[-1]["marks"]
                return m1[0] - m0[0]

            _repeat(step, args)
            result["passes"] = passes
    finally:
        clock.stop()
        shutil.rmtree(args.workdir, ignore_errors=True)
    _settle(clock, result["passes"] + result.get("traced_passes", []))
    if args.trace:
        result["per_layer"]["trace.overhead"] = (
            statistics.median(p["ref_s"] for p in result["traced_passes"])
            / statistics.median(p["ref_s"] for p in result["passes"]))
    result["setup_s"] = clock.to_ref(ready) - clock.to_ref(args.spawned_at)
    result["setup_wall_s"] = ready - args.spawned_at
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _repeat(step, args):
    """Call step (which returns seconds spent) at least once, then until the
    budget or --max-passes is reached; stop when the next call would end
    nearer past the budget than short of it."""
    elapsed = last = 0.0
    calls = 0
    while calls == 0 or (calls < (args.max_passes or sys.maxsize)
                         and elapsed + 0.5 * last <= args.budget):
        last = step()
        elapsed += last
        calls += 1


def _traced_passes(workload, inputs, clock, args):
    tracer = Tracer(resowave)
    plain, traced, layers = [], [], []

    def step():
        plain.append(_timed(workload, inputs, clock))
        traced.append(_timed(workload, inputs, clock, tracer))
        # the last span ends before the next chunk: it is weighed by the
        # rate of the chunk before it
        tracer.remap(clock.to_ref)
        layers.append(_layer_metrics(tracer))
        return sum(m1[0] - m0[0] for m0, m1 in (plain[-1]["marks"], traced[-1]["marks"]))

    _repeat(step, args)
    if args.spans:
        tracer.write_spans(args.spans)
    counts = [{k: v for k, v in m.items() if is_count(k)} for m in layers]
    per_layer = {k: (v if is_count(k) else statistics.median(m[k] for m in layers))
                 for k, v in layers[-1].items()}
    return {"passes": plain, "traced_passes": traced, "per_layer": per_layer,
            "counts_repeat": all(c == counts[0] for c in counts)}


if __name__ == "__main__":
    raise SystemExit(main())
