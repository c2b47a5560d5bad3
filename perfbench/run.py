"""resowave benchmark: certified-solve workloads, timed end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cubic-scan --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload cubic-scan --seed 0 --seconds 10 --trace 1
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A full result, with the environment stamp and every pass,
is written to ``.perfbench_out/`` in the checkout; a traced run also writes
its spans there.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import is_count

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# every workload of workloads.py; BENCHMARK.json lists the ones a run is judged on
WORKLOADS = ("cubic-branch", "quadratic-offsets", "cubic-scan", "evolve-return")
# fresh-interpreter set-ups per untraced run; each also times a share of the
# passes, so set-up cost is paid SETUPS times but no pass is wasted
SETUPS = 2
# a run (all of its processes) is stopped after this many seconds
DEADLINE_S = 170.0

# exact counts of one cubic-branch pass at seed 0, checked by --smoke
REFERENCE_COUNTS = {
    "search.maximize_U.calls": 6,
    "psolve.solve_P.calls": 12,
    "psolve.solve_P_linearized.calls": 94,
    "fields.integrate_poly.calls": 4727,
}


class BenchError(Exception):
    pass


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _check_layout():
    if not os.path.isfile(os.path.join(SRC, "resowave", "__init__.py")):
        raise BenchError(f"no resowave package under {SRC}; run from a full checkout")


def _spawn(workload, seed, budget, trace, deadline, tag, max_passes=None, spans=None):
    """Run one worker process to completion and return its result document."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"worker-{os.getpid()}-{tag}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--budget", repr(budget),
           "--trace", str(trace),
           "--workdir", os.path.join(OUT_DIR, f"work-{os.getpid()}-{tag}"),
           "--out", out]
    if max_passes is not None:
        cmd += ["--max-passes", str(max_passes)]
    if spans is not None:
        cmd += ["--spans", spans]
    # worker output goes to stderr so that the result line stays last on stdout
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env,
                            stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: worker exceeded the {DEADLINE_S:.0f} s deadline")
    if code != 0:
        raise BenchError(f"{workload}: worker exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(out)
    if not doc["env"]["resowave"].startswith(SRC):
        raise BenchError(f"resowave imported from {doc['env']['resowave']}, not {SRC}")
    return doc


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _summary(passes, correct, values, kind):
    """The result line: metric names and units must be BENCHMARK.json's list."""
    units = {m["name"]: m["unit"] for m in _benchmark()[kind]}
    if set(units) != set(values):
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(values))}")
    return {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def end_to_end(docs):
    """Times are host-corrected (ref_s, see hostclock.py); the times as
    measured go into the run summary beside them."""
    passes = [p for d in docs for p in d["passes"]]
    values = {
        "solve_s": statistics.median(p["ref_s"] for p in passes),
        "records_per_s": statistics.median(
            (p["attempted"] - p["failed"]) / p["ref_s"] for p in passes),
        "ok_frac": sum(p["attempted"] - p["failed"] for p in passes)
        / sum(p["attempted"] for p in passes),
        "cpu_s": statistics.median(p["ref_cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
        "setup_s": statistics.median(d["setup_s"] for d in docs),
    }
    correct = all(p["correct"] for p in passes) and all(d["warmup"]["correct"] for d in docs)
    summary = _summary(passes, correct, values, "end_to_end")
    extra = {"passes": len(passes), "fail_frac": 1.0 - values["ok_frac"],
             "timed_s": sum(p["wall_s"] for p in passes),
             "measured_solve_s": statistics.median(p["wall_s"] for p in passes),
             "measured_cpu_s": statistics.median(p["cpu_s"] for p in passes),
             "measured_setup_s": statistics.median(d["setup_wall_s"] for d in docs)}
    return summary, extra


def per_layer(doc):
    passes = doc["traced_passes"]
    correct = all(p["correct"] for p in passes + doc["passes"]) and doc["counts_repeat"]
    return _summary(passes, correct, doc["per_layer"], "per_layer")


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    base = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        spans = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.jsonl")
        docs = [_spawn(workload, seed, seconds, 1, deadline, "t", spans=spans)]
        summary = per_layer(docs[0])
        extra = {"untraced_passes": len(docs[0]["passes"]),
                 "traced_passes": len(docs[0]["traced_passes"]), "spans": spans}
    else:
        docs = [_spawn(workload, seed, seconds / SETUPS, 0, deadline, str(i))
                for i in range(SETUPS)]
        summary, extra = end_to_end(docs)
    env = dict(docs[0]["env"], git_sha=_git_sha())
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, **extra, "result": summary, "workers": docs}
    with open(os.path.join(OUT_DIR, base + ".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"# {workload} seed {seed} trace {trace}: " + json.dumps(extra))
    print("# env " + json.dumps(env))
    for name, m in summary["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    return summary


def smoke(workloads, seed):
    """One pass per workload: metrics present and finite, checks ran, counts repeat."""
    problems = []
    for wl in workloads:
        deadline = time.monotonic() + 3 * DEADLINE_S
        doc = _spawn(wl, seed, 0.0, 0, deadline, "s", max_passes=1)
        summary, _ = end_to_end([doc])
        for name, m in summary["metrics"].items():
            if not math.isfinite(m["value"]):
                problems.append(f"{wl}: metric {name} is not finite")
        if summary["attempted"] < 1 or doc["warmup"]["attempted"] < 1:
            problems.append(f"{wl}: output checks did not run")
        traced = [_spawn(wl, seed, 0.0, 1, deadline, f"t{i}", max_passes=1)["per_layer"]
                  for i in range(2)]
        counts = [{k: v for k, v in t.items() if is_count(k)} for t in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{wl}: exact counts differ between traced runs: {diff}")
        if wl == "cubic-branch" and seed == 0:
            for k, ref in REFERENCE_COUNTS.items():
                if counts[0].get(k) != ref:
                    problems.append(f"{wl}: {k} = {counts[0].get(k)}, reference {ref}")
        print(f"# smoke {wl}: correct={summary['correct']} attempted={summary['attempted']} "
              f"failed={summary['failed']} solve_s={summary['metrics']['solve_s']['value']:.3f} "
              f"overhead={traced[0]['trace.overhead']:.3f}")
    for p in problems:
        print("# smoke FAIL " + p)
    print("# smoke " + ("PASS" if not problems else "FAIL"))
    return not problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(_benchmark()["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test: one pass per workload (or the one given)")
    args = ap.parse_args(argv)
    try:
        _check_layout()
        if args.smoke:
            return 0 if smoke([args.workload] if args.workload else WORKLOADS, args.seed) else 1
        if args.workload is None:
            ap.error("--workload is required")
        summary = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
