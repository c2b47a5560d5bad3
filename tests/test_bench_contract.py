"""The benchmark's traced-run contract with the package.

A traced run (``perfbench/run.py --trace 1``) reads more of the package than
an untraced one: the tracer replaces ``psolve.warnings``, reads
``cli.__all__``, and reads counts off what ``search.refine``,
``psolve.solve_P`` and ``evolve.integrate`` return.  Each workload here runs
one pass under an installed tracer, with the benchmark's own files loaded by
path and left unchanged, so a change that breaks a traced run fails here.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

import resowave

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bench():
    """The workloads, tracer and worker modules, by the names worker.py
    imports them under; the names are removed from sys.modules afterwards."""
    names = ("hostclock", "tracer", "workloads", "worker")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
        yield {name: sys.modules[name] for name in names}
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_pass_is_correct_and_reports_every_layer_metric(bench, tmp_path, name):
    workload = bench["workloads"].WORKLOADS[name](0, str(tmp_path))
    inputs = workload.setup()
    tracer = bench["tracer"].Tracer(resowave)
    tracer.install()
    try:
        out = workload.run_pass(inputs)
    finally:
        tracer.uninstall()
    checked = workload.check(inputs, out)
    assert checked.correct, checked.notes
    metrics = bench["worker"]._layer_metrics(tracer)
    expected = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead"}
    assert set(metrics) == expected
    steps = metrics["evolve.integrate.steps"]
    assert steps > 0 if name == "evolve-return" else steps == 0
