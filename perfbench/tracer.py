"""Per-layer tracing from outside the program.

The layers are modules of the resowave package.  Every module imports its
siblings as ``from . import fields, ...`` and calls through the module
attribute, and calls inside one module go through that module's globals, so
replacing a module attribute with a wrapper catches every call the package
makes to that function.  Each wrapper records a span (name, start, end,
parent, exception) in memory, on the ``time.monotonic`` clock so that
``remap`` can turn the times into host-corrected ones; counts are read off
the objects the functions return or raise.  Nothing inside ``src/`` is changed.
"""

import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict

# modules of src/resowave that carry workload time; nonlinearity, linv_forms,
# verify and errors get no per-layer metrics (no workload spends measurable
# time in them)
LAYERS = ("cli", "search", "reduced", "psolve", "fields", "kernel", "frequency", "evolve")


def is_count(metric):
    """Exact counts repeat from run to run; times and ratios do not."""
    return not metric.endswith(("_s", "_us", ".overhead"))


def public_functions(module):
    """Functions a layer offers: its non-underscore module-level functions.

    For ``cli`` only ``main`` (its ``__all__``): the command handlers are the
    CLI's own work and count as ``cli.main`` self time.
    """
    if module.__name__.endswith(".cli"):
        names = list(module.__all__)
    else:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if isinstance(getattr(module, n), types.FunctionType)
        and getattr(module, n).__module__ == module.__name__
    ]


class _CountingWarnings:
    """Stand-in for a module's ``warnings`` attribute that counts warn calls.

    The call is forwarded with its stack level raised past this frame and any
    tracing wrappers, so the message, category, filters and the reported
    source line are the same as without tracing.
    """

    def __init__(self, real):
        self._real = real
        self.count = 0

    def __getattr__(self, name):
        return getattr(self._real, name)

    def warn(self, message, category=None, stacklevel=1, source=None):
        self.count += 1
        frame, level = sys._getframe(1), 2
        for _ in range(stacklevel - 1):
            frame, level = frame.f_back, level + 1
            while frame is not None and frame.f_code is _TRACED_CODE:
                frame, level = frame.f_back, level + 1
        self._real.warn(message, category, level, source)


class Tracer:
    """Wraps the public functions of the layer modules while installed."""

    def __init__(self, package):
        self._package = package
        self._saved = []
        self._warnings = None
        self.reset()

    def reset(self):
        self.spans = []           # [name, start, end, parent index, error or None]
        self._stack = []
        self.counts = defaultdict(int)

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"{self._package.__name__}.{layer}")
            for name in public_functions(module):
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))
        psolve = self._package.psolve
        self._warnings = _CountingWarnings(psolve.warnings)
        self._saved.append((psolve, "warnings", psolve.warnings))
        psolve.warnings = self._warnings

    def uninstall(self):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    @property
    def domain_warnings(self):
        return self._warnings.count if self._warnings is not None else 0

    def _wrap(self, name, fn):
        reader = _READERS.get(name)
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = type(exc).__name__
                stack.pop()
                raise
            span[2] = clock()
            stack.pop()
            if reader is not None:
                reader(self.counts, result)
            return result

        return traced

    def remap(self, to_ref):
        """Replace every span's start and end t by to_ref(t) (vectorised)."""
        if not self.spans:
            return
        ends = to_ref([[s[1], s[2]] for s in self.spans])
        for span, (t0, t1) in zip(self.spans, ends.tolist()):
            span[1], span[2] = t0, t1

    def stats(self):
        """Per-function calls, total (outermost spans) and self seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "errors": defaultdict(int), "ok_total_s": 0.0})
        for idx, (name, t0, t1, parent, err) in enumerate(self.spans):
            st = out[name]
            dur = t1 - t0
            st["calls"] += 1
            st["self_s"] += dur - child[idx]
            if not _inside_same(self.spans, parent, name):
                st["total_s"] += dur
                if err is None:
                    st["ok_total_s"] += dur
            if err is not None:
                st["errors"][err] += 1
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, t0, t1, parent, err) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent,
                    "start_s": round(t0 - origin, 9), "end_s": round(t1 - origin, 9),
                    "error": err,
                }) + "\n")


def _inside_same(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _read_refine(counts, result):
    report = result[2]
    counts["search.refine.newton_iters"] += report.iterations
    counts["search.refine.damped"] += report.damped
    counts["search.refine.krylov_fails"] += report.krylov_fails


def _read_solve_p(counts, result):
    counts["psolve.solve_P.sweeps"] += result[1].iterations


def _read_integrate(counts, result):
    counts["evolve.integrate.steps"] += result.steps


_READERS = {
    "search.refine": _read_refine,
    "psolve.solve_P": _read_solve_p,
    "evolve.integrate": _read_integrate,
}


# the code object shared by every tracing wrapper, skipped when attributing warnings
_TRACED_CODE = Tracer(None)._wrap("", len).__code__
