"""Span tracer for the benchmark's traced run.

Wrappers are installed on the module attributes through which callers
look the layer functions up (``resolvent_kit.scattering.seed_coefficients``
for the recursion, ``resolvent_kit.analysis.gen_sym_eig`` for
``bound_states``, and so on), so the library's own code runs them without
being edited. Each call records a span (name, start, end, parent span) in
memory; spans are aggregated, and written out, when the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans. The program is single-threaded, so direct children
never overlap and their durations sum to the part of the interval they
cover.

A layer name that no longer exists in the library (a later change may
remove it) is reported as absent and contributes zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# Span name -> (module, attribute) pairs the wrapper is installed on. An
# attribute "Class.method" patches the method on the class.
LAYERS = {
    "basis.gauss_rule_log": [("resolvent_kit.basis", "gauss_rule_log")],
    "basis.orthonormal_laguerre_table": [("resolvent_kit.basis", "orthonormal_laguerre_table")],
    "basis.build_matrices": [
        ("resolvent_kit.scattering", "build_matrices"),
        ("resolvent_kit.analysis", "build_matrices"),
        ("resolvent_kit.cli", "build_matrices"),
    ],
    "potential.parse": [
        ("resolvent_kit", "parse_potential"),
        ("resolvent_kit.cli", "parse_potential"),
    ],
    "potential.eval": [("resolvent_kit.basis", "SystemSpec.v_values")],
    "matrix_core.gen_sym_eig": [
        ("resolvent_kit.scattering", "gen_sym_eig"),
        ("resolvent_kit.analysis", "gen_sym_eig"),
        ("resolvent_kit.cli", "gen_sym_eig"),
    ],
    "matrix_core.sym_eig": [("resolvent_kit.analysis", "sym_eig")],
    "scattering.calculator_init": [("resolvent_kit.scattering", "ScatteringCalculator.__init__")],
    "scattering.point": [("resolvent_kit.scattering", "ScatteringCalculator.point")],
    "scattering.cs_recursion": [("resolvent_kit.scattering", "cs_recursion")],
    "scattering.seed_coefficients": [("resolvent_kit.scattering", "seed_coefficients")],
    "resolvent.green_last": [("resolvent_kit.scattering", "ScatteringCalculator.green_last")],
    "analysis.scan_smatrix": [
        ("resolvent_kit", "scan_smatrix"),
        ("resolvent_kit.analysis", "scan_smatrix"),
        ("resolvent_kit.cli", "scan_smatrix"),
    ],
    "analysis.locate_resonances": [
        ("resolvent_kit", "locate_resonances"),
        ("resolvent_kit.cli", "locate_resonances"),
    ],
    "analysis.bound_states": [("resolvent_kit", "bound_states"), ("resolvent_kit.cli", "bound_states")],
    "analysis.density_of_states": [
        ("resolvent_kit", "density_of_states"),
        ("resolvent_kit.cli", "density_of_states"),
    ],
    "cli.main": [("resolvent_kit.cli", "main")],
}


def _count_gauss_points(counts, args, kwargs, result):
    npts = int(args[1] if len(args) > 1 else kwargs["npts"])
    counts["basis.gauss_rule_log.points"] += npts
    counts["basis.gauss_rule_log.max_points"] = max(counts["basis.gauss_rule_log.max_points"], npts)


def _count_scan_points(counts, args, kwargs, result):
    counts["analysis.scan_smatrix.points"] += result.size
    counts["analysis.scan_smatrix.flagged"] += len(result.flagged)


def _count_resonances(counts, args, kwargs, result):
    counts["analysis.locate_resonances.resonances"] += len(result.peaks)


# Counters taken from a layer's arguments or result at its boundary.
COUNTERS = {
    "basis.gauss_rule_log": _count_gauss_points,
    "analysis.scan_smatrix": _count_scan_points,
    "analysis.locate_resonances": _count_resonances,
}


def _resolve(module_name, attr):
    """(owner object, attribute name) for a patch target, or None when the
    module, class or attribute does not exist."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


def self_times(spans):
    """Per-name (inclusive seconds, self seconds) over a span list."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, own = Counter(), Counter()
    for (name, start, end, _), children in zip(spans, child_time):
        total[name] += end - start
        own[name] += end - start - children
    return total, own


def count_within(spans, name, ancestor):
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    inside = [False] * len(spans)
    hits = 0
    for i, (span_name, _, _, parent) in enumerate(spans):
        above = parent >= 0 and inside[parent]
        inside[i] = span_name == ancestor or above
        hits += span_name == name and above
    return hits


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def wrap(self, name, fn, counter=None):
        """``fn`` recording one span per call; exceptions are counted as
        ``<name>.failures`` and re-raised."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            self.counts[name + ".calls"] += 1
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failures"] += 1
                raise
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, layers=LAYERS):
        """Patch every reachable target. Names bound to the same function
        share one wrapper; a layer with no reachable target is recorded
        in ``absent``."""
        self.absent = []
        for name, targets in layers.items():
            resolved = [r for r in (_resolve(m, a) for m, a in targets) if r is not None]
            if not resolved:
                self.absent.append(name)
            wrappers = {}
            for owner, attr in resolved:
                original = getattr(owner, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(name, original, COUNTERS.get(name))
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self):
        """(spans, counts) recorded since the last take; starts afresh."""
        taken = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return taken


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def selftest():
    """Check the self-time arithmetic on a synthetic nested call driven by
    a fake clock: outer(0..10) calls inner(1..4), which calls leaf(2..3),
    then inner again (5..6). Also check that a layer whose targets are
    gone is reported absent. Raises RuntimeError on a mismatch."""
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda deep: leaf() if deep else None)
    outer = tracer.wrap("outer", lambda: (inner(True), inner(False)))
    outer()
    spans, _ = tracer.take()
    total, own = self_times(spans)
    expected_total = {"outer": 10.0, "inner": 4.0, "leaf": 1.0}
    expected_self = {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    if dict(total) != expected_total or dict(own) != expected_self:
        raise RuntimeError(f"tracer self-time arithmetic is wrong: total {dict(total)}, self {dict(own)}")
    if count_within(spans, "leaf", "outer") != 1 or count_within(spans, "outer", "leaf") != 0:
        raise RuntimeError("tracer ancestor count is wrong")
    tracer.install({"gone": [("json", "no_such_function"), ("no_such_module", "f")]})
    tracer.uninstall()
    if tracer.absent != ["gone"]:
        raise RuntimeError(f"missing layer targets reported as {tracer.absent}, not absent")
