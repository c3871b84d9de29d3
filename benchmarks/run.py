"""Run one resolvent-kit benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Workloads: neutral-scan, coulomb-scan, build-sweep (see README.md here).

The run sets up once (import + parse + calculator construction), then
repeats the workload's round of jobs until the next round would overrun
``--seconds``; every job's answer is checked against an oracle. Set-up is
also timed in fresh processes so ``setup_s`` is a median.

With ``--trace 0`` the last stdout line is the end-to-end metrics. With
``--trace 1`` rounds alternate untraced and traced, and the last line is
the per-layer metrics (set-up plus the median traced round), the
job-level metrics of the untraced rounds and the tracing overhead; the
spans go to ``benchmarks/out/``. Lines above the
last one are a human-readable report, starting with the environment.
A failed gate makes the run exit 1 after printing its result.
"""

from __future__ import annotations

import os

# BLAS threading is pinned before numpy is first imported: default
# threading makes build-sweep slower on small machines (see README.md),
# and the library's own thread option is left at its default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RESOLVENT_KIT_THREADS", None)

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))

import tracer as tracing

WORKLOADS = ("neutral-scan", "coulomb-scan", "build-sweep")
SETUP_PROBES = 4  # fresh-process set-ups, besides the measuring process's own
PROBE_TIMEOUT_S = 60


def timed_setup(name, seed, workdir, tracer=None):
    """(seconds, workload): import the package, then build the workload's
    systems and calculators. The tracer, if any, is installed right after
    the import so set-up layers are traced."""
    start = time.perf_counter()
    import workloads
    import resolvent_kit

    if not Path(resolvent_kit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"resolvent_kit was imported from {resolvent_kit.__file__}, not {SRC}")
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[name](seed, workdir)
    return time.perf_counter() - start, workload


def probe_setups(name, seed, workdir):
    """Set-up seconds measured in SETUP_PROBES fresh processes, one after
    another."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), workdir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_round(workload):
    """Run every job once. Returns (seconds, job results, failures); a
    job whose gate or library call fails is reported and counted."""
    from resolvent_kit import ResolventKitError
    from workloads import GateError

    results, failures = [], 0
    start = time.perf_counter()
    for job in workload.jobs():
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = job()
        except (GateError, ResolventKitError) as exc:
            print(f"FAILED {type(exc).__name__}: {exc}", file=sys.stderr)
            failures += 1
            continue
        results.append((result, time.perf_counter() - began))
    return time.perf_counter() - start, results, failures


def run_rounds(workload, seconds, tracer):
    """Rounds until the next one would overrun ``seconds`` (at least one;
    with a tracer, at least one untraced and one traced, alternating).
    Returns a list of dicts: traced, seconds, results, failures, spans,
    counts."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            round_s, results, failures = run_round(workload)
        finally:
            if traced:
                tracer.uninstall()
        spans, counts = tracer.take() if traced else ([], {})
        rounds.append(dict(traced=traced, seconds=round_s, results=results,
                           failures=failures, spans=spans, counts=counts))
        typical = statistics.median(r["seconds"] for r in rounds)
        need_more = tracer is not None and len(rounds) < 2
        if not need_more and time.perf_counter() - start + typical > seconds:
            return rounds


JOB_METRICS = ("scan_energies_per_s", "resonance_s", "cli_s", "systems_per_s", "dos_s", "flagged_frac")


def job_metrics(rounds):
    """The job-level metrics over untraced rounds; None where the
    workload has no job of that kind."""
    seconds, points, flagged, per_round = Counter(), Counter(), Counter(), {}
    for r in rounds:
        in_round = Counter()
        for result, secs in r["results"]:
            seconds[result.kind] += secs
            points[result.kind] += result.points
            flagged[result.kind] += result.flagged
            in_round[result.kind] += secs
        for kind, secs in in_round.items():
            per_round.setdefault(kind, []).append(secs)

    def rate(kind):
        return points[kind] / seconds[kind] if kind in seconds else None

    def round_median(kind):
        return statistics.median(per_round[kind]) if kind in per_round else None

    return {
        "scan_energies_per_s": (rate("scan"), "1/s"),
        "resonance_s": (round_median("locate"), "s"),
        "cli_s": (round_median("cli"), "s"),
        "systems_per_s": (rate("bound"), "1/s"),
        "dos_s": (round_median("dos"), "s"),
        "flagged_frac": (flagged["scan"] / points["scan"] if "scan" in seconds else None, "ratio"),
    }


LAYER_TIMES = {
    # metric: (span name, inclusive or self)
    "basis.gauss_rule_log.s": ("basis.gauss_rule_log", "total"),
    "basis.orthonormal_laguerre_table.s": ("basis.orthonormal_laguerre_table", "total"),
    "basis.build_matrices.self_s": ("basis.build_matrices", "self"),
    "potential.parse_s": ("potential.parse", "total"),
    "potential.eval_s": ("potential.eval", "total"),
    "matrix_core.gen_sym_eig.s": ("matrix_core.gen_sym_eig", "total"),
    "matrix_core.sym_eig.s": ("matrix_core.sym_eig", "total"),
    "scattering.seed_coefficients.s": ("scattering.seed_coefficients", "total"),
    "scattering.cs_recursion.self_s": ("scattering.cs_recursion", "self"),
    "scattering.point.self_s": ("scattering.point", "self"),
    "scattering.calculator_init.self_s": ("scattering.calculator_init", "self"),
    "resolvent.green_last.s": ("resolvent.green_last", "total"),
    "analysis.scan_smatrix.self_s": ("analysis.scan_smatrix", "self"),
    "analysis.locate_resonances.self_s": ("analysis.locate_resonances", "self"),
    "analysis.bound_states.self_s": ("analysis.bound_states", "self"),
    "analysis.density_of_states.self_s": ("analysis.density_of_states", "self"),
    "cli.main.self_s": ("cli.main", "self"),
}
LAYER_COUNTS = (
    "basis.gauss_rule_log.calls", "basis.gauss_rule_log.points",
    "basis.orthonormal_laguerre_table.calls", "basis.build_matrices.calls",
    "potential.eval.calls", "matrix_core.gen_sym_eig.calls", "matrix_core.sym_eig.calls",
    "scattering.seed_coefficients.calls", "scattering.seed_coefficients.failures",
    "scattering.cs_recursion.calls", "scattering.point.calls", "resolvent.green_last.calls",
    "analysis.scan_smatrix.calls", "analysis.scan_smatrix.points",
    "analysis.locate_resonances.calls",
)
BUILD_LAYERS = ("basis.", "matrix_core.")


def layer_values(spans, counts, results):
    """Per-layer metrics of one span list (set-up or one round)."""
    total, own = tracing.self_times(spans)
    values = {m: (own if kind == "self" else total)[span] for m, (span, kind) in LAYER_TIMES.items()}
    values.update({m: counts.get(m, 0) for m in LAYER_COUNTS})
    values["basis.gauss_rule_log.max_points"] = counts.get("basis.gauss_rule_log.max_points", 0)
    values["analysis.locate_resonances.evaluations"] = tracing.count_within(
        spans, "scattering.point", "analysis.locate_resonances")
    values["analysis.locate_resonances.resonances"] = counts.get("analysis.locate_resonances.resonances", 0)
    values["analysis.scan_smatrix.flagged"] = counts.get("analysis.scan_smatrix.flagged", 0)
    values["cli.main.bytes_written"] = sum(r.bytes_written for r, _ in results)
    return values


def per_layer_metrics(setup_values, rounds):
    """Set-up plus the median traced round, with derived ratios."""
    traced = [r for r in rounds if r["traced"]]
    per_round = [layer_values(r["spans"], r["counts"], r["results"]) for r in traced]
    merged = {}
    for key, base in setup_values.items():
        merged[key] = base + statistics.median_low(v[key] for v in per_round)
    merged["basis.gauss_rule_log.max_points"] = max(
        [setup_values["basis.gauss_rule_log.max_points"]]
        + [v["basis.gauss_rule_log.max_points"] for v in per_round])
    found = merged.pop("analysis.locate_resonances.resonances")
    evaluations = merged["analysis.locate_resonances.evaluations"]
    merged["analysis.locate_resonances.evals_per_resonance"] = evaluations / found if found else 0.0
    flagged = merged.pop("analysis.scan_smatrix.flagged")
    points = merged["analysis.scan_smatrix.points"]
    merged["analysis.scan_smatrix.flagged_frac"] = flagged / points if points else 0.0
    return merged, per_round


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Threads each loaded OpenBLAS reports, read through its own API;
    empty where the process map or the symbol is unavailable."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[Path(lib_path).name] = getattr(lib, symbol)()
                break
    return found


def report(line):
    print(line, flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "resolvent_kit" / "__init__.py").is_file():
        print(f"resolvent_kit sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracing.selftest()
        tracer = tracing.Tracer()

    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        setup_s, workload = timed_setup(args.workload, args.seed, workdir, tracer)
        if tracer is not None:
            tracer.uninstall()
            setup_spans, setup_counts = tracer.take()
        rounds = run_rounds(workload, args.seconds, tracer)
        setup_samples = [setup_s] if tracer is not None else [setup_s] + probe_setups(
            args.workload, args.seed, workdir)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [r for r in rounds if not r["traced"]]
    solve_s = statistics.median(r["seconds"] for r in untraced)
    failed = sum(r["failures"] for r in rounds)
    attempted = sum(len(r["results"]) + r["failures"] for r in rounds)

    report(f"# environment {json.dumps(environment(), sort_keys=True)}")
    report(f"# workload {args.workload} seed {args.seed}: {len(untraced)} untraced round(s), "
           f"{len(rounds) - len(untraced)} traced; {len(setup_samples)} set-up sample(s)")
    summary = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "solve_s": (solve_s, "s"),
        **job_metrics(untraced),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, unit) in summary.items():
        report(f"{name:22s} {'n/a' if value is None else format(value, '.6g'):>12s} {unit}")
    report(f"# setup samples {[round(s, 4) for s in setup_samples]}; "
           f"round seconds {[round(r['seconds'], 3) for r in rounds]}")

    if tracer is None:
        metrics = {name: {"value": summary[name][0], "unit": summary[name][1]}
                   for name in ("setup_s", "solve_s", "peak_rss_mb")}
    else:
        setup_values = layer_values(setup_spans, setup_counts, [])
        layers, per_round = per_layer_metrics(setup_values, rounds)
        traced_s = statistics.median_low(r["seconds"] for r in rounds if r["traced"])
        layers["trace.overhead_pct"] = 100.0 * (traced_s / solve_s - 1.0)
        for name in JOB_METRICS:
            layers[name] = summary[name][0] or 0.0
        report_layers(layers, per_round, traced_s, tracer.absent)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(spans_path, setup_spans + [s for r in rounds for s in r["spans"]])
        report(f"# spans written to {spans_path.relative_to(BENCH_DIR.parent)}")
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def layer_unit(name):
    if name.endswith("_pct"):
        return "%"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac") or name.endswith("per_resonance"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def report_layers(layers, per_round, traced_s, absent):
    """Self-time shares of one traced round, and the layer separation
    the workloads are designed for. Every "s" metric without "self" is a
    leaf layer, so its inclusive time is its self time."""
    times = {m: statistics.median_low(v[m] for v in per_round) for m in LAYER_TIMES}
    report(f"# traced round {traced_s:.4f} s; self/inclusive time per layer (share of the round):")
    for metric, value in sorted(times.items(), key=lambda kv: -kv[1]):
        report(f"#   {metric:40s} {value:10.4f} s  {100.0 * value / traced_s:5.1f} %")
    if absent:
        report(f"# absent layers (not found in the library): {', '.join(absent)}")
    seeds = times["scattering.seed_coefficients.s"] / traced_s
    build = sum(times[m] for m in LAYER_TIMES if m.startswith(BUILD_LAYERS)) / traced_s
    largest = max(times, key=times.get)
    report(f"# seeds share {seeds:.3f}; basis + matrix_core share {build:.3f}; largest self time {largest}")
    report(f"# trace overhead {layers['trace.overhead_pct']:.2f} % of the untraced round")


if __name__ == "__main__":
    sys.exit(main())
