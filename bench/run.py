"""Benchmark of fig8torsion: one workload, one seed, one closed-loop
client in one process, no threads.

    python3 bench/run.py --workload point_reports --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from `src/`
and builds nothing.  Lines starting with "#" give the machine, the
input parameters, the raw timings and the sample counts.  The last line
is one JSON object with the keys correct, attempted, failed and
metrics.  attempted counts the distinct inputs the run reached and
failed those of them that failed on any op, so when a run covers every
input both depend on the seed alone; the per-op counts are on a "#"
line.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are
the per-layer metrics of a traced run, and the raw spans of its first
op go to .bench_out/.

Times are scaled to a reference speed, because the machines this runs
on change speed by up to 2x within seconds.  While the ops run, a timer
signal runs a small fixed reference kernel every SAMPLE_EVERY seconds,
so the kernel samples the machine's speed during the ops themselves.
Each op time, less the kernel time inside it, is multiplied by
REF_SECONDS / (mean kernel time over the samples taken during the op,
or over the WINDOW samples nearest to it for a short op).  Of the
estimators tried, this mean followed the op times most closely.  Each
set-up time, which runs in a child process, is scaled by the median of
SETUP_REFS kernel runs just before and SETUP_REFS just after it.
"""

import os

# pin BLAS and OpenMP pools before numpy loads; children inherit this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 7      # fresh interpreters per run; setup_s is their median
IMPORT_RUNS = 5     # `-X importtime` runs per traced run
CHILD_TIMEOUT = 120
SHOWN_ERRORS = 3    # tracebacks printed per run
SAMPLE_EVERY = 0.005  # seconds between reference-kernel samples
WINDOW = 100        # fewest samples behind one op's scale factor
SETUP_REFS = 400    # kernel runs on each side of one set-up time
REF_SECONDS = 35e-6  # mean sampled kernel time on the baseline machine
TRACE_BLOCK = 0.5   # seconds; a traced run alternates traced and untraced

CHECKS = ("check_geometric_point", "check_exterior_oracle",
          "check_trace_identity", "check_longitude_lemma",
          "check_basis_independence", "check_torus_oracle",
          "check_product_identity", "check_surgery_solver")
CALL_COUNTS = ("linalg.mat2_inverse", "linalg.row_reduce",
               "words.evaluate_word", "words.evaluate_group_ring",
               "chain.torsion", "chain.torsion_with_basis_perturbation",
               "riley.solve_t", "riley.riley_poly", "riley.longitude_l11",
               "riley.longitude_matrix_word", "surgery.surgery_residual")
SELF_LAYERS = ("linalg", "words", "chain", "riley")

_REF_M = np.array([[1.0 + 0.5j, 0.2], [0.1, 0.9 - 0.3j]])
_REF_E = np.eye(2, dtype=complex)


def import_package():
    """Import fig8torsion from this checkout's src/, and nowhere else."""
    if not (SRC / "fig8torsion" / "__init__.py").is_file():
        sys.exit(f"error: no fig8torsion package in {SRC}")
    sys.path.insert(0, str(SRC))
    import fig8torsion
    if Path(fig8torsion.__file__).resolve().parent != SRC / "fig8torsion":
        sys.exit(f"error: imported fig8torsion from {fig8torsion.__file__}")
    import fig8torsion.cli  # noqa: F401  (the cold start every CLI call pays)


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "system": platform.platform()}


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=True, timeout=CHILD_TIMEOUT)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import fig8torsion.cli and
    generate the workload's inputs, scaled to the reference speed."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
            "import fig8torsion.cli, workloads\n"
            f"workloads.WORKLOADS[{workload!r}]().inputs({seed})\n")
    times = []
    for _ in range(SETUP_RUNS):
        refs = [reference_kernel() for _ in range(SETUP_REFS)]
        start = perf_counter()
        _child(["-c", code])
        times.append(perf_counter() - start)
        refs += [reference_kernel() for _ in range(SETUP_REFS)]
        times[-1] *= REF_SECONDS / statistics.median(refs)
    return times


def import_ms() -> tuple[float, float]:
    """Medians of (fig8torsion.cli import, numpy import) in ms, from the
    cumulative column of `python -X importtime`."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import fig8torsion.cli"
    pkg_runs, numpy_runs = [], []
    for _ in range(IMPORT_RUNS):
        entries = []
        for line in _child(["-X", "importtime", "-c", code]).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2]
                entries.append((len(name) - len(name.lstrip()),
                                name.strip(), int(parts[1])))
        top = min(indent for indent, _, _ in entries)
        pkg_runs.append(sum(us for indent, name, us in entries
                            if indent == top
                            and name.split(".")[0] == "fig8torsion") / 1e3)
        numpy_runs.append(next(us for _, name, us in entries
                               if name == "numpy") / 1e3)
    return statistics.median(pkg_runs), statistics.median(numpy_runs)


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of 2x2 numpy products and Python
    complex arithmetic, the two kinds of work the library does."""
    start = perf_counter()
    acc, z = _REF_E, 0.3 + 0.4j
    for _ in range(8):
        acc = acc @ _REF_M
        acc = acc / abs(acc[0, 0])
        z = (z * z + 0.1) / (1 + abs(z))
    return perf_counter() - start


def worse(a: str, b: str) -> str:
    from workloads import OK, FAILED, WRONG
    rank = {OK: 0, FAILED: 1, WRONG: 2}
    return max(a, b, key=rank.__getitem__)


class Sampler:
    """Runs the reference kernel from a SIGALRM timer every SAMPLE_EVERY
    seconds of wall time, and keeps the kernel times."""

    def __init__(self):
        self.samples = array("d")

    def _sample(self, signum, frame):
        self.samples.append(reference_kernel())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        while len(self.samples) < WINDOW:
            self.samples.append(reference_kernel())


@dataclass
class Loop:
    """Per-op records in flat arrays, so that the benchmark's own memory
    barely grows with the number of ops and peak_rss_mb stays the
    library's."""
    latencies: array = field(default_factory=lambda: array("d"))  # seconds
    firsts: array = field(default_factory=lambda: array("q"))  # sample index
    lasts: array = field(default_factory=lambda: array("q"))   # at op end
    samples: array = field(default_factory=lambda: array("d"))  # reference
    traced: array = field(default_factory=lambda: array("b"))  # per op, 0/1
    states: Counter = field(default_factory=Counter)  # ops per state
    worst: dict = field(default_factory=dict)  # input index -> worst state
    characters: int = 0    # verified, in the first pass over the inputs

    def scaled(self) -> np.ndarray:
        """Op times at the reference speed, each scaled by the samples
        taken during the op, or by the WINDOW samples around it."""
        lo, hi = np.array(self.firsts), np.array(self.lasts)
        short = hi - lo < WINDOW
        start = np.clip((lo + hi - WINDOW) // 2, 0, len(self.samples) - WINDOW)
        lo, hi = np.where(short, start, lo), np.where(short, start + WINDOW, hi)
        total = np.concatenate(([0.0], np.cumsum(self.samples)))
        mean = (total[hi] - total[lo]) / (hi - lo)
        return np.array(self.latencies) * REF_SECONDS / mean

    def record(self, index: int, state: str) -> None:
        self.states[state] += 1
        self.worst[index] = worse(self.worst.get(index, state), state)

    @property
    def failed_ops(self) -> int:
        from workloads import OK
        return len(self.latencies) - self.states[OK]

    @property
    def failed_inputs(self) -> int:
        from workloads import OK
        return sum(state != OK for state in self.worst.values())


def ops_per_s(latencies) -> float:
    return len(latencies) / float(np.sum(latencies))


def percentile_ms(latencies, pct: int) -> float:
    """Linear interpolation between order statistics, which is
    statistics.quantiles(method="inclusive")."""
    return float(np.percentile(latencies, pct)) * 1e3


def run_ops(wl, inputs, seconds: float, min_ops: int, tracer=None) -> Loop:
    """Closed loop over the inputs for `seconds`, and at least `min_ops`
    ops, with the reference kernel sampled throughout.  Checks run
    outside the timed region and untraced.  With a tracer, the ops are
    traced in alternate blocks of TRACE_BLOCK seconds, or alternate ops
    where an op is longer, starting with a traced block; so the traced
    and untraced ops see the same inputs and the same machine speed."""
    from workloads import FAILED
    pause = tracer.paused if tracer else contextlib.nullcontext
    n_pass = wl.pass_ops(inputs)
    loop = Loop()
    with Sampler() as sampler:
        loop.samples = samples = sampler.samples
        deadline = perf_counter() + seconds
        switch_at = perf_counter()
        i = 0
        while i < min_ops or perf_counter() < deadline:
            item = inputs[i % len(inputs)]
            if tracer:
                tracer.op = i
                if perf_counter() >= switch_at:
                    tracer.active = i == 0 or not tracer.active
                    switch_at = perf_counter() + TRACE_BLOCK
                loop.traced.append(tracer.active)
            first = len(samples)
            start = perf_counter()
            try:
                out, error = wl.op(item), None
            except Exception as exc:
                out, error = None, exc
            elapsed = perf_counter() - start
            last = len(samples)
            loop.latencies.append(elapsed - sum(samples[first:last]))
            loop.firsts.append(first)
            loop.lasts.append(last)
            if error is not None:
                if loop.states[FAILED] < SHOWN_ERRORS:
                    trace = "".join(traceback.format_exception(error))
                    print(f"op {i} on {item!r} raised:\n{trace}",
                          file=sys.stderr)
                state, found = FAILED, 0
            else:
                with pause():
                    state, found = wl.check(item, out)
            loop.record(i % len(inputs), state)
            if i < n_pass:
                loop.characters += found
            i += 1
    return loop


def end_to_end(wl, inputs, args) -> tuple[dict, Loop]:
    setup = setup_seconds(args.workload, args.seed)
    loop = run_ops(wl, inputs, args.seconds, wl.pass_ops(inputs))
    # read before the statistics below, whose arrays grow with the op count
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(loop.latencies)
    scaled = loop.scaled()
    print(f"# speed: reference kernel {statistics.fmean(loop.samples) * 1e6:.2f}"
          f" us mean of {len(loop.samples)}; raw ops_per_s "
          f"{ops_per_s(loop.latencies):.6g}, op_p50_ms "
          f"{percentile_ms(loop.latencies, 50):.6g}, op_p90_ms "
          f"{percentile_ms(loop.latencies, 90):.6g}")
    for pct in (50, 90):
        cut = percentile_ms(scaled, pct)
        beyond = int(np.sum(scaled * 1e3 > cut))
        note = "" if beyond >= 10 else "  (fewer than 10 samples beyond)"
        print(f"# op_p{pct}_ms: {n} samples, {beyond} beyond{note}")
    print(f"# setup_s runs: {[round(x, 4) for x in setup]}")
    print(f"# failure_ratio: {loop.failed_ops / n:.6g} ({loop.failed_ops} "
          f"of {n} ops; {dict(loop.states)}); {loop.failed_inputs} of "
          f"{len(loop.worst)} inputs")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_s(scaled), "1/s"),
        "op_p50_ms": (percentile_ms(scaled, 50), "ms"),
        "op_p90_ms": (percentile_ms(scaled, 90), "ms"),
        "ok_ratio": (1 - loop.failed_inputs / len(loop.worst), "ratio"),
        "characters_found": (loop.characters, "count"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return metrics, loop


def per_layer(wl, inputs, args) -> tuple[dict, Loop]:
    """Traced and untraced blocks in turn, on the same inputs; the
    per-layer numbers are per traced op."""
    from tracer import Tracer
    cli_ms, numpy_ms = import_ms()
    tracer = Tracer()
    print(f"# traced functions: {tracer.install('fig8torsion')}")
    with tracer.tracing():
        loop = run_ops(wl, inputs, args.seconds, wl.pass_ops(inputs), tracer)
    traced = np.array(loop.traced, dtype=bool)
    scaled = loop.scaled()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    print(f"# spans of op 0: {len(tracer.spans)} in "
          f"{spans_path.relative_to(ROOT)}")
    ops = int(traced.sum())
    print(f"# ops: {len(traced) - ops} untraced, {ops} traced")

    calls, total, own = tracer.calls, tracer.total, tracer.own
    metrics = {f"{name}.calls": (calls[name] / ops, "calls/op")
               for name in CALL_COUNTS}
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_ms"] = (tracer.self_seconds(layer) * 1e3 / ops,
                                       "ms/op")
    metrics["formulas.full_report.self_ms"] = (
        own["formulas.full_report"] * 1e3 / ops, "ms/op")
    metrics["formulas.torsion_exterior_oracle.ms"] = (
        total["formulas.torsion_exterior_oracle"] * 1e3 / ops, "ms/op")
    metrics["surgery.solve_surgery.self_ms"] = (
        own["surgery.solve_surgery"] * 1e3 / ops, "ms/op")
    residuals = calls["surgery.surgery_residual"]
    slopes = calls["surgery.solve_surgery"]
    metrics["surgery.yield"] = (
        tracer.items["surgery.solve_surgery"] / residuals if residuals else 0.0,
        "ratio")
    metrics["surgery.numeric_warnings"] = (
        tracer.warned["surgery.solve_surgery"] / slopes if slopes else 0.0,
        "warnings/slope")
    for check in CHECKS:
        metrics[f"verify.{check}.ms"] = (total[f"verify.{check}"] * 1e3 / ops,
                                         "ms/op")
    metrics["cli.import_ms"] = (cli_ms, "ms")
    metrics["cli.numpy_import_ms"] = (numpy_ms, "ms")
    metrics["trace.overhead_ratio"] = (
        ops_per_s(scaled[~traced]) / ops_per_s(scaled[traced]), "ratio")
    return metrics, loop


def main(argv=None) -> int:
    import_package()
    from workloads import WORKLOADS, WRONG

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wl = WORKLOADS[args.workload]()
    inputs = wl.inputs(args.seed)
    print(f"# machine: {json.dumps(machine())}")
    print(f"# workload: {args.workload} seed {args.seed}, {len(inputs)} inputs, "
          f"{json.dumps(wl.params)}")
    measure = per_layer if args.trace else end_to_end
    metrics, loop = measure(wl, inputs, args)
    print(json.dumps({
        "correct": loop.states[WRONG] == 0,
        "attempted": len(loop.worst),
        "failed": loop.failed_inputs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
