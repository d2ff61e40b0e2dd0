"""softiga benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory. A single client calls `softiga.cli.main(argv)`
for each case of the workload, with stdout and stderr captured, and
starts the next case only after the previous one returns. The seed only
permutes the order of the cases within each pass.

The first pass warms the process and has every output checked against
an oracle (see checks.py); later passes must reproduce its exit codes
and stdout byte for byte. Passes repeat for the requested seconds.

Times are taken at a reference host speed. On a shared host the speed
of a CPU changes by up to 2x in phases of seconds, with no steal time
visible from inside. So the benchmark pins itself and its probes to one
CPU, times a fixed reference kernel of its own, independent of softiga,
before and after every case and every set-up probe, and scales each
wall time by REFERENCE_S over the mean of the two. The raw wall times
are printed on the line before the result.

With `--trace 0` the last line of stdout holds the end-to-end metrics:

* setup_s: median over the probes of the time a fresh interpreter takes
  to import `softiga` and `softiga.cli`;
* run_s: median over the timed passes of one pass's time;
* peak_rss_mb: peak resident memory of this process;
* ok_ratio: cases that exited 0 with correct output over cases run.

With `--trace 1`, untraced and traced passes alternate and the last line
holds the per-layer metrics of tracing.py, as medians over the traced
passes in raw wall seconds, plus `proc.cpu_s` (CPU time of an untraced
pass), `trace.run_s` (raw time of a traced pass) and
`trace.overhead_ratio` (traced over untraced pass time, pair by pair).

`failed` counts cases whose outcome was wrong. The cases that hit the
known defect named in checks.KNOWN_DEFECT are not failures of the
benchmark: they exit as recorded, are listed on the line before the
result and lower ok_ratio.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, case_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
SETUP_PROBES = 7
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# Nominal time of _reference_kernel(); scaled times are wall times at
# the host speed where the kernel takes this long.
REFERENCE_S = 0.02
# OpenBLAS threads, exported before numpy is imported. With the default
# two threads the dense solves ran at about twice the CPU time of their
# wall time, and their wall time spread far more from run to run; the
# process is pinned to one CPU anyway (see _pin_cpu).
BLAS_THREADS = 1

_IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import softiga, softiga.cli\n"
    "print(time.perf_counter() - start)\n"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_blas():
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _pin_cpu():
    """Keep this process and its import probes on one CPU, the one the
    reference kernel is timed on; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _reference_kernel():
    """Fixed work of the kinds the pipeline does: a scalar float
    recurrence in Python (as in basis evaluation), sorting a list of
    tuples (as in the spectrum lift) and small numpy operations."""
    import numpy as np

    acc = 0.0
    for i in range(6000):
        x = i * 1e-4
        value = 1.0
        for j in range(1, 6):
            value = (x - j) * value * 1e-3 + 1.0 / (j + x)
        acc += value
    pairs = sorted(((i * 7919) % 1009 + 0.5, (i % 7, i % 11, i))
                   for i in range(15000))
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(100):
        a = np.sort(np.cos(a) + 1e-3 * np.add.outer(a[:8], a[:8]).sum())
    m = np.add.outer(a, a) + 64.0 * np.eye(a.size)
    return acc + pairs[0][0] + float(np.linalg.eigvalsh(m)[0])


def _reference_time():
    """Wall time of the reference kernel, with the garbage collector off
    so that the size of the program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class _Scaler:
    """Scales wall times taken between two reference-kernel timings."""

    def __init__(self):
        self.restart()

    def restart(self):
        """Take a fresh reading, for a wall time that starts now."""
        self._last = _reference_time()

    def scale(self, seconds):
        now = _reference_time()
        factor = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return seconds * factor


def _probe_import():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          cwd=ROOT, env=os.environ.copy(),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def _run_pass(cli, cases, scaler=None):
    """Run each case once, in order.

    Returns (wall seconds, scaled seconds, results); the times cover the
    cases only, not the reference kernel between them.
    """
    results = []
    wall = scaled = 0.0
    for argv in cases:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        wall += seconds
        if scaler is not None:
            scaled += scaler.scale(seconds)
        results.append((code, out.getvalue(), err.getvalue()))
    return wall, scaled, results


def _environment(workload):
    import numpy
    import scipy

    def blas(module):
        info = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {"workload": workload, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "numpy_blas": blas(numpy),
            "scipy": scipy.__version__, "scipy_blas": blas(scipy),
            "nproc": os.cpu_count()}


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "softiga" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'softiga'} not found; run from the root"
              f" of a softiga checkout", file=sys.stderr)
        return 2
    _pin_blas()
    sys.path.insert(0, str(SRC))
    import softiga.cli
    if Path(softiga.cli.__file__).resolve().parent != SRC / "softiga":
        print(f"perfbench: imported softiga from {softiga.cli.__file__},"
              f" not from {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing

    env = _environment(args.workload)
    env["cpu"] = _pin_cpu()
    scaler = _Scaler()
    setup, setup_wall = [], []
    if not args.trace:
        _probe_import()  # fills the bytecode cache; not counted
        scaler.restart()
        for _ in range(SETUP_PROBES):
            setup_wall.append(_probe_import())
            setup.append(scaler.scale(setup_wall[-1]))

    rng = random.Random(args.seed)
    cases = WORKLOADS[args.workload]

    def shuffled():
        return rng.sample(cases, len(cases))

    # Warm-up pass: every output is checked against its oracle and kept
    # as the reference for the timed passes.
    ref = checks.Reference(json.loads(EXPECTED.read_text()))
    order = shuffled()
    _, _, results = _run_pass(softiga.cli, order)
    expected, outcome, problems = {}, {}, []
    for argv, (code, out, err) in zip(order, results):
        key = case_key(argv)
        expected[key] = (code, out)
        try:
            outcome[key] = checks.check_case(argv, code, out, err, ref)
        except (checks.CheckError, ValueError, KeyError, IndexError) as exc:
            outcome[key] = "failed"
            problems.append(f"{key}: {exc}")
    counts = {"ok": 0, "known_defect": 0, "failed": 0}
    for key in outcome:
        counts[outcome[key]] += 1

    def tally(order, results):
        for argv, (code, out, _) in zip(order, results):
            key = case_key(argv)
            if (code, out) == expected[key]:
                counts[outcome[key]] += 1
            else:
                counts["failed"] += 1
                problems.append(f"{key}: output differs from the first"
                                f" pass (exit {code})")

    tracer = tracing.Tracer()
    wall, scaled, cpu, traced_wall, traced_scaled, traces = ([] for _ in
                                                            range(6))
    start = time.perf_counter()
    scaler.restart()

    def keep_going(done, min_done):
        spent = time.perf_counter() - start
        return done < min_done or spent + spent / done <= args.seconds

    while keep_going(len(wall), MIN_TRACED_PAIRS if args.trace
                     else MIN_PASSES):
        order = shuffled()
        cpu0 = time.process_time()
        seconds, norm, results = _run_pass(softiga.cli, order, scaler)
        cpu.append(time.process_time() - cpu0)
        wall.append(seconds)
        scaled.append(norm)
        tally(order, results)
        if args.trace:
            order = shuffled()
            tracer.install()
            try:
                seconds, norm, results = _run_pass(softiga.cli, order,
                                                   scaler)
            finally:
                tracer.uninstall()
            traced_wall.append(seconds)
            traced_scaled.append(norm)
            traces.append(tracer.take())
            tally(order, results)

    attempted = sum(counts.values())
    if args.trace:
        per_pass = [tracing.layer_metrics(t) for t in traces]
        units = tracing.units(per_pass[0])
        # Counts must repeat exactly from pass to pass; times are medians.
        metrics = {name: per_pass[0][name] if unit == "count" else
                   statistics.median(p[name] for p in per_pass)
                   for name, unit in units.items()}
        varying = sorted(name for name, unit in units.items()
                         if unit == "count"
                         and len({p[name] for p in per_pass}) > 1)
        if varying:
            problems.append(f"counts differ between traced passes:"
                            f" {varying}")
        metrics["proc.cpu_s"] = statistics.median(cpu)
        metrics["trace.run_s"] = statistics.median(traced_wall)
        metrics["trace.overhead_ratio"] = statistics.median(
            t / u for t, u in zip(traced_scaled, scaled))
        units.update({"proc.cpu_s": "s", "trace.run_s": "s",
                      "trace.overhead_ratio": "ratio"})
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(scaled),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": counts["ok"] / attempted,
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                 "ok_ratio": "ratio"}

    env.update({"seed": args.seed, "passes": len(wall),
                "pass_wall_s": wall, "pass_scaled_s": scaled,
                "traced_pass_wall_s": traced_wall,
                "setup_wall_s": setup_wall, "setup_scaled_s": setup,
                "known_defects": sorted(k for k, v in outcome.items()
                                        if v == "known_defect"),
                "problems": problems})
    print(json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": counts["failed"] == 0 and not problems,
        "attempted": attempted,
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
