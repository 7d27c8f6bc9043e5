"""Benchmark of framefieldops: solve seeded problem sets and time them.

Run from the repository root:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory.  One process
solves the workload's problems one after another (a closed loop with one
client) on single-threaded BLAS.  After set-up and one untimed warm-up pass,
the run repeats whole cycles, one pass per input variant, while the next
cycle fits in ``--seconds``.  A time is the median over cycles of the
cycle's mean per pass.  ``wall_ref`` divides each problem's time by the time
of a fixed pure-Python loop run just before and after it, which takes out
most of the drift in the host's speed (see ``workloads.Pass``).

The output is a report of every metric with its unit, a ``record`` line
(provenance, metrics and per-problem detail as JSON), and as its last line
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics listed in
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics, which come from
passes with timing wrappers installed (see ``tracing.py``).
``--workload all`` runs every workload in its own process.
"""

import os

# One BLAS thread: set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("spectral", "boundary", "hierarchy", "color", "volume")
IMPORT_TIMEOUT_S = 60
# A workload process takes its set-up, a warm-up pass, ``--seconds`` of
# cycles and at most one cycle more.
WORKLOAD_TIMEOUT_S = 120
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import framefieldops; "
    "print(time.perf_counter() - t)"
)
FAILED = ("capped", "check", "raised", "blocked")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child_import_seconds():
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_threads():
    """Thread count OpenBLAS reports, or the pinned setting if it cannot be asked."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return get()
    return int(BLAS_THREADS)


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_ref"):
        return "ref"
    return "count"


def run_pass(workload, inputs, variant, tracer=None):
    from workloads import Pass

    gc.collect()
    p = Pass()
    p.variant = variant
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = time.perf_counter()
        workload.run(inputs, inputs["variants"][variant], p)
        p.wall_s = time.perf_counter() - t0 - p.gauge_s
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        p.layers = tracer.layer_metrics()
    return p


def measure(workload, inputs, seconds, tracer, between):
    """Warm up, then run whole cycles while the next one fits in ``seconds``.

    A cycle is one pass per variant.  The untimed warm-up pass takes the
    process's first-pass costs (heap growth, lazy imports) out of every
    measured pass.  With a tracer the cycle's passes are traced, and each
    cycle ends with an untraced pass of variant 0: the baseline that
    ``trace.overhead_s`` compares the cycle's first pass with.  ``between()``
    is called after each cycle.  Returns (baseline passes, cycles), a cycle
    being a list of passes.
    """
    variants = range(len(inputs["variants"]))
    run_pass(workload, inputs, 0)
    start = time.perf_counter()
    baseline, cycles = [], []
    while True:
        t0 = time.perf_counter()
        cycle = [run_pass(workload, inputs, v, tracer) for v in variants]
        cycles.append(cycle)
        if tracer is not None:
            baseline.append(run_pass(workload, inputs, 0))
        between()
        now = time.perf_counter()
        nothing_solved = not any(r["status"] == "ok" for p in cycle for r in p.problems)
        if nothing_solved or (now - start) + (now - t0) > seconds:
            return baseline, cycles


def per_pass(cycles, value):
    """Median over cycles of the mean of ``value(pass)``, skipping passes where it is None."""
    means = []
    for cycle in cycles:
        values = [v for v in map(value, cycle) if v is not None]
        if values:
            means.append(sum(values) / len(values))
    return median(means) if means else None


def end_to_end(cycles, setup_s):
    from workloads import TASKS

    problems = [r for c in cycles for p in c for r in p.problems]
    failed = sum(r["status"] in FAILED for r in problems)
    m = {}
    # Timings exist only where something was solved; a workload whose every
    # problem fails reports no times rather than zeros.
    if failed < len(problems):
        m["wall_s"] = per_pass(cycles, lambda p: p.wall_s)
        m["wall_ref"] = per_pass(cycles, lambda p: p.wall_ref)
    m["setup_s"] = setup_s
    m["failed_share"] = failed / len(problems)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for task in TASKS:
        value = per_pass(cycles, lambda p: p.task_s.get(task))
        if value is not None:
            m[f"task.{task}_s"] = value
    return m


def per_layer(baseline, cycles):
    passes = [p for c in cycles for p in c]
    names = {k for p in passes for k in p.layers}
    m = {}
    for name in sorted(names):
        if name == "solve.eigs_worst_residual_ratio":
            m[name] = max(p.layers[name] for p in passes if name in p.layers)
        else:
            m[name] = per_pass(cycles, lambda p: p.layers.get(name))
    m["trace.overhead_s"] = median(c[0].wall_s - b.wall_s for c, b in zip(cycles, baseline))
    return m


def summarize_problems(passes):
    out = {}
    for p in passes:
        for r in p.problems:
            s = out.setdefault(
                r["problem"],
                {"problem": r["problem"], "status": Counter(), "seconds": [],
                 "warnings": 0, "runtime_warnings": 0, "errors": set(), "warning_messages": set()},
            )
            for key in ("nv", "nnz", "eigs_path"):
                if key in r:
                    s[key] = r[key]
            s["status"][r["status"]] += 1
            if "seconds" in r:
                s["seconds"].append(r["seconds"])
            s["warnings"] += r.get("warnings", 0)
            s["runtime_warnings"] += r.get("runtime_warnings", 0)
            if "error" in r:
                s["errors"].add(r["error"])
            s["warning_messages"].update(r.get("warning_messages", ()))
    for s in out.values():
        s["status"] = dict(s["status"])
        s["seconds"] = median(s["seconds"]) if s["seconds"] else None
        s["errors"] = sorted(s["errors"])
        s["warning_messages"] = sorted(s["warning_messages"])
    return list(out.values())


def run_workload(args, spec):
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import framefieldops

    import_s = [time.perf_counter() - t0]
    if not Path(framefieldops.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported framefieldops from {framefieldops.__file__}, not {SRC}")
    import numpy
    import scipy
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    inputs = workload.setup(args.seed)
    build_s = [time.perf_counter() - t0]

    def sample_setup():
        """Set up once more: import in a fresh interpreter and build the inputs again.

        Samples taken between cycles spread over the run, so that their
        median does not depend on the host's speed at one moment.
        """
        import_s.append(child_import_seconds())
        t0 = time.perf_counter()
        workload.setup(args.seed)
        build_s.append(time.perf_counter() - t0)

    sample_setup()
    tracer = Tracer() if args.trace else None
    baseline, cycles = measure(workload, inputs, args.seconds, tracer, sample_setup)
    setup_s = median(import_s) + median(build_s)
    metrics = per_layer(baseline, cycles) if tracer else end_to_end(cycles, setup_s)
    listed = spec["per_layer"] if tracer else spec["end_to_end"]
    passes = [p for c in cycles for p in c]

    problems = [r for p in baseline + passes for r in p.problems]
    result = {
        "correct": not any(r["status"] == "check" for r in problems),
        "attempted": len(problems),
        "failed": sum(r["status"] in FAILED for r in problems),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed if m["name"] in metrics
        },
    }
    record = {
        "provenance": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(),
            "framefieldops": framefieldops.__version__,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "nproc": os.cpu_count(),
            "load": "closed loop, one client, problems solved one after another",
        },
        "variants": len(inputs["variants"]),
        "passes": [{"variant": p.variant, "wall_s": p.wall_s, "wall_ref": p.wall_ref}
                   for p in passes],
        "setup": {"import_s": import_s, "build_s": build_s},
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        "problems": summarize_problems(baseline + passes),
    }
    if tracer:
        record["untraced_baseline_wall_s"] = [p.wall_s for p in baseline]
    return result, record


def print_report(result, record):
    prov = record["provenance"]
    print(f"framefieldops benchmark: workload={prov['workload']} seed={prov['seed']} "
          f"trace={prov['trace']} passes={len(record['passes'])} "
          f"blas_threads={prov['blas_threads']} nproc={prov['nproc']}")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    caught = sum(s["warnings"] for s in record["problems"])
    runtime = sum(s["runtime_warnings"] for s in record["problems"])
    print(f"  problems: {result['attempted']} attempted, {result['failed']} failed, "
          f"correct={result['correct']}; {caught} warnings, {runtime} RuntimeWarning")
    if result["failed"] == result["attempted"]:
        print("  every problem failed, so no timings are reported; the errors follow")
    for s in record["problems"]:
        size = f"nv={s.get('nv', '-')} nnz={s.get('nnz', '-')} eigs={s.get('eigs_path', '-')}"
        status = " ".join(f"{k}={v}" for k, v in sorted(s["status"].items()))
        notes = "; ".join(s["errors"] + s["warning_messages"])
        print(f"    {s['problem']:28s} {size:40s} {status}" + (f"  [{notes}]" if notes else ""))
    print("record " + json.dumps(record, sort_keys=True))


def run_all(args):
    """Run every workload in its own process; report each, then the combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=WORKLOAD_TIMEOUT_S + 2 * args.seconds)
        except subprocess.TimeoutExpired:
            print(f"workload {name} did not finish in time", file=sys.stderr)
            return 1
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "framefieldops" / "__init__.py").is_file():
        print(f"no framefieldops sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    result, record = run_workload(args, spec)
    print_report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
