"""Benchmark of the textileplate pipeline: one workload per process.

    python3 perfbench/run.py --workload <homog|buckle|plate|verify>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src` directory, not from an installed copy. After set-up the workload runs
whole rounds of the same CLI commands in-process through
`textileplate.cli.main`, starting another round only while it fits in
`--seconds` (there is always at least one), and checks every round's
outputs.

With `--trace 0` the last line of standard output is the end-to-end result
(set-up time, median round time, peak memory). With `--trace 1` the
package's functions are wrapped at the attributes the program calls
through and the result carries the per-layer metrics instead. A full
record, with the environment, goes to `.perfbench/results/`.
"""
import os
import sys
import time

T0 = time.perf_counter()

# One BLAS/OpenMP thread, set before numpy loads: on small machines a second
# OpenBLAS thread slows the short vector operations of the cell CG.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def process_age():
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


STARTUP_S = process_age()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def summarize_layers(traced_rounds):
    """Median of per-round times; counts must repeat in every round."""
    first = traced_rounds[0]
    metrics, unstable = {}, []
    for name, (value, unit) in first.items():
        values = [r[name][0] for r in traced_rounds]
        if unit == "s":
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        else:
            if any(v != value for v in values):
                unstable.append(f"{name}: {values}")
            metrics[name] = {"value": value, "unit": unit}
    return metrics, unstable


def run(args):
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    import textileplate.cli  # noqa: F401  (import cost belongs to set-up)

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    tracer = tracing.Tracer() if args.trace else None
    ctx = workloads.Context(run_dir, args.seed, tracer)
    workload = workloads.WORKLOADS[args.workload]()
    try:
        workload.setup(ctx)
        if tracer is not None:
            tracer.install()
        setup_s = STARTUP_S + time.perf_counter() - T0

        rounds = []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.reset()
            timed, commands, checks = workload.round(ctx)
            entry = {"timed": timed, "commands": commands, "checks": checks}
            if tracer is not None:
                layers = tracing.round_metrics(tracer.spans, tracer.counters)
                layers["trace.round_s"] = (timed["run_s"], "s")
                for key in ("plate_linear_s", "plate_vk_s"):
                    layers[f"cli.{key}"] = (timed.get(key, 0.0), "s")
                entry["layers"] = layers
                entry["calls"] = {
                    layer: totals["calls"]
                    for layer, totals in tracing.layer_totals(tracer.spans).items()
                }
                entry["spans"] = [s.as_dict() for s in tracer.spans]
            rounds.append(entry)
            if len(rounds) == 1:
                # later rounds can only add allocator fragmentation, so the
                # peak is taken over set-up and one round
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)

    commands = [c for r in rounds for c in r["commands"]]
    checks = [c for r in rounds for c in r["checks"]]
    failed = [c for c in commands if not c[1]] + [c for c in checks if not c[1]]
    # a check that ran and failed means wrong output; a failed command (and
    # the checks it left unrun) only counts as failed
    problems = [f"{name}: {detail}" for name, ok, detail in checks if ok is False]
    if args.trace:
        metrics, unstable = summarize_layers([r["layers"] for r in rounds])
        problems += [f"count differs between rounds: {u}" for u in unstable]
        for layer in tracing.missing_layers(workload.required_layers,
                                            [r["calls"] for r in rounds]):
            problems.append(f"layer {layer} recorded no calls; was it renamed or rebound?")
    else:
        metrics = {
            "run_s": {"value": statistics.median(r["timed"]["run_s"] for r in rounds),
                      "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    result = {
        "correct": not problems,
        "attempted": len(commands) + len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "interpreter_startup_s": STARTUP_S,
        "environment": environment(),
        "result": result,
        "problems": problems,
        "command_log": ctx.log,
        "missing_wrap_points": tracer.missing if tracer else [],
        "rounds": rounds,
    }
    results_dir = scratch / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for line in problems + ctx.log:
        print(line, file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} round(s); record in {out.relative_to(ROOT)}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "textileplate" / "__init__.py").is_file():
        print(f"no textileplate sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
