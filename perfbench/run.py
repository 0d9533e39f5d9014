"""Benchmark of the qclone command line, run from the root of a checkout.

    python3 perfbench/run.py --workload keyed-decrypt --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One single-threaded closed-loop client calls ``qclone.cli.main(argv)`` in
this process with stdout captured: one report in flight, the next argv sent
only after the previous report is verified.  The seed picks the Haar seeds and
the order of the argv pool; the program sees only argv.  Each workload run is
its own process with BLAS pinned to one thread.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``tracing.py``) and the tracing overhead.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Full results (environment stamp, sha256 per distinct argv, sample counts,
failures) and the spans of a traced run go to ``.perfbench_out/``.

Known coverage gaps: ``demo --n >= 7`` crashes (AttributeError on the
residual), and at n=6 one decrypt takes seconds, so wide ``demo`` joins as its
own workload once that is fixed.  ``iterate --k 3`` allocates past the qubit
cap before checking it and is never sent.  Test-suite wall time is not a
workload because the suite changes from change to change; ``sweep`` is left
out because ``encryption-audit`` covers its layers.
"""
import os

# Before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("keyed-decrypt", "encryption-audit", "iterated-tree", "circuit-compile")

END_TO_END_UNITS = {
    "setup_s": "s",
    "reports_per_s": "reports/s",
    "report_p50_s": "s",
    "report_p90_s": "s",
    # 1 - failed_frac: a metric that is never 0.
    "verified_frac": "fraction",
    "peak_rss_mb": "MB",
}
TRACE_OVERHEAD_UNITS = {
    "trace.untraced_reports_per_s": "reports/s",
    "trace.traced_reports_per_s": "reports/s",
    "trace.overhead_frac": "fraction",
}
# The timed loop runs in this many equal slices, so that machine conditions,
# which drift over seconds on a shared host, reach every measurement alike.
# An untraced run measures set-up once before each slice; a traced run
# alternates untraced and traced slices.
SLICES = 7
# At least 10 samples beyond p90.
MIN_REPORTS = 100
# A timed loop stops after this many seconds even if MIN_REPORTS is not reached.
WALL_CAP_S = 120.0

SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import qclone.cli\n"
    "qclone.cli.report_schema()\n"
    "print(time.perf_counter() - start, qclone.cli.__file__)\n"
)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup_s() -> float:
    """Time for a fresh interpreter to import qclone.cli and load the schema."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        die(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    seconds, path = proc.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        die(f"set-up imported qclone from {path.strip()}, not {SRC}")
    return float(seconds)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment_stamp() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import harness
    import qclone.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        die(f"imported qclone from {cli.__file__}, not {SRC}")

    workload = harness.WORKLOADS[name]
    pool = workload.pool(random.Random(seed))
    harness.prepare_output_dirs()
    client = harness.Client(cli, workload.check)
    client.warm_up(pool)
    argvs = itertools.cycle(pool)
    results: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}

    if not trace:
        setup, samples = [], []
        for _ in range(SLICES):
            setup.append(measure_setup_s())
            samples += client.timed(
                argvs, seconds / SLICES, MIN_REPORTS / SLICES, WALL_CAP_S / SLICES
            )
        summary = harness.summarize(samples)
        values = {
            "setup_s": statistics.median(setup),
            "reports_per_s": summary["reports_per_s"],
            "report_p50_s": summary["report_p50_s"],
            "report_p90_s": summary["report_p90_s"],
            "verified_frac": summary["verified"] / summary["samples"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        results.update(timed=summary, setup_s=setup)
    else:
        from tracing import Tracer

        tracer = Tracer()
        untraced, traced = [], []
        for _ in range(SLICES):
            untraced += client.timed(argvs, seconds / 2 / SLICES, 1, WALL_CAP_S / 2 / SLICES)
            with tracer.installed():
                traced += client.timed(argvs, seconds / 2 / SLICES, 1, WALL_CAP_S / 2 / SLICES)
        untraced, traced = harness.summarize(untraced), harness.summarize(traced)
        metrics = tracer.metrics()
        overhead = {
            "trace.untraced_reports_per_s": untraced["reports_per_s"],
            "trace.traced_reports_per_s": traced["reports_per_s"],
            "trace.overhead_frac": untraced["reports_per_s"] / traced["reports_per_s"] - 1,
        }
        for k, v in overhead.items():
            metrics[k] = {"value": v, "unit": TRACE_OVERHEAD_UNITS[k]}
        spans_path = harness.OUT_DIR / f"{name}-seed{seed}-spans.jsonl.gz"
        tracer.write_spans(spans_path)
        results.update(untraced=untraced, traced=traced, spans=str(spans_path))

    failed = len(client.failures)
    results.update(
        environment=environment_stamp(),
        argv_pool=[" ".join(a) for a in pool],
        report_sha256=client.digests(),
        attempted=client.attempted,
        failures=client.failures[:20],
        metrics=metrics,
    )
    out = harness.OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
    for metric, entry in metrics.items():
        print(f"{name:17s} {metric:50s} {entry['value']:.6g} {entry['unit']}")
    if not trace:
        print(f"{name:17s} {'samples':50s} {summary['samples']} reports,"
              f" {summary['beyond_p90']} beyond p90")
    return {
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process, one table of end-to-end metrics."""
    combined = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0 if all(r["correct"] for r in combined.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    if not (SRC / "qclone" / "cli.py").is_file():
        die(f"no qclone sources under {SRC}; run from a full checkout")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
