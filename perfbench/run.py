"""Benchmark of the vocalnet pipeline: one workload per invocation.

    python3 perfbench/run.py --workload extract-long --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the program from
`src/`. The seed makes the inputs; the program receives only the generated
files. With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics from a
run that alternates untraced and traced passes. A fuller record (provenance,
the workload's own named metrics, behaviour facts) is printed above it and
written under `perfbench/out/`, with the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("extract-long", "select-train", "classify-short"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the benchmark's own tests")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; exit 2 if it is missing."""
    if not (SRC / "vocalnet" / "__init__.py").is_file():
        print(f"error: no vocalnet sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import vocalnet
    return vocalnet


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(), "seed": seed,
        "src_lines": src_lines,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_program() -> None:
    """Start the program in a fresh interpreter, as every command line does,
    so that work done at import time counts as set-up."""
    import subprocess
    subprocess.run([sys.executable, "-c", "import vocalnet.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                   timeout=120)


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def measure(workload, seconds: float, trace: bool, modules):
    """Repeat passes until `seconds` have passed (at least one; with tracing
    at least one untraced and one traced pass, alternating, and no reference
    bursts, whose normalised metrics a traced run does not report)."""
    from spans import Tracer
    from layers import PROBES
    untraced, traced = [], []
    tracer = Tracer(PROBES) if trace else None
    # bursts would land inside spans, and the overhead compares like passes
    workload.ref.active = not trace
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(workload.run_pass())
        if trace:
            workload.tracing = lambda: tracer.installed(modules)
            try:
                traced.append(workload.run_pass())
            finally:
                workload.tracing = None
        if time.perf_counter() >= deadline:
            return untraced, traced, tracer


def end_to_end(passes, setup_s: float, ref=None) -> dict:
    """The end-to-end metrics; with `ref`, the times of each pass are
    normalised to reference speed during that pass (see calibrate.py)."""
    scale = [ref.factor(p.start, p.end) if ref else 1.0 for p in passes]
    walls = sum(p.wall_s * f for p, f in zip(passes, scale))
    units = sum(op.units for p in passes for op in p.ops)
    per_unit = [1e6 * op.seconds * f / op.units
                for p, f in zip(passes, scale) for op in p.ops if op.units > 0]
    return {
        "setup_s": (setup_s, "s"),
        "unit_cost_us": (1e6 * walls / units if units else 0.0, "us"),
        "op_unit_p50_us": (percentile(per_unit, 50), "us"),
        "op_unit_p95_us": (percentile(per_unit, 95), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run(args) -> dict:
    package = import_program()
    import importlib
    from layers import MODULES, per_layer_metrics
    modules = [package] + [importlib.import_module(f"vocalnet.{m}")
                           for m in MODULES]
    from workloads import SIZES, WORKLOADS

    size = SIZES[args.size]
    workload = WORKLOADS[args.workload](size)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ref = workload.ref
        setup_times, setup_norm = [], []
        for i in range(size["setup_repeats"]):
            if i:
                shutil.rmtree(work / f"setup{i - 1}")
            ref.burst(0.1)
            t0 = time.perf_counter()
            start_program()
            workload.setup(work / f"setup{i}", args.seed)
            t1 = time.perf_counter()
            ref.burst(0.1)
            setup_times.append(t1 - t0)
            setup_norm.append((t1 - t0) * ref.factor(t0, t1))

        workload.install_clock()
        try:
            untraced, traced, tracer = measure(workload, args.seconds,
                                               bool(args.trace), modules)
        finally:
            workload.clock.uninstall()
        named = workload.finish(untraced, traced)
        passes = untraced + traced
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in passes for op in p.ops]
    failed = sum(not op.ok for op in ops)
    failed_share = failed / len(ops)
    named["metrics"]["failed_op_share"] = (failed_share, "ratio")
    raw = end_to_end(untraced, statistics.median(setup_times))
    e2e = end_to_end(untraced, statistics.median(setup_norm), ref)
    named["metrics"]["setup_s"] = raw["setup_s"]
    named["metrics"]["peak_rss_mb"] = e2e["peak_rss_mb"]

    record = {
        "workload": args.workload, "trace": args.trace, "size": args.size,
        "seconds": args.seconds, "work_unit": workload.unit,
        "provenance": provenance(args.seed),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "ops": len(ops), "failed": failed,
        "failures": sorted({f for p in passes for f in p.facts.get("failures", [])}),
        "setup_times_s": setup_times,
        "end_to_end": e2e, "end_to_end_raw": raw,
        "reference_samples": ref.samples,
        "workload_metrics": named["metrics"],
        "facts": named["facts"],
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        n = len(traced)
        untraced_wall = sum(p.wall_s for p in untraced[:n])
        traced_wall = sum(p.wall_s for p in traced)
        record["per_layer"] = per_layer_metrics(
            tracer.summary(), dict(tracer.counts), n, traced_wall, untraced_wall,
            len(tracer.name_id), failed_share)
        record["spans_file"] = str(stem.with_suffix(".spans.npz").relative_to(ROOT))
        tracer.save(stem.with_suffix(".spans.npz"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))

    # the result carries exactly the metrics BENCHMARK.json declares; the
    # 95th percentile stays in the record (on select-train it follows how
    # short a seed's shortest trainings are, so it does not hold a bound)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    source = record["per_layer"] if args.trace else e2e
    metrics = {m["name"]: source[m["name"]]
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    return {
        "record": record,
        "result": {
            "correct": failed == 0 and not record["failures"],
            "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    out = run(args)
    record = out["record"]
    print(f"# {record['workload']} seed {args.seed}: {record['ops']} operations, "
          f"{record['failed']} failed, passes {record['passes']}")
    for failure in record["failures"]:
        print(f"# failure: {failure}")
    for key, (value, unit) in record["workload_metrics"].items():
        print(f"# {key} = {value:.6g} {unit}")
    print(f"# record: {json.dumps({k: record[k] for k in ('provenance', 'facts')}, default=str)}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
