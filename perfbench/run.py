#!/usr/bin/env python3
"""liesym benchmark: run one workload for a fixed time and check its outputs.

    python3 perfbench/run.py --workload exact-algebra --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload, summary table

Run from the root of a checkout.  Load model: a closed loop with one client.
Every pass runs in a fresh interpreter (worker.py), one Python thread, with the
BLAS/OpenMP pools pinned to one thread, back to back until --seconds is used
up; a pass starts only if an average pass still fits in the time left.
Set-up is timed as the import of liesym and liesym.cli in SETUP_PROBES
import-only interpreters started before the passes.

--trace 0 reports the end-to-end metrics (medians over the run's passes):
wall_s, setup_s and peak_rss_mb.  --trace 1 alternates an untraced pass with a
traced one and reports the per-layer metrics of the traced passes, plus the
tracing overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it is the
environment and sample-count record, also saved under perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKER = HERE / "worker.py"
WORK = HERE / ".work"
RESULTS = HERE / "results"
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0   # every run must end within 180 s
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
HASH_SEED = "0"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


LAYER_METRICS = tuple(tracer.Tracer().metrics()) + ("trace.overhead_s",)


class PassError(RuntimeError):
    """A worker process that ended without a result."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, **THREAD_PINS)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = max(5.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one run; returns the result and the record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    planned = len(workloads.PASSES[workload][1]("full"))
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    spans = RESULTS / f"{workload}-seed{seed}.spans.jsonl.gz"
    setups, plain, traced, errors = [], [], [], []   # setups: import-only probes
    attempted = failed = 0
    try:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(["--setup-only"], deadline)["setup_s"])
        start = time.monotonic()
        rounds = 0
        while True:
            modes = (0, 1) if trace else (0,)
            for mode in modes:
                argv = ["--workload", workload, "--seed", str(seed), "--trace", str(mode),
                        "--workdir", str(workdir)]
                if mode:
                    argv += ["--spans", str(spans)]
                attempted += planned
                try:
                    r = run_worker(argv, deadline)
                except (PassError, subprocess.TimeoutExpired, ValueError) as exc:
                    failed += planned
                    errors.append(str(exc))
                    continue
                failed += len(r["failed"])
                if r["error"]:
                    errors.append(r["error"])
                (traced if mode else plain).append(r)
            rounds += 1
            elapsed = time.monotonic() - start
            # Start another round only if it should end within --seconds.
            if errors or elapsed + elapsed / rounds > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, samples = {}, {"setup_s": len(setups)}
    if trace and traced and plain:
        for name in LAYER_METRICS[:-1]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        samples.update({"traced_passes": len(traced), "untraced_passes": len(plain),
                        "spans_per_traced_pass": traced[0]["spans"]})
    elif not trace and plain:
        metrics["wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        samples.update({"wall_s": len(plain), "peak_rss_mb": len(plain)})
    units = layer_unit if trace else END_TO_END_UNITS.get
    result = {
        "correct": failed == 0 and not errors and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "fail_frac": failed / attempted if attempted else 1.0,
        "samples": samples,
        "pass_walls_s": [r["wall_s"] for r in plain],
        "pass_cpu_s": [r["cpu_s"] for r in plain],
        "traced_walls_s": [r["wall_s"] for r in traced],
        "setup_samples_s": setups,
        "pass_setup_s": [r["setup_s"] for r in plain + traced],
        "errors": errors,
        "environment": environment(),
    }
    if trace and traced:
        record["spans_file"] = str(spans.relative_to(ROOT))
    return {"result": result, "record": record}


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "liesym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "cpu_model": cpu,
        "thread_pins": THREAD_PINS,
        "pythonhashseed": HASH_SEED,
        "load_model": "closed loop, one client, fresh interpreter per pass",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "liesym" / "__init__.py").is_file():
        print(f"error: no liesym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(run, indent=2) + "\n")
        runs[name] = run
    if args.workload == "all":
        print_summary(runs)
        result = {"correct": all(r["result"]["correct"] for r in runs.values()),
                  "attempted": sum(r["result"]["attempted"] for r in runs.values()),
                  "failed": sum(r["result"]["failed"] for r in runs.values()),
                  "metrics": {f"{w}.{k}": v for w, r in runs.items()
                              for k, v in r["result"]["metrics"].items()}}
    else:
        run = runs[args.workload]
        print(json.dumps(run["record"]))
        result = run["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def print_summary(runs: dict) -> None:
    for name, run in runs.items():
        rec, res = run["record"], run["result"]
        cells = [f"{k} = {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()
                 if k in END_TO_END_UNITS]
        cells.append(f"fail_frac = {rec['fail_frac']:.4g} ({res['failed']}/{res['attempted']})")
        print(f"{name:20s} " + "  ".join(cells) + f"  [n = {rec['samples']}]")


if __name__ == "__main__":
    sys.exit(main())
