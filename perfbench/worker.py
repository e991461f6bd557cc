"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR
    python3 perfbench/worker.py --setup-only

Times the import of liesym and liesym.cli (setup_s), then runs one pass of
the workload (wall_s, measured after the imports) and prints one JSON object
as its last line of standard output.  With --trace 1 the pass runs with every
public liesym function wrapped by the tracer, and the per-layer numbers are
included; such a pass is never used for wall_s.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, not liesym)


def import_liesym() -> float:
    """Import the package from this checkout's src/ and return the seconds taken."""
    if not (SRC / "liesym" / "__init__.py").is_file():
        raise SystemExit(f"error: no liesym package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import liesym
    import liesym.cli  # noqa: F401
    setup_s = time.perf_counter() - t0
    if Path(liesym.__file__).resolve().parent != (SRC / "liesym").resolve():
        raise SystemExit(f"error: imported liesym from {liesym.__file__}, not {SRC}")
    return setup_s


def run_pass(workload: str, seed: int, workdir: Path, trace: bool, size: str = "full",
             expected_tables: Path = workloads.EXPECTED_TABLES,
             spans_path: Path | None = None) -> dict:
    """Run one pass in this process; liesym must already be importable."""
    run, plan = workloads.PASSES[workload]
    checks = workloads.Checks(plan(size))
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        run(seed, workdir, checks, size=size, expected_tables=expected_tables)
    except Exception:
        # The pass stops here; the checks it did not reach count as failed.
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    if tracer is not None:
        tracer.remove()
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed_names(),
        "error": error,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.span_name)
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--workdir", type=Path)
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args(argv)
    setup_s = import_liesym()
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.workload is None or args.workdir is None:
            p.error("--workload and --workdir are required for a pass")
        result.update(run_pass(args.workload, args.seed, args.workdir, bool(args.trace),
                               args.size, spans_path=args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
