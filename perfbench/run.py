"""lexrag benchmark: one seeded workload per run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload keyword_hits --seed 1 --seconds 12 --trace 0

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` with
the end-to-end metrics when ``--trace 0`` and the per-layer metrics when
``--trace 1``.  The line before it is an ``info`` record: the workload's
measured input shares, sample counts, the output digest and the
environment.  A wrong output exits 1 after printing ``"correct": false``.
The benchmark exits non-zero without a result when the checkout's
``src/lexrag`` cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("keyword_hits", "vector_fallback", "evaluate")


def import_lexrag():
    """Import lexrag from this checkout's ``src``, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lexrag
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lexrag from {ROOT / 'src'}: {exc}")
    if Path(lexrag.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"perfbench: lexrag was imported from {lexrag.__file__}, not {ROOT / 'src'}")


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import requests

    blas_threads = None
    for lib in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            blas_threads = getter()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": requests.__version__,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--docs", type=int, default=20000, help="corpus size (the self-tests use a tiny one)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One process, at most nproc threads: the main thread does the work and
    # the only other thread is the HTTP stub, so BLAS must not start a pool.
    # This has to happen before lexrag imports numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # Both threads on one CPU: the host-speed probes then time the CPU that
    # runs lexrag, and the HTTP stub hands off to the client on that CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_lexrag()
    # Loopback only: no proxy, and no netrc lookup outside the checkout.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    os.environ["NETRC"] = str(work / "netrc")

    import workloads
    from spans import Tracer

    ctx = workloads.Context(
        root=ROOT,
        seed=args.seed,
        seconds=args.seconds,
        docs=args.docs,
        trace=bool(args.trace),
        work=work,
        tracer=Tracer() if args.trace else None,
    )
    try:
        outcome = getattr(workloads, args.workload)(ctx)
    except workloads.GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if outcome.spans is not None:
        outcome.spans.save(OUT / f"spans-{args.workload}.npz")
        outcome.setup_spans.save(OUT / f"setup-spans-{args.workload}.npz")
    units = workloads.LAYER_UNITS if args.trace else workloads.E2E_UNITS
    if set(outcome.metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(outcome.metrics)} do not match {sorted(units)}")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": outcome.digest,
        "error_rate": outcome.failed / outcome.attempted,
        **outcome.info,
        "environment": environment(),
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
