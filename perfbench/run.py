"""mmfusion benchmark: one command, two workloads.

    python3 perfbench/run.py --workload train_wide --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, measured with
only a two-read clock around each training step; with ``--trace 1`` they are
its per-layer metrics, from a run that measures an untraced baseline first
and then installs span wrappers (see ``tracer.py``). The lines before the
result record the environment and, when traced, the ``bench_attention``
rows of all three fusion topologies.

The measured loop of an untraced run repeats whole units (one
``train_model`` run on train_wide, one scoring of the held-out split on
infer_checkpoint) after one warm-up unit that is checked but not timed. A figure is reported as the median over
the run's units, or over blocks of consecutive units holding at least 200
latencies for the latency figures, so a burst of contention on a shared
host that covers a few units does not move it. End-to-end metrics mean, per
workload:

* ``samples_per_s``: training samples per second of ``train_model`` wall
  time (train_wide); held-out samples per second of the batch-32 evaluation
  passes (infer_checkpoint).
* ``latency_ms_mean``/``latency_ms_p95``: one optimizer step, from its
  batch fetch to the end of ``AdamW.step`` (train_wide); one batch-1 request
  (infer_checkpoint). The centre is a mean, not a median: on a shared
  2-vCPU host the latencies fall into a fast and a slow mode, 1.2-1.5x
  apart, whose shares change from run to run, so the median jumps between
  the modes while the mean moves with the share.
* ``setup_s``: median of at least five set-ups, repeated until they have
  taken three seconds: dataset generation and model build,
  plus, for infer_checkpoint, the short training run and the checkpoint
  save and load.
* ``peak_rss_mb``: peak resident set size of the process.

Operations are optimizer steps (train_wide) or requests and evaluation passes
(infer_checkpoint); ``failed`` counts those that raised
(``TrainingDiverged``) and every output check that did not hold.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

# One BLAS thread: the figures must not depend on how many cores the shared
# machine lends to OpenBLAS's default one-thread-per-core pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def blas_threads():
    """Threads in the loaded OpenBLAS pool, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or platform.machine()


def environment(args, cfg, eval_batch):
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batch_size": cfg.trainer.batch_size,
        "eval_batch_size": eval_batch,
        "topology": cfg.fusion.topology,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "mmfusion")):
        print(f"error: no mmfusion sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        print(f"error: unknown workload {args.workload!r}; choose from {workload_names}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        w, clock, tracer, setup_s, rows, cut = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), tmpdir)
    if args.trace:
        values = workloads.per_layer(w, clock, tracer, rows, cut)
    else:
        values = workloads.end_to_end(w, clock, setup_s)

    missing = [m["name"] for m in declared
               if not math.isfinite(float(values.get(m["name"], math.nan)))]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(args, w.cfg, workloads.EVAL_BATCH)}))
    if rows is not None:
        print(json.dumps({"bench_attention": rows}))
    for reason, n in sorted(w.tally.reasons.items()):
        print(f"check failed {n}x: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": w.tally.failed == 0,
        "attempted": w.tally.attempted,
        "failed": w.tally.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
