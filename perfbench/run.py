"""Closed-loop benchmark of ssbmf.

One workload runs in one process with a single caller: each job's inputs are
built, the job runs, its output is checked, and only then does the next job
start.  Jobs run back to back until the next one would end after
``--seconds``.  Run from the repository root:

    python3 perfbench/run.py --workload recover --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same loop
with ssbmf's public functions wrapped from outside (see bench_tracing.py),
prints the per-layer metrics and writes the spans to
``.perfbench_out/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile
ATTEMPTS = 3  # a declined job is run again with fresh randomness, up to this many times


@dataclass
class JobRecord:
    seed: int
    setup_s: float = None
    job_s: float = None
    traced_s: float = None  # traced run only: the same inputs, traced
    failure: str = None
    declined: int = 0  # attempts the program declined before the job's last one
    wrong: bool = False  # a failure that is a wrong result or a bug, not a declined job
    instance: int = None
    distinct_row_frac: float = None


def _attempt(fn, *args):
    """(result, None) or (None, exception), never raising."""
    try:
        return fn(*args), None
    except Exception as exc:  # a failed job is counted, never fatal
        traceback.print_exc(file=sys.stderr)
        return None, exc


def _timed(fn, *args):
    """Wall time of one call, with the cyclic garbage collector held off.

    Garbage left by earlier calls is collected first, so that a collection
    it triggers is not charged to this call.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result, error = _attempt(fn, *args)
        return result, error, time.perf_counter() - start
    finally:
        gc.enable()


def attempts(wl, inp):
    """The job as its caller runs it: (output, declined attempts).

    ``tensor_recover`` draws its anchors at random and may decline with
    ``success=False``; a caller then tries again with a new anchor seed.
    The last attempt's output is the job's output, declined or not.
    """
    for attempt in range(ATTEMPTS):
        out = wl.job(inp, attempt)
        if attempt + 1 == ATTEMPTS or not wl.declined(out):
            return out, attempt


def run_job(wl, seed, tracer=None, order=0) -> JobRecord:
    """Build one job's inputs, run the job, check its output.

    With a tracer the job runs twice on the same inputs, once traced and
    once not, in the order given by ``order``; both outputs are checked.

    A declined attempt is retried (see ``attempts``) and counted in
    ``declined``; the job fails if its last attempt is declined.  Every
    failure counts.  It is also ``wrong`` unless the program declined
    the job: it returned ``success=False`` or raised one of its own typed
    errors (``SsbmfError``).
    """
    from bench_workloads import instance_key
    from ssbmf import SsbmfError

    def raised(stage, exc):
        rec.failure = f"{stage} raised {type(exc).__name__}"
        rec.wrong = not isinstance(exc, SsbmfError)
        return rec

    rec = JobRecord(seed)
    if tracer is None:
        inp, error, rec.setup_s = _timed(wl.setup, seed)
    else:
        with tracer.installed(), tracer.span("setup"):
            inp, error, rec.setup_s = _timed(wl.setup, seed)
    if error:
        return raised("setup", error)
    rec.instance = instance_key(inp.W)
    rec.distinct_row_frac = len(set(inp.W.rows)) / inp.W.m

    outputs = []
    passes = (False,) if tracer is None else ((False, True), (True, False))[order]
    for traced in passes:
        if traced:
            with tracer.installed(), tracer.span("job"):
                out, error, rec.traced_s = _timed(attempts, wl, inp)
        else:
            out, error, rec.job_s = _timed(attempts, wl, inp)
        if error:
            return raised("job", error)
        out, rec.declined = out
        outputs.append(out)
    for out in outputs:
        reason = wl.declined(out)
        if reason:
            rec.failure = f"declined: {reason}"
            return rec
        reason, error = _attempt(wl.check, inp, out)
        if error or reason:
            rec.failure = f"check raised {type(error).__name__}" if error else f"check: {reason}"
            rec.wrong = True
            return rec
    return rec


def run_loop(wl, workload_seed, seconds, tracer=None) -> list:
    """Jobs back to back until the next one would end after ``seconds``."""
    from bench_workloads import job_seeds

    seeds = job_seeds(workload_seed)
    records, cycles = [], []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        records.append(run_job(wl, next(seeds), tracer, order=len(records) % 2))
        cycles.append(time.perf_counter() - cycle_start)
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            return records


def distinct_instances(records) -> int:
    return len({r.instance for r in records if r.instance is not None})


def tail(values):
    """Value at the highest percentile with TAIL_BEYOND values beyond it.

    A run with fewer than 2 * TAIL_BEYOND + 1 values has no such percentile
    above its median; the middle value (the upper one of an even count) is
    used instead.  Returns (value, 1-based rank in ascending order).
    """
    ordered = sorted(values)
    idx = max(len(ordered) // 2, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], idx + 1


def end_to_end(records, import_s) -> dict:
    setups = [r.setup_s for r in records if r.setup_s is not None]
    jobs = [r.job_s for r in records if r.job_s is not None] or [0.0]
    ok = sum(r.failure is None for r in records)
    return {
        "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
        "job_s_p50": {"value": statistics.median(jobs), "unit": "s"},
        "job_s_tail": {"value": tail(jobs)[0], "unit": "s"},
        "ok_frac": {"value": ok / len(records), "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def per_layer(records, tracer) -> dict:
    from bench_tracing import layer_metrics

    done = [r for r in records if r.traced_s is not None and r.job_s is not None]
    metrics = layer_metrics(tracer, max(1, len(records)))
    selfs = tracer.self_times()
    roots = [sp for sp in tracer.spans if sp.name == "job"]
    wall = sum(sp.end - sp.start for sp in roots)
    rows = [r.distinct_row_frac for r in records if r.distinct_row_frac is not None]
    extra = {
        "instance.distinct_row_frac": (statistics.fmean(rows) if rows else 0.0, "ratio"),
        "trace.overhead_frac": (statistics.median(r.traced_s / r.job_s for r in done) - 1
                                if done else 0.0, "ratio"),
        "trace.unattributed_frac": (sum(selfs[sp.id] for sp in roots) / wall
                                    if wall else 0.0, "ratio"),
        "bench.jobs": (len(records), "count"),
        "bench.declined_attempts": (sum(r.declined for r in records), "count"),
        "bench.distinct_instances": (distinct_instances(records), "count"),
    }
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    return metrics


def _limit_blas_threads():
    """One BLAS thread: the loop has a single caller, and a second BLAS thread
    gave no faster jobs on 2 CPUs while it spun on the other one."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import ssbmf
    except ImportError as exc:
        print(f"perfbench: cannot import ssbmf from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if SRC not in Path(ssbmf.__file__).resolve().parents:
        print(f"perfbench: imported ssbmf from {ssbmf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from bench_tracing import Tracer
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    records = run_loop(wl, args.seed, args.seconds, tracer)

    failed = [r for r in records if r.failure is not None]
    jobs = [r.job_s for r in records if r.job_s is not None]
    rank = tail(jobs)[1] if jobs else 0
    print(f"workload={wl.name} seed={args.seed} trace={args.trace} jobs={len(records)} "
          f"distinct_instances={distinct_instances(records)} "
          f"failed_frac={len(failed) / len(records):.4g} "
          f"declined_attempts={sum(r.declined for r in records)} "
          f"failures={dict(Counter(r.failure.split(':')[0] for r in failed))} "
          f"job_s_tail=job {rank} of {len(jobs)} ascending "
          f"import_s={import_s:.4f}")
    print("job_s=" + " ".join(f"{t:.3f}" for t in jobs)
          + " setup_s=" + " ".join(f"{r.setup_s:.3f}" for r in records
                                   if r.setup_s is not None))
    for r in failed:
        print(f"  failed job seed={r.seed}{' (wrong)' if r.wrong else ''}: {r.failure}")
    if tracer is None:
        metrics = end_to_end(records, import_s)
    else:
        metrics = per_layer(records, tracer)
        if tracer.missing:
            print(f"absent (name not found): {', '.join(tracer.missing)}")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{wl.name}-{args.seed}.json")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not any(r.wrong for r in records),
                      "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
