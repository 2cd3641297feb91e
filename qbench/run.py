"""Cold-start benchmark of qlab.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qbench/run.py --smoke

A run repeats cold passes of one workload for about S seconds.  Every pass
is a fresh interpreter (qbench/passes.py) that imports qlab from the
checkout's src/, builds its inputs from the seed and makes the timed calls,
one pass at a time.  The outputs of the first pass are checked against
independent computations; every later pass must produce the same output
digest.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, taken over the run's
passes as qbench/README.md describes.  With --trace 1 every traced layer is wrapped and the
metrics are the per-layer self times and counts; spans and metrics go to
qbench/traces/<workload>-seed<N>.json.  --smoke runs one plain and one
traced pass of every workload at tiny sizes with all checks on.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import fmean, median, median_low

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(HERE, "traces")
WORKLOADS = ("construct", "verify", "refute", "oracle")

# Set-up takes about 0.1 s, so besides each pass a run starts set-up-only
# interpreters, one after each pass and then until it has this many
# set-up samples for the median.
MIN_SETUP_SAMPLES = 15

# Seconds after which a run gives up, kills its pass and reports nothing.
TIME_LIMIT = 170


def _child(workload: str, seed: int, size: str, deadline: float, *, check=False,
           trace=False, setup_only=False) -> tuple[dict, float, float]:
    """Run one pass in a fresh interpreter; return its result, the
    monotonic time it was started and its duration."""
    config = {"workload": workload, "seed": seed, "size": size, "check": check,
              "setup_only": setup_only, "trace_dir": TRACE_DIR if trace else None}
    started = time.monotonic()
    # A session of its own, so that a pass that overruns is killed together
    # with the oracle-compare interpreters it started.
    with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "passes.py"), json.dumps(config)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"qbench: {workload} pass still running at the time limit")
    duration = time.monotonic() - started
    sys.stderr.write(err)
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"qbench: {workload} pass exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started, duration


def _setup_probe(workload: str, seed: int, size: str, deadline: float) -> float:
    """Set-up time of an interpreter that stops before the first timed call."""
    result, started, _ = _child(workload, seed, size, deadline, setup_only=True)
    return result["first_call"] - started


def _typical_items(passes: list[dict]) -> list[float]:
    """Each timed call's mean time over the run's passes.

    On a 2-vCPU virtual machine whose speed switched between levels 1.6x
    apart for half a minute at a time, the mean over a run's passes held
    steadier than the median (which flips with the majority level), the
    pass total of the fastest pass or the per-call minimum.
    """
    return [fmean(times) for times in zip(*(p["items"] for p in passes))]


def _end_to_end(passes: list[dict], setups: list[float]) -> dict:
    typical = _typical_items(passes)
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "wall_s": {"value": sum(typical), "unit": "s"},
        "item_p50_s": {"value": median(typical), "unit": "s"},
        "peak_rss_mb": {"value": median(p["rss_kb"] for p in passes) / 1024, "unit": "MB"},
    }


def _per_layer(passes: list[dict]) -> dict:
    import tracing

    out = {}
    for name, unit in tracing.METRICS.items():
        if name.endswith(".self_s"):
            value = median(p["self_s"].get(name[: -len(".self_s")], 0.0) for p in passes)
        else:
            value = median_low(p["counts"].get(name, 0) for p in passes)
        out[name] = {"value": value, "unit": unit}
    return out


def _write_trace(workload: str, seed: int, passes: list[dict], metrics: dict) -> str:
    spans_path = os.path.join(TRACE_DIR, ".pass-spans.json")
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    os.remove(spans_path)
    path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "passes": len(passes),
                   "metrics": metrics, "last_pass_spans": spans}, fh)
    return path


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
    start = time.monotonic()
    deadline = start + TIME_LIMIT
    passes, setups = [], []
    while True:
        result, started, duration = _child(workload, seed, size, deadline,
                                           check=not passes, trace=trace)
        passes.append(result)
        setups.append(result["first_call"] - started)
        if not trace:
            setups.append(_setup_probe(workload, seed, size, deadline))
        # Start another pass only if one as long as the last still fits.
        if time.monotonic() - start + duration > seconds:
            break
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(_setup_probe(workload, seed, size, deadline))
    errors = [e for p in passes for e in p["errors"]]
    if len({p["digest"] for p in passes}) != 1:
        errors.append("passes with the same inputs produced different outputs")
    if len({len(p["items"]) for p in passes}) != 1:
        errors.append("passes timed different numbers of calls")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if trace:
        metrics = _per_layer(passes)
        print(f"trace written to {_write_trace(workload, seed, passes, metrics)}",
              file=sys.stderr)
    else:
        metrics = _end_to_end(passes, setups)
    print(f"{workload}: {len(passes)} passes in {time.monotonic() - start:.1f} s, "
          f"timed calls {sum(_typical_items(passes)):.4f} s per pass", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }


def smoke() -> dict:
    """One plain and one traced pass of each workload at tiny sizes."""
    summary = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run(workload, seed=1, seconds=0, trace=trace, size="smoke")
            summary[f"{workload}{'+trace' if trace else ''}"] = {
                k: result[k] for k in ("correct", "attempted", "failed")}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qlab", "__init__.py")):
        print(f"qbench: no qlab sources at {os.path.join(ROOT, 'src', 'qlab')}",
              file=sys.stderr)
        return 2
    if args.smoke:
        summary = smoke()
        print(json.dumps(summary))
        ok = all(s["correct"] and not s["failed"] for s in summary.values())
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
