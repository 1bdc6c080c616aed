"""Run one wcurves benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout that holds src/wcurves.  Each
repetition is a fresh interpreter (perfbench/worker.py) that runs the
whole workload once, one D at a time, with no threads; repetitions run
one after another until the next would end after S seconds.

--trace 0 reports the end-to-end metrics; --trace 1 alternates plain and
traced repetitions and reports the per-layer metrics, with the tracing
overhead taken against the plain ones.  ``all`` runs every workload in
turn and prints all six end-to-end metrics of each, fail_ratio and
per_d_p90_ms included.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the full record
with provenance.  Exit status: 0 when every operation passed, 2 when one
failed (wrong digest, failed identity, verify failure or exception), 1
when the benchmark itself could not run; then no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 170
MIN_TAIL = 10

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "per_d_p50_ms": "ms",
    "per_d_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}
# Reported by the driver-facing result line; per_d_p90_ms is left out
# because large_d never has ten samples beyond it, and fail_ratio because
# it is zero on correct code (the line's attempted and failed carry it).
END_TO_END = ("setup_s", "wall_s", "per_d_p50_ms", "peak_rss_mb")


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-quantile, or None unless at least MIN_TAIL samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_TAIL:
        return None
    return ordered[rank - 1]


def spawn(mode: str, workload: str, seed: int) -> dict:
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, workload, str(seed), repr(t0)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} repetition of {workload} ran over {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise HarnessError(f"{mode} repetition of {workload} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def why(workload: str) -> str:
    """The workload's reason for existing, as BENCHMARK.json states it."""
    try:
        with open("BENCHMARK.json") as fh:
            listed = json.load(fh)["workloads"]
    except (OSError, ValueError, KeyError) as exc:
        raise HarnessError(f"cannot read the workloads of BENCHMARK.json: {exc}")
    return next(w["why"] for w in listed if w["name"] == workload)


def per_d_latencies(reps: list[dict], key: str = "calibrated_ms") -> list[float]:
    """Each D's median latency in ms over repetitions that ran the same D in the same order."""
    return [statistics.median(column) for column in zip(*(r[key] for r in reps))]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload in fresh interpreters for about ``seconds``; aggregate.

    Other tenants of the machine slow it by up to 2.5x for seconds to
    minutes at a time, so every time is calibrated (perfbench/speed.py):
    scaled by a fixed chunk of interpreter work timed next to it.  wall_s
    sums each D's median calibrated latency over the run's repetitions,
    and the per-D percentiles are taken over those same medians.
    """
    spawn("setup", workload, seed)  # compiles bytecode; users pay that once per install
    start = time.perf_counter()
    probes = [spawn("setup", workload, seed) for _ in range(SETUP_PROBES)]
    modes = ("plain", "traced") if trace else ("plain",)
    reps: dict[str, list[dict]] = {m: [] for m in modes}
    for mode in itertools.cycle(modes):
        if all(reps.values()):
            longest = max(r["elapsed_s"] for r in reps[mode])
            if time.perf_counter() - start + longest > seconds:
                break
        t = time.perf_counter()
        rep = spawn(mode, workload, seed)
        rep["elapsed_s"] = time.perf_counter() - t
        rep["calibrated_ms"] = speed.calibrated(rep["latencies_ms"], rep["chunks_s"])
        reps[mode].append(rep)
    plain = reps["plain"]
    setups = [speed.scaled(p["setup_s"], p["setup_chunk_s"]) for p in probes + plain]
    per_d = per_d_latencies(plain)
    done = [r for rs in reps.values() for r in rs]
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    result = {
        "workload": workload,
        "why": why(workload),
        "repetitions": {m: len(rs) for m, rs in reps.items()},
        "repetition_wall_s": [sum(r["latencies_ms"]) / 1e3 for r in plain],
        "uncalibrated_wall_s": sum(per_d_latencies(plain, "latencies_ms")) / 1e3,
        "uncalibrated_setup_s": statistics.median(p["setup_s"] for p in probes + plain),
        "machine_speed": statistics.median(
            speed.REFERENCE_S / statistics.median(r["chunks_s"]) for r in plain),
        "per_d_samples": len(per_d),
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for r in done for f in r["failures"]})[:20],
        "output_sha256": sorted({r["output_sha256"] for r in done}),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_d) / 1e3,
            "per_d_p50_ms": statistics.median(per_d),
            "per_d_p90_ms": percentile(per_d, 0.9),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "fail_ratio": failed / attempted,
        },
    }
    if trace:
        traced = reps["traced"]
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = sum(per_d_latencies(traced)) / sum(per_d)
        result["per_layer"] = layers
        result["spans_per_repetition"] = traced[0]["spans"]
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted(Path("src/wcurves").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "wcurves_commit": git_commit(),
        "wcurves_src_sha256": src.hexdigest(),
        "seed": seed,
    }


def summary(result: dict) -> list[str]:
    e2e = result["end_to_end"]
    lines = [f"{result['workload']}: {result['repetitions']} repetitions, "
             f"{result['attempted']} operations, {result['failed']} failed"]
    for name, value in e2e.items():
        if value is None:
            text = (f"n/a (needs {MIN_TAIL} samples beyond it; "
                    f"have {result['per_d_samples']} in all)")
        else:
            text = f"{value:.6g} {UNITS[name]}"
            if name.startswith("per_d_"):
                text += f" (n={result['per_d_samples']})"
            elif name == "setup_s":
                text += f" (n={result['setup_samples']})"
        lines.append(f"  {name:<14} {text}")
    for name, value in sorted(result.get("per_layer", {}).items()):
        lines.append(f"  {name:<30} {value:.6g}")
    lines += [f"  FAIL {f}" for f in result["failures"]]
    return lines


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_repeat", "_ratio")) else "count"


def metrics_of(result: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        values, unit = result["per_layer"], layer_unit
    else:
        values, unit = {k: result["end_to_end"][k] for k in END_TO_END}, UNITS.get
    return {prefix + k: {"value": v, "unit": unit(k)} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run a wcurves benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        if not Path("src/wcurves/__init__.py").is_file():
            raise HarnessError("run from the root of a wcurves checkout: src/wcurves is missing")
        results = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"provenance": provenance(args.seed), "results": results}
    for result in results:
        print("\n".join(summary(result)))
    print(json.dumps(record))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if args.workload == "all" else ""
        metrics.update(metrics_of(result, bool(args.trace), prefix))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
