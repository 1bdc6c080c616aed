"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED T0

MODE is ``setup`` (import and stop), ``plain`` or ``traced``.  T0 is the
CLOCK_MONOTONIC reading taken by the parent just before it started this
process, so setup_s runs from interpreter start until ``wcurves`` and
``wcurves.cli`` are imported.  Every repetition starts cold: the library
keeps process-global, uncapped caches, and a second pass in one process
would time cache hits.  Around every D it times the calibration chunk of
perfbench/speed.py, and after set-up a few more, so that the parent can
scale times to a calm machine.  Prints one JSON object on stdout.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import wcurves  # noqa: E402
import wcurves.cli  # noqa: E402,F401

SETUP_S = time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[4])

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPAN_DIR = Path(".perfbench")
MAX_LISTED_FAILURES = 20


def run(workload: str, seed: int, traced: bool) -> dict:
    golden = workloads.load_json("golden.json")[workload]
    ds = workloads.inputs(workload, seed)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    clock = time.perf_counter
    latencies, done, failures = [], [], []
    chunks = [speed.chunk_s()]

    for D in ds:
        t = clock()
        try:
            if tracer is None:
                record, kept = workloads.operation(workload, wcurves, D)
            else:
                with tracer.root(f"D={D}"):
                    record, kept = workloads.operation(workload, wcurves, D)
        except Exception as exc:  # one failed D must not hide the rest
            failures.append(f"D={D}: raised {type(exc).__name__}: {exc}")
            done.append((D, None, None))
        else:
            done.append((D, record, kept))
        latencies.append((clock() - t) * 1e3)
        chunks.append(speed.chunk_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = 0
    lines = []
    for D, record, kept in done:
        if record is None:
            failed += 1
            continue
        bad = workloads.identities(workload, wcurves, D, kept)
        got = workloads.digest(record)
        lines.append(f"{D} {got}")
        if got != golden.get(str(D)):
            bad.append(f"D={D}: output digest {got} != recorded {golden.get(str(D))}")
        failed += bool(bad)
        failures.extend(bad)
    out = {
        "latencies_ms": latencies,
        "chunks_s": chunks,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ds),
        "failed": failed,
        "failures": failures[:MAX_LISTED_FAILURES],
        "output_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }
    if tracer is not None:
        layers = tracer.metrics()
        parts = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        if abs(parts - layers["trace.root_s"]) > 1e-6 * max(1.0, layers["trace.root_s"]):
            sys.exit(f"trace: self times sum to {parts} s, root spans to {layers['trace.root_s']} s")
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"spans-{workload}.jsonl.gz")
        out["layers"] = layers
        out["spans"] = len(tracer.spans)
    return out


def main() -> None:
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    out = {"setup_s": SETUP_S, "setup_chunk_s": speed.setup_chunk_s()}
    if mode != "setup":
        out.update(run(workload, seed, traced=(mode == "traced")))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
