"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
from tracer import self_times  # noqa: E402


def span(parent, start, end, layer="x"):
    return [layer, "f", parent, start, end]


def test_self_time_nested_and_sibling_spans():
    spans = [
        span(-1, 0.0, 10.0, "bench"),  # 0: root
        span(0, 1.0, 4.0, "a"),        # 1: child of root
        span(1, 2.0, 3.0, "b"),        # 2: grandchild, nested in 1
        span(0, 5.0, 9.0, "a"),        # 3: sibling of 1
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        span(-1, 0.0, 10.0),
        span(0, 2.0, 6.0),
        span(0, 4.0, 8.0),   # overlaps the previous sibling
        span(0, 9.0, 12.0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_reports_every_listed_layer_metric():
    # In a subprocess: installing the tracer rebinds wcurves functions for good.
    code = f"""
import json, sys
sys.path[:0] = [{str(REPO / "src")!r}, {str(BENCH)!r}]
import wcurves, wcurves.cli, workloads
from tracer import Tracer
tracer = Tracer()
tracer.install()
for name, D in (("verify_range", 17), ("large_d", 41)):
    with tracer.root(f"D={{D}}"):
        workloads.operation(name, wcurves, D)
print(json.dumps(tracer.metrics()))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    listed = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in listed} - {"trace.overhead_ratio"}
    parts = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert parts == pytest.approx(metrics["trace.root_s"], rel=1e-9)
    for layer in ("exact", "prototypes", "reference", "euler", "siegelveech", "boundary",
                  "verify"):
        assert metrics[f"{layer}.calls"] > 0 and metrics[f"{layer}.self_s"] > 0
    for counter in ("verify.checks", "reference.tuples", "boundary.junctions",
                    "exact.quadnum_new", "prototypes.constructed", "siegelveech.v_terms"):
        assert metrics[counter] > 0


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    assert run.percentile(samples, 0.9) == 90.0  # ten samples, 91..100, lie beyond
    assert run.percentile(samples[:99], 0.9) is None
    assert run.percentile(samples[:12], 0.9) is None
    assert run.percentile(samples[:12], 0.0) == 1.0


def test_calibration_scales_each_latency_by_the_chunks_around_it():
    ref = speed.REFERENCE_S
    # The first D ran at full speed, the second while the machine slowed
    # to half speed, the third at half speed.
    chunks = [ref, ref, 2 * ref, 2 * ref]
    assert speed.calibrated([4.0, 6.0, 8.0], chunks) == pytest.approx([4.0, 4.0, 4.0])
    assert speed.scaled(0.3, 3 * ref) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        speed.calibrated([1.0, 2.0], chunks[:2])


def test_per_d_latency_is_the_median_over_repetitions():
    reps = [{"calibrated_ms": [1.0, 9.0]}, {"calibrated_ms": [3.0, 5.0]},
            {"calibrated_ms": [2.0, 7.0]}]
    assert run.per_d_latencies(reps) == [2.0, 7.0]


def _checkout(tmp_path: Path, with_source: bool = True) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_source:
        shutil.copytree(REPO / "src" / "wcurves", root / "src" / "wcurves",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_faked_output_mismatch_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    golden_path = root / "perfbench" / "data" / "golden.json"
    golden = json.loads(golden_path.read_text())
    last = max(golden["sv_sweep"], key=int)  # every seed's window ends here
    golden["sv_sweep"][last] = "0" * 16
    golden_path.write_text(json.dumps(golden))

    proc = _run(root, "--workload", "sv_sweep", "--seed", "0", "--seconds", "0.1",
                "--trace", "0")
    assert proc.returncode == 2, proc.stderr
    out = proc.stdout.splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] >= 1
    record = json.loads(out[-2])["results"][0]
    assert record["end_to_end"]["fail_ratio"] == 1 / result["attempted"]
    assert any(f"D={last}: output digest" in f for f in record["failures"])


def test_without_the_library_there_is_no_result(tmp_path):
    root = _checkout(tmp_path, with_source=False)
    proc = _run(root, "--workload", "large_d", "--seed", "1", "--seconds", "5", "--trace", "0")
    assert proc.returncode == 1
    assert proc.stdout == ""
