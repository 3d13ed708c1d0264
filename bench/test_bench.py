"""Self-test of the benchmark on tiny problems.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Span, layer_units, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args: list[str], root: Path = ROOT) -> tuple[int, str, dict]:
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layer_units()


def test_smoke_prints_every_metric_with_its_unit():
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        code, out, res = _bench(["--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke"])
        assert code == 0 and res["correct"] and res["failed"] == 0, out
        for w in run.WORKLOADS:
            assert f"[{w}] failed_frac" in out
            for m in spec:
                got = res["metrics"][f"{w}.{m['name']}"]
                assert got["unit"] == m["unit"]
                assert isinstance(got["value"], (int, float))
        if trace:
            assert float(res["metrics"]["kinetic.fft.calls_per_step"]["value"]).is_integer()
            assert res["metrics"]["kinetic.fft.calls_per_step"]["value"] > 0
            assert res["metrics"]["sweep.linear.map_mode_jobs.serial_wall_s"]["value"] > 0
            assert res["metrics"]["kinetic.kinetic.step_kappa0_ms"]["value"] > 0


def test_failed_output_check_raises_failed_frac(tmp_path):
    """A reference that the outputs no longer match fails every run."""
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    ref = tmp_path / "bench" / "reference" / "kinetic-smoke.json"
    tables = json.loads(ref.read_text())
    tables["kinetic/kinetic.csv"]["fneq_L2"][-1] *= 1.001
    ref.write_text(json.dumps(tables))

    code, out, res = _bench(
        ["--workload", "kinetic", "--seed", "0", "--seconds", "0", "--trace", "0", "--smoke"], tmp_path
    )
    assert code != 0 and not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert "failed_frac  1 ratio" in out
    assert "reference: kinetic/kinetic.csv:fneq_L2" in out


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _span(sid, parent, start, end):
    s = Span(sid, "f", parent, 0, start)
    s.end = end
    return s


def test_self_time_subtracts_the_union_of_overlapping_children():
    # A pool span [0, 10] with two overlapping children on different threads
    # ([1, 6] and [4, 8]); the second has a grandchild [5, 7].
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 6.0), _span(2, 0, 4.0, 8.0), _span(3, 2, 5.0, 7.0)]
    assert self_times(spans) == [3.0, 5.0, 2.0, 2.0]
