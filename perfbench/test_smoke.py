"""Smoke test of the benchmark: ``python3 -m pytest perfbench``.

Runs ``run.py --smoke``, which executes every workload once at tiny sizes,
untraced and traced, through the same code as a full run, and checks that
each end-to-end and per-layer metric of BENCHMARK.json is printed with its
unit and every output check passes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    printed = {}
    for line in lines:
        m = re.match(r"^\s*(\S+) (\S+)\s+(\S+) (\S+)\s+\(", line)
        if m:
            printed[(m.group(1), m.group(2))] = (float(m.group(3)), m.group(4))
    for w in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            value, unit = printed[(w["name"], metric["name"])]
            assert unit == metric["unit"], (w["name"], metric["name"])
        for name in ("wall_s", "cpu_s", "peak_rss_mb", "edges_per_s", "setup_s"):
            assert printed[(w["name"], name)][0] > 0, (w["name"], name)
        assert (w["name"], "fail_ratio") in printed


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for p in (ROOT / "perfbench").iterdir():
        if p.is_file():
            (tmp_path / "perfbench" / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "typed-gram", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
