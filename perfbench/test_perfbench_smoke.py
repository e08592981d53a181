"""The benchmark's own test: the whole harness at tiny sizes, so it cannot rot
unnoticed. ``run.py --smoke`` generates every workload at a few hundred
samples and runs both trace modes with the minimum number of repeats; it
takes about 15 s on 2 cores."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_smoke_reports_every_metric_and_no_failure():
    bench = _load_run_module()
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 4 * len(bench.WORKLOADS)
    expected = {f"{w}.{m}" for w in bench.WORKLOADS for m, _ in bench.END_TO_END}
    expected |= {f"{w}.traced.{m}" for w in bench.WORKLOADS for m, _ in bench.PER_LAYER}
    assert set(result["metrics"]) == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / RUN.parent.name / RUN.name),
                           "--workload", "run-20k", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
