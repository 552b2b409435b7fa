"""Every benchmark workload runs end to end on the current code.

Each workload runs once as the benchmark runs it, from the repository
root with --seconds 0 (set-up plus the minimum rounds), and its last
line of stdout must report a correct run with no failed operation. The
events and cli workloads also run under --trace 1, whose span wrappers
replace methods on the package's classes, the slotted EventSet among
them; the traced cli run must reach the kernel's tents and residuals.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["levels", "events", "cli"])
def test_workload_runs_correctly(workload):
    result = run_bench(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_events_run_reports_the_shrink_chains():
    result = run_bench("events", 1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["splitting.shrink_sequence.calls"]["value"] > 0


def test_traced_cli_run_reports_the_kernel_checks():
    result = run_bench("cli", 1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["kernel.hat_family.calls"]["value"] > 0
    assert result["metrics"]["kernel.pushforward_uniformity_check.calls"]["value"] > 0
