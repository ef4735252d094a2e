"""Smoke-run every example script as a subprocess.

The examples are part of the public deliverable; these tests keep them
green (each asserts its own invariants internally and exits non-zero on
violation)."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")

EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


def test_examples_directory_complete():
    assert {
        "quickstart.py",
        "gpt2_failure_recovery.py",
        "lowdiff_plus_demo.py",
        "checkpointer_comparison.py",
        "configuration_planner.py",
        "cluster_simulation.py",
        "pipeline_parallel_vgg.py",
        "failure_drill.py",
        "convergence_study.py",
    } <= set(EXAMPLES)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_clean(script):
    completed = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script} failed:\n{completed.stdout[-2000:]}\n"
        f"{completed.stderr[-2000:]}"
    )
    assert completed.stdout.strip(), f"{script} produced no output"
