"""The benchmark's own test: every workload once at tiny size, timed and
traced, with every oracle (``run.py --smoke``)."""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


@pytest.mark.slow
def test_smoke_all_workloads_pass_their_oracles():
    p = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True,
                       text=True, timeout=900)
    assert p.returncode == 0, p.stdout[-4000:] + p.stderr[-4000:]
    assert json.loads(p.stdout.strip().splitlines()[-1]) == {"smoke": "passed"}


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.dirname(RUN)):
        if name.endswith(".py"):
            (bench / name).write_bytes(
                open(os.path.join(os.path.dirname(RUN), name), "rb").read())
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "code_report", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=120)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
