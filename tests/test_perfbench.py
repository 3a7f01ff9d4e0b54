"""The benchmark's own answer checks, run as part of the suite: every
workload's answers (the cli-session stdout hashes and the frozen
extremal maxima among them) must match ``perfbench/reference.json``.
The run writes only under the ignored ``.perfbench/`` directory.  The
harness's own self-tests run here too, since its timings back every
speed claim."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("census", "cli-session", "extremal", "sampling")


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_answers_match_reference():
    proc = _run("perfbench/run.py", "--workload", "all", "--check-only")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for name in WORKLOADS:
        line = next((ln for ln in lines if ln.startswith(f"{name}: ")), None)
        assert line is not None, proc.stdout
        assert line.endswith(" 0 failed: ok"), line


def test_harness_selftests_pass():
    proc = _run("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr.rstrip().endswith("OK"), proc.stderr
